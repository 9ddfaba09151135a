"""Run configuration: flat key-value files, overrides, validation, presets.

Config files are UTF-8 `key = value` lines with `#` comments and dotted
keys (`noise.amplitude`).  The exact key list is the RunConfig field list;
unknown keys are rejected rather than ignored so typos cannot silently
change an experiment.  Values are coerced at build time; physical
constraints are checked by `validate`, which never throws and returns a
list of human-readable violations (entries prefixed "warning:" do not
block a run).
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields, replace
from importlib import resources

import numpy as np

from .model import (DEFAULT_CONVENTION, FrequencyConvention, NoiseNormalization,
                    NoiseSpec, SingleQubitSchedule, SpectatorSchedule,
                    TwoQubitSchedule)

MODES = ("simulate", "ensemble", "sweep", "kernel", "pulse-export",
         "oracle-check", "spectator-check")
SYSTEMS = ("single", "pair", "spectator")
SWEEPABLE = ("T", "J0", "noise.amplitude", "noise.omega_cut", "J12")

PRESET_NAMES = ("fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b")

#: Most noise components N = floor(omega_cut / omega0) a run may ask for:
#: 400 times fig4b's 25 000, and 80 MB of random phases per realization.
MAX_NOISE_COMPONENTS = 10**7
#: Most member-steps, ceil(T/dt) times the members run together, a run may
#: ask for.  The engine tabulates one (steps, M, sectors, 2, 2) complex array,
#: 64 B per member-step and sector, so at the cap the two-sector spectator
#: table is 128 MB; fig4b's 100 members x 1000 steps is a tenth of the cap.
MAX_MEMBER_STEPS = 10**6
#: Most kernel.points: the memory solver holds about 112 B per grid point
#: (traced), so at the cap it stays within the engine table's 128 MB.
MAX_KERNEL_POINTS = 10**6
# Keys that say where and how a run is written, not what it computes.
_UNHASHED_KEYS = ("out", "timestamps")


class ConfigError(ValueError):
    """Malformed config input: unknown key, bad syntax, or uncoercible value."""


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of a run, one field per config key."""

    mode: str = "simulate"
    system: str = "single"
    total_time: float = 0.0005          # key: T
    dt: float = 1e-6
    j0: float = 4000.0                  # key: J0
    convention: str = DEFAULT_CONVENTION.value
    realizations: int = 1
    initial_state: str = ""             # empty: per-system default
    store_every: int = 1
    timestamps: bool = True
    out: str = "."
    noise_amplitude: float | None = None    # key: noise.amplitude
    noise_omega0: float = 1.0               # key: noise.omega0
    noise_omega_cut: float | None = None    # key: noise.omega_cut
    noise_normalization: str = "literal"    # key: noise.normalization
    noise_seed: int | None = None           # key: noise.seed
    j12: float = 215.0                      # key: J12
    omega_spec: float = 0.0
    sweep_parameter: str = ""               # key: sweep.parameter
    sweep_values: tuple = ()                # key: sweep.values (comma list)
    kernel_points: int = 1000               # key: kernel.points

    @property
    def has_noise(self) -> bool:
        return self.noise_amplitude is not None

    def frequency_convention(self) -> FrequencyConvention:
        return FrequencyConvention(self.convention)

    def noise_spec(self) -> NoiseSpec | None:
        if not self.has_noise:
            return None
        return NoiseSpec(
            amplitude=self.noise_amplitude,
            omega0=self.noise_omega0,
            omega_cut=self.noise_omega_cut,
            normalization=NoiseNormalization(self.noise_normalization),
            seed=self.noise_seed if self.noise_seed is not None else 0,
            convention=self.frequency_convention(),
        )

    def schedule(self):
        conv = self.frequency_convention()
        if self.system == "pair":
            return TwoQubitSchedule(j0=self.j0, total_time=self.total_time, convention=conv)
        single = SingleQubitSchedule(j0=self.j0, total_time=self.total_time, convention=conv)
        if self.system == "single":
            return single
        return SpectatorSchedule(base=single, j12=self.j12, omega_spec=self.omega_spec)

    @property
    def members(self) -> int:
        """Members run together: the realizations of an ensemble or a noisy sweep, else 1."""
        if self.mode == "ensemble" or (self.mode == "sweep" and self.has_noise):
            return self.realizations
        return 1

    def initial_vector(self) -> np.ndarray:
        """The normalized initial state, or ConfigError if the system cannot take it.

        A named state (`_NAMED_STATES`; a spectator starts in |0>) or complex
        amplitudes separated by commas; a spectator also takes the driven
        qubit's two.  Empty means pair01 for the pair model, zero otherwise.
        """
        name = self.initial_state or ("pair01" if self.system == "pair" else "zero")
        if name in _NAMED_STATES:
            if name == "pair01" and self.system != "pair":
                raise ConfigError("initial_state 'pair01' needs system = pair")
            if name != "pair01" and self.system == "pair":
                raise ConfigError(f"initial_state {name!r} needs a two-level system")
            amps = np.array(_NAMED_STATES[name], dtype=complex)
        else:
            try:
                amps = np.array([complex(part) for part in name.split(",")])
            except ValueError:
                raise ConfigError("initial_state must be a named preset or"
                                  " comma-separated amplitudes") from None
            if not np.isfinite(amps).all():
                raise ConfigError("initial_state amplitudes must be finite")
        if self.system == "spectator" and amps.shape == (2,):
            amps = np.kron(amps, [1.0, 0.0])
        dim = 2 if self.system == "single" else 4
        if amps.shape != (dim,):
            raise ConfigError(f"explicit initial state needs {dim} amplitudes")
        # Scaled by the largest real or imaginary part first, so that the
        # norm neither overflows nor underflows.
        parts = amps.view(float)
        scale = np.abs(parts).max()
        if scale == 0.0:
            raise ConfigError("explicit initial state must be nonzero")
        if self.system == "pair" and (amps[0] != 0.0 or amps[3] != 0.0):
            raise ConfigError("a pair initial state must lie in the {|01>, |10>} block"
                              " (zero amplitude on |00> and |11>)")
        amps = (parts / scale).view(complex)
        return amps / np.linalg.norm(amps)


# Unnormalized: zero, one and plus of the driven qubit, and |01> of the pair model.
_NAMED_STATES = {"zero": (1, 0), "one": (0, 1), "plus": (1, 1), "pair01": (0, 1, 0, 0)}


# key name in files <-> RunConfig field name
_KEY_TO_FIELD = {
    "mode": "mode",
    "system": "system",
    "T": "total_time",
    "dt": "dt",
    "J0": "j0",
    "convention": "convention",
    "realizations": "realizations",
    "initial_state": "initial_state",
    "store_every": "store_every",
    "timestamps": "timestamps",
    "out": "out",
    "noise.amplitude": "noise_amplitude",
    "noise.omega0": "noise_omega0",
    "noise.omega_cut": "noise_omega_cut",
    "noise.normalization": "noise_normalization",
    "noise.seed": "noise_seed",
    "J12": "j12",
    "omega_spec": "omega_spec",
    "sweep.parameter": "sweep_parameter",
    "sweep.values": "sweep_values",
    "kernel.points": "kernel_points",
}
_FIELD_TO_KEY = {v: k for k, v in _KEY_TO_FIELD.items()}


def _coerce(key: str, field_name: str, raw: str):
    kind = {f.name: f.type for f in fields(RunConfig)}[field_name]
    raw = raw.strip()
    try:
        if field_name == "sweep_values":
            return tuple(float(v) for v in raw.split(",") if v.strip())
        if kind in ("float", "float | None"):
            return float(raw)
        if kind in ("int", "int | None"):
            return int(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_pairs(lines) -> dict:
    """`key = value` lines (comments and blanks skipped) -> {key: raw string}."""
    pairs = {}
    for n, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {n}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"unknown config key {key!r}")
        pairs[key] = raw
    return pairs


def build_config(pairs: dict, overrides: dict | None = None) -> RunConfig:
    """Assemble a RunConfig from raw key -> string maps; overrides win."""
    merged = dict(pairs)
    for key, raw in (overrides or {}).items():
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = raw
    values = {}
    for key, raw in merged.items():
        name = _KEY_TO_FIELD[key]
        values[name] = _coerce(key, name, str(raw))
    return RunConfig(**values)


def load_config(source: str, overrides: dict | None = None) -> RunConfig:
    """Load from a file path or a packaged preset name (fig3a ... fig4b)."""
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            pairs = parse_pairs(fh)
    elif source in PRESET_NAMES:
        text = resources.files("nia_sim").joinpath(f"presets/{source}.cfg").read_text("utf-8")
        pairs = parse_pairs(text.splitlines())
    else:
        raise ConfigError(f"no such config file or preset: {source!r}")
    return build_config(pairs, overrides)


def effective_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """Canonical (key, value) pairs of all effective settings, sorted by key."""
    out = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name == "sweep_values":
            if not value:
                continue
            text = ",".join(f"{v:.12g}" for v in value)
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = f"{value:.12g}"
        else:
            text = str(value)
        out.append((_FIELD_TO_KEY[f.name], text))
    return sorted(out)


def config_hash(cfg: RunConfig, exclude: tuple = ()) -> str:
    """Short digest of the effective configuration (reproducibility stamp).

    The output directory and the timestamp switch do not change what a run
    computes, so they are left out.
    """
    skip = _UNHASHED_KEYS + tuple(exclude)
    blob = "\n".join(f"{k}={v}" for k, v in effective_items(cfg) if k not in skip)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def validate(cfg: RunConfig) -> list[str]:
    """All violations of the config, empty iff a run would accept it.

    Entries starting with "warning:" are advisory (physics sanity) and do
    not block execution.  Each of the `runs` of a sweep or a spectator
    check is checked too; what blocks only a sweep run names its value.
    """
    bad = _violations(cfg)
    if cfg.mode == "spectator-check":
        for run in runs(cfg):
            bad += [v for v in blocking(_violations(run)) if v not in bad]
    if cfg.mode == "sweep" and cfg.sweep_parameter in SWEEPABLE:
        for value, run in zip(cfg.sweep_values, runs(cfg)):
            bad += [f"sweep value {value:g}: {v}" for v in blocking(_violations(run))
                    if v not in bad]
    return bad


def _violations(cfg: RunConfig) -> list[str]:
    bad = []
    for key, value in (("T", cfg.total_time), ("dt", cfg.dt), ("J0", cfg.j0),
                       ("J12", cfg.j12), ("omega_spec", cfg.omega_spec),
                       ("noise.amplitude", cfg.noise_amplitude),
                       ("noise.omega0", cfg.noise_omega0),
                       ("noise.omega_cut", cfg.noise_omega_cut)):
        if value is not None and not math.isfinite(value):
            bad.append(f"{key} must be finite")
    if cfg.mode not in MODES:
        bad.append(f"mode must be one of {', '.join(MODES)}")
    if cfg.system not in SYSTEMS:
        bad.append(f"system must be one of {', '.join(SYSTEMS)}")
    if not cfg.total_time > 0.0:
        bad.append("T must be positive")
    if not cfg.dt > 0.0:
        bad.append("dt must be positive")
    elif cfg.dt > cfg.total_time > 0.0:
        bad.append("dt must not exceed T")
    elif math.isfinite(cfg.total_time) and cfg.total_time > 0.0:
        steps = cfg.total_time / cfg.dt - 1e-9
        if steps > MAX_MEMBER_STEPS or math.ceil(steps) * cfg.members > MAX_MEMBER_STEPS:
            bad.append(f"T/dt steps for {cfg.members} member(s) exceed"
                       f" {MAX_MEMBER_STEPS} member-steps")
    if not cfg.j0 > 0.0:
        bad.append("J0 must be positive")
    try:
        cfg.frequency_convention()
    except ValueError:
        bad.append("convention must be 'angular' or 'hertz'")
    if cfg.realizations < 1:
        bad.append("realizations must be >= 1")
    if cfg.store_every < 1:
        bad.append("store_every must be >= 1")
    if cfg.j12 < 0.0:
        bad.append("J12 must be non-negative")
    if cfg.system in SYSTEMS:
        try:
            cfg.initial_vector()
        except ConfigError as exc:
            bad.append(str(exc))
    if cfg.has_noise:
        if cfg.noise_omega_cut is None:
            bad.append("noise.omega_cut required when noise.amplitude is set")
        elif not (cfg.noise_omega0 > 0.0 and cfg.noise_omega_cut >= cfg.noise_omega0):
            bad.append("NoiseSpec invariant: need noise.omega_cut >= noise.omega0 > 0")
        elif cfg.noise_omega_cut / cfg.noise_omega0 >= MAX_NOISE_COMPONENTS + 1:
            bad.append(f"noise.omega_cut / noise.omega0 asks for more than "
                       f"{MAX_NOISE_COMPONENTS} noise components")
        try:
            NoiseNormalization(cfg.noise_normalization)
        except ValueError:
            bad.append("noise.normalization must be 'literal' or 'unit-rms'")
    if cfg.mode == "ensemble":
        if not cfg.has_noise:
            bad.append("ensemble mode requires a noise block")
        elif cfg.noise_seed is None:
            bad.append("ensemble mode requires an explicit noise.seed")
    if cfg.mode == "sweep":
        if cfg.sweep_parameter not in SWEEPABLE:
            bad.append(f"sweep.parameter must be one of {', '.join(SWEEPABLE)}")
        if not cfg.sweep_values:
            bad.append("sweep.values must be a nonempty list")
        if cfg.sweep_parameter in ("noise.amplitude", "noise.omega_cut") and not cfg.has_noise:
            bad.append("sweeping a noise parameter requires a noise block")
    if cfg.mode == "kernel" and cfg.kernel_points < 500:
        bad.append("kernel.points must be >= 500")
    if cfg.mode == "kernel" and cfg.kernel_points > MAX_KERNEL_POINTS:
        bad.append(f"kernel.points must be <= {MAX_KERNEL_POINTS}")
    if cfg.mode == "spectator-check" and cfg.system == "pair":
        bad.append("spectator-check mode requires a two-level driven system")
    if cfg.mode == "pulse-export" and cfg.system != "single":
        bad.append("pulse-export mode requires system = single")

    if not bad and cfg.total_time > 0.0 and cfg.dt > 0.0:
        # Under-resolution sanity: step phase budget at the typical field scale.
        f = cfg.frequency_convention().factor
        scale = f * cfg.j0
        if cfg.has_noise and cfg.noise_omega_cut is not None:
            spec = cfg.noise_spec()
            scale += spec.component_scale * (spec.n_components / 2.0) ** 0.5
        if cfg.dt * scale > 0.5:
            bad.append("warning: dt times the typical field magnitude exceeds 0.5 rad;"
                       " the step evolution may be under-resolved")
    return bad


def blocking(violations: list[str]) -> list[str]:
    return [v for v in violations if not v.startswith("warning:")]


def apply_sweep_value(cfg: RunConfig, value: float) -> RunConfig:
    """Copy of cfg with the swept parameter replaced by one sweep value."""
    return replace(cfg, **{_KEY_TO_FIELD[cfg.sweep_parameter]: value})


def runs(cfg: RunConfig) -> list[RunConfig]:
    """The config of each run the mode makes: one per sweep value, the driven
    qubit alone and then with its spectator for a spectator check, else cfg."""
    if cfg.mode == "sweep":
        return [apply_sweep_value(cfg, value) for value in cfg.sweep_values]
    if cfg.mode == "spectator-check":
        return [replace(cfg, system=system) for system in ("single", "spectator")]
    return [cfg]
