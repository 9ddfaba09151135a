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

import cmath
import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from importlib import resources

from .model import (DEFAULT_CONVENTION, FrequencyConvention, NoiseNormalization,
                    NoiseSpec, SingleQubitSchedule, SpectatorSchedule,
                    TwoQubitSchedule)

MODES = ("simulate", "ensemble", "sweep", "kernel", "pulse-export",
         "oracle-check", "spectator-check")
SYSTEMS = ("single", "pair", "spectator")
INITIAL_PRESETS = ("zero", "one", "plus", "pair01")
SWEEPABLE = ("T", "J0", "noise.amplitude", "noise.omega_cut", "J12")

PRESET_NAMES = ("fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b")

#: Most noise components N = floor(omega_cut / omega0) a run may ask for:
#: 400 times fig4b's 25 000, and 80 MB of random phases per realization.
MAX_NOISE_COMPONENTS = 10**7
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
        if self.system == "single":
            return SingleQubitSchedule(j0=self.j0, total_time=self.total_time,
                                       convention=conv)
        if self.system == "pair":
            return TwoQubitSchedule(j0=self.j0, total_time=self.total_time,
                                    convention=conv)
        base = SingleQubitSchedule(j0=self.j0, total_time=self.total_time,
                                   convention=conv)
        return SpectatorSchedule(base=base, j12=self.j12, omega_spec=self.omega_spec)

    def effective_initial(self) -> str:
        if self.initial_state:
            return self.initial_state
        return "pair01" if self.system == "pair" else "zero"


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
    import os

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
    not block execution.
    """
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
    init = cfg.effective_initial()
    if init not in INITIAL_PRESETS:
        amps = _explicit_amplitudes(init)
        if amps is None:
            bad.append("initial_state must be a named preset or comma-separated amplitudes")
        elif not all(cmath.isfinite(amp) for amp in amps):
            bad.append("initial_state amplitudes must be finite")
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
    if cfg.mode in ("pulse-export", "spectator-check") and cfg.system == "pair":
        bad.append(f"{cfg.mode} mode requires a two-level driven system")

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


def _explicit_amplitudes(text: str) -> list[complex] | None:
    """Comma-separated complex amplitudes, or None if text is not such a list."""
    if "," not in text:
        return None
    try:
        return [complex(part) for part in text.split(",")]
    except ValueError:
        return None


def apply_sweep_value(cfg: RunConfig, value: float) -> RunConfig:
    """Copy of cfg with the swept parameter replaced by one sweep value."""
    return replace(cfg, **{_KEY_TO_FIELD[cfg.sweep_parameter]: value})
