"""Run configuration: flat key-value files, overrides, validation, presets.

Config files are UTF-8 `key = value` lines with `#` comments and dotted
keys (`noise.amplitude`).  The exact key list is the RunConfig field list:
a field's key is its name, or the `key` of its metadata (`T` for
`total_time`).  Unknown keys are rejected rather than ignored so typos
cannot silently change an experiment.  Values are coerced at build time;
physical constraints are checked by `validate`, which never throws and
returns a list of human-readable violations (entries prefixed "warning:"
do not block a run).
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields, replace
from importlib import resources

import numpy as np

from .model import (DEFAULT_CONVENTION, FrequencyConvention, NoiseNormalization,
                    NoiseSpec, SingleQubitSchedule, SpectatorSchedule,
                    TwoQubitSchedule)

MODES = ("simulate", "ensemble", "sweep", "kernel", "pulse-export",
         "oracle-check", "spectator-check")
# The schedule class of each system, which states its dimension.
_SCHEDULES = {"single": SingleQubitSchedule, "pair": TwoQubitSchedule,
              "spectator": SpectatorSchedule}
SYSTEMS = tuple(_SCHEDULES)
SWEEPABLE = ("T", "J0", "noise.amplitude", "noise.omega_cut", "J12")

PRESET_NAMES = ("fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b")

#: Most noise components N = floor(omega_cut / omega0) a run may ask for:
#: 400 times fig4b's 25 000.  A realization's phases take 8 B per component,
#: 80 MB at the cap, and an ensemble holds one realization at a time.
MAX_NOISE_COMPONENTS = 10**7
#: Most member-steps, ceil(T/dt) times the members run together, a run may
#: ask for.  A run holds every member's noise, 16 B per member-step (up to
#: 24 B while the members' rows gather).  An ensemble reduces its records
#: over the members run by run; a trajectory keeps, per member-record, the
#: states and the metrics made from them: 85 B at the peak on one sector
#: and 117 B on two (traced).  Recording every step at the cap, 2000 fig3d
#: members peak at 19.9 MiB traced and 67 MiB max RSS, and as spectator
#: runs at 22.0 MiB traced; fig4b's 100 members x 1000 steps is a tenth of
#: the cap.
MAX_MEMBER_STEPS = 10**6
#: Most kernel.points: a memory solve peaks at about 220 B per grid point
#: with noise and 200 B without (tracemalloc, 200 001 points), 220 MB at
#: the cap.
MAX_KERNEL_POINTS = 10**6
#: Largest worst-case rotation of one step, in rad.  A step's phase theta
#: is rounded to about theta 2^-53, and the engines are held to agree to
#: 1e-12, so theta may not exceed 1e-12 * 2^53, about 9000 rad: 2^13.
#: fig4b's worst case, all 25 000 noise components in phase, is 250 rad.
MAX_STEP_ROTATION = 2.0**13
#: Largest worst-case rotation of one substep of the oracle-check's
#: Runge-Kutta integration (dt/10, the substeps whose transfer matrices
#: `evolve._rk4_step` composes), in rad: RK4 is stable on the imaginary
#: axis up to |h lambda| = 2 sqrt(2).
MAX_RK4_SUBSTEP_ROTATION = 2.0 * math.sqrt(2.0)
# Keys that say where and how a run is written, not what it computes.
_UNHASHED_KEYS = ("out", "timestamps")


class ConfigError(ValueError):
    """Malformed config input: unknown key, bad syntax, or uncoercible value."""


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of a run, one field per config key.

    A field's key is its name, or the `key` of its metadata where the two
    differ.  The key maps and `validate`'s finiteness check derive from
    these fields, so a new field needs no other edit to be read and checked.
    """

    mode: str = "simulate"
    system: str = "single"
    total_time: float = field(default=0.0005, metadata={"key": "T"})
    dt: float = 1e-6
    j0: float = field(default=4000.0, metadata={"key": "J0"})
    convention: str = DEFAULT_CONVENTION.value
    realizations: int = 1
    initial_state: str = ""             # empty: per-system default
    store_every: int = 1
    timestamps: bool = True
    out: str = "."
    noise_amplitude: float | None = field(default=None, metadata={"key": "noise.amplitude"})
    noise_omega0: float = field(default=1.0, metadata={"key": "noise.omega0"})
    noise_omega_cut: float | None = field(default=None, metadata={"key": "noise.omega_cut"})
    noise_normalization: str = field(default="literal",
                                     metadata={"key": "noise.normalization"})
    noise_seed: int | None = field(default=None, metadata={"key": "noise.seed"})
    j12: float = field(default=215.0, metadata={"key": "J12"})
    omega_spec: float = 0.0
    sweep_parameter: str = field(default="", metadata={"key": "sweep.parameter"})
    sweep_values: tuple = field(default=(), metadata={"key": "sweep.values"})  # comma list
    kernel_points: int = field(default=1000, metadata={"key": "kernel.points"})

    @property
    def has_noise(self) -> bool:
        return self.noise_amplitude is not None

    @property
    def draws_noise(self) -> bool:
        """Whether a run realizes and synthesizes noise: a nonzero amplitude.

        Zero is the noise-free point, although `has_noise` still holds: the
        noise keys are still checked and the realizations still counted.
        """
        return bool(self.noise_amplitude)

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
        drive = {"j0": self.j0, "total_time": self.total_time,
                 "convention": self.frequency_convention()}
        if self.system == "spectator":
            return SpectatorSchedule(**drive, j12=self.j12, omega_spec=self.omega_spec)
        return _SCHEDULES[self.system](**drive)

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
        dim = _SCHEDULES[self.system].dim
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


# key name in files <-> RunConfig field name, in field order
_KEY_TO_FIELD = {f.metadata.get("key", f.name): f.name for f in fields(RunConfig)}
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
    check is checked too; what only a sweep run violates or warns of names
    its value.
    """
    bad = _violations(cfg)
    if cfg.mode == "spectator-check":
        for run in runs(cfg):
            bad += [v for v in blocking(_violations(run)) if v not in bad]
    if cfg.mode == "sweep" and cfg.sweep_parameter in SWEEPABLE:
        for value, run in zip(cfg.sweep_values, runs(cfg)):
            bad += [v.replace("warning: ", f"warning: sweep value {value:g}: ", 1)
                    if v.startswith("warning:") else f"sweep value {value:g}: {v}"
                    for v in _violations(run) if v not in bad]
    return bad


def _violations(cfg: RunConfig) -> list[str]:
    bad = []
    for name, key in _FIELD_TO_KEY.items():
        value = getattr(cfg, name)
        if isinstance(value, float) and not math.isfinite(value):
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
        if cfg.sweep_parameter == "J12" and cfg.system != "spectator":
            bad.append("sweeping J12 requires system = spectator")
    if cfg.mode == "kernel" and cfg.system == "spectator":
        bad.append("kernel mode requires system = single or pair")
    if cfg.mode == "kernel" and cfg.kernel_points < 500:
        bad.append("kernel.points must be >= 500")
    if cfg.mode == "kernel" and cfg.kernel_points > MAX_KERNEL_POINTS:
        bad.append(f"kernel.points must be <= {MAX_KERNEL_POINTS}")
    if cfg.mode == "spectator-check" and cfg.system == "pair":
        bad.append("spectator-check mode requires a two-level driven system")
    if cfg.mode == "pulse-export" and cfg.system != "single":
        bad.append("pulse-export mode requires system = single")

    if not bad:
        # A step turns a sector state by at most its step times the largest
        # field: the drive J0 with every noise component in phase, plus the
        # largest sector offset |z_offset| + |shift|.  Beyond MAX_STEP_ROTATION
        # no step resolves the run; below it, the typical field (noise at its
        # RMS) only warns.  Products of huge finite inputs round to inf, as
        # Python floats and so without a warning, and are refused.
        schedule = cfg.schedule()
        kernel = cfg.mode == "kernel"
        if kernel and cfg.initial_vector()[schedule.sectors[0].indices[1]] != 0.0:
            bad.append("kernel mode solves only the level that starts in |0> (|01> for"
                       " the pair); initial_state must have no other amplitude")
        f = cfg.frequency_convention().factor
        worst = typical = f * cfg.j0
        worst += max(abs(sec.z_offset) + abs(sec.shift) for sec in schedule.sectors)
        if cfg.has_noise:
            spec = cfg.noise_spec()
            worst += float(spec.component_scale) * spec.n_components
            typical += spec.component_scale * (spec.n_components / 2.0) ** 0.5
        # The memory solver steps on np.linspace(0, T, kernel.points), exactly
        # T / (kernel.points - 1) apart; the engines step by dt.
        step = cfg.total_time / (cfg.kernel_points - 1) if kernel else cfg.dt
        if step * worst > MAX_STEP_ROTATION:
            bad.append(f"a step of {step:.3g} s may turn the state by {step * worst:.3g} rad,"
                       f" more than the {MAX_STEP_ROTATION:g} rad whose rounding stays"
                       " below 1e-12; lower the step, J0 or the noise")
        elif cfg.mode == "oracle-check" and step / 10.0 * worst > MAX_RK4_SUBSTEP_ROTATION:
            bad.append(f"an oracle substep of {step / 10.0:.3g} s may turn the state by"
                       f" {step / 10.0 * worst:.3g} rad, more than the"
                       f" {MAX_RK4_SUBSTEP_ROTATION:.3g} rad at which Runge-Kutta turns"
                       " unstable; lower dt, J0 or the noise")
        # The memory solver's own limits: the grid resolves the noise cutoff,
        # and, as k <= 1 on every schedule, the drive alone turns the kernel
        # phase by up to 2 f J0 per unit time, with noise or without.
        elif kernel and cfg.has_noise and spec.omega_cut_rad * step > 0.5 * math.pi:
            bad.append(f"a memory-grid step of {step:.3g} s does not resolve noise.omega_cut:"
                       f" omega_cut times the step is {spec.omega_cut_rad * step:.3g} rad,"
                       " more than pi/2; raise kernel.points")
        elif kernel and 2.0 * f * cfg.j0 * step > 0.5:
            bad.append(f"a memory-grid step of {step:.3g} s may turn the kernel phase by"
                       f" {2.0 * f * cfg.j0 * step:.3g} rad, more than 0.5 rad;"
                       " raise kernel.points or lower J0")
        elif step * typical > 0.5:
            what = "the memory-grid step" if kernel else "dt"
            bad.append(f"warning: {what} times the typical field magnitude exceeds 0.5 rad;"
                       " the step evolution may be under-resolved")
        # The engines sample the noise at the step midpoints, dt apart: past
        # their Nyquist limit, omega_cut dt = pi, the samples alias the noise.
        if not kernel and cfg.draws_noise and spec.omega_cut_rad * step > math.pi:
            bad.append(f"warning: noise.omega_cut times dt is {spec.omega_cut_rad * step:.3g}"
                       " rad, more than pi; the step midpoints alias the noise")
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
