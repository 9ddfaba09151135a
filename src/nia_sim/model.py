"""Hamiltonian schedules, dephasing-noise synthesis, and unit conventions.

Three driven models are provided: a single-qubit sweep J0[a(t) sx + b(t) sz]
with a(t)=t/T, b(t)=1-t/T; a two-qubit exchange sweep whose dynamics live on
the {|01>, |10>} block; and the single-qubit sweep embedded next to an
undriven, z-z-coupled spectator qubit.

Each model is an exact sum of 2x2 sectors (`Sector`): on every sector the
Hamiltonian is the drive (J0 + c)[a sx + b sz] plus a constant offset.  The
single qubit is one sector.  The pair sweep is one sector, its
{|01>, |10>} block; the Hamiltonian annihilates |00> and |11>.  The
spectator model is diagonal in the spectator's sz, so it splits into two
sectors, one per spectator level, offset by +-J12/4 on sz and +-omega_spec
on the identity.

The synthesized noise c(t) is a sum of N equal-amplitude sinusoids at
harmonics of a base frequency with independent uniform phases.  It enters
the dynamics only as a scalar multiplier on the characteristic energy, so it
rescales eigenvalues without touching eigenvectors.

All reference parameters are quoted in Hz-like numbers; the frequency
convention flag decides whether a quoted value x means x rad/s
("angular-direct") or 2*pi*x rad/s ("hertz").  Calibration against the
reference trajectories fixes angular-direct as the default: under the 2*pi
reading the noise-free sweeps are already adiabatic at the quoted passage
times, which contradicts the reference curves (see README).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .smallmat import SIGMA_X, SIGMA_Z

_IDENTITY = np.eye(2, dtype=complex)


class FrequencyConvention(enum.Enum):
    """How quoted frequency parameters map to angular frequencies."""

    ANGULAR_DIRECT = "angular"  # quoted value used as rad/s
    HERTZ = "hertz"             # quoted value multiplied by 2*pi

    @property
    def factor(self) -> float:
        return 1.0 if self is FrequencyConvention.ANGULAR_DIRECT else 2.0 * np.pi


#: Frozen default, fixed by the trajectory-level calibration runs.
DEFAULT_CONVENTION = FrequencyConvention.ANGULAR_DIRECT


class NoiseNormalization(enum.Enum):
    LITERAL = "literal"    # per-component amplitude alpha, RMS alpha*sqrt(N/2)
    UNIT_RMS = "unit-rms"  # components scaled by sqrt(2/N) so process RMS is alpha


@dataclass(frozen=True)
class Sector:
    """One exact two-level block of a model's Hamiltonian.

    `indices` are the positions of the driven qubit's |0> and |1> in the
    full state; on the block the Hamiltonian is the drive plus
    z_offset * sz + shift * I, both in rad/s.
    """

    indices: tuple[int, int]
    z_offset: float = 0.0
    shift: float = 0.0


@dataclass(frozen=True)
class SingleQubitSchedule:
    """Linear sweep from J0*sz to J0*sx over total time T."""

    j0: float
    total_time: float
    convention: FrequencyConvention = DEFAULT_CONVENTION

    def __post_init__(self):
        if not (self.total_time > 0.0 and self.j0 > 0.0):
            raise ValueError("T and J0 must be positive")

    @property
    def dim(self) -> int:
        return 2

    @property
    def sectors(self) -> tuple[Sector, ...]:
        return (Sector((0, 1)),)

    @property
    def j0_rad(self) -> float:
        return self.convention.factor * self.j0

    def ab(self, t):
        """Control coefficients (a, b) of the sx and sz terms."""
        x = np.asarray(t) / self.total_time
        return x, 1.0 - x

    def ab_dot(self, t):
        return 1.0 / self.total_time, -1.0 / self.total_time


@dataclass(frozen=True)
class TwoQubitSchedule:
    """Exchange sweep on two qubits; dynamics confined to span{|01>, |10>}.

    The Hamiltonian is J0[a (s1+ s2- + h.c.) + omega (s1z - s2z)/4] with
    s+- = (sx +- i sy)/2, so the exchange term is (s1x s2x + s1y s2y)/2 and
    has unit matrix elements <01|.|10> = <10|.|01> = 1.  On the block
    (|01> -> |0>, |10> -> |1>) it acts as J0[a sx + (omega/2) sz] with
    a = t/T, omega = 1 - t/T.
    """

    j0: float
    total_time: float
    convention: FrequencyConvention = DEFAULT_CONVENTION

    def __post_init__(self):
        if not (self.total_time > 0.0 and self.j0 > 0.0):
            raise ValueError("T and J0 must be positive")

    @property
    def dim(self) -> int:
        return 4

    @property
    def sectors(self) -> tuple[Sector, ...]:
        return (Sector((1, 2)),)

    @property
    def j0_rad(self) -> float:
        return self.convention.factor * self.j0

    def ab(self, t):
        """Effective two-level (a, b) coefficients on the block."""
        x = np.asarray(t) / self.total_time
        return x, 0.5 * (1.0 - x)

    def ab_dot(self, t):
        return 1.0 / self.total_time, -0.5 / self.total_time


@dataclass(frozen=True)
class SpectatorSchedule:
    """Single-qubit sweep with an undriven z-z-coupled spectator qubit.

    j12 is the scalar coupling and omega_spec an optional spectator offset,
    both quoted in the same unit system as J0 and mapped by the convention.
    The underlying coupling operator is j12 * sz(x)sz / 4, whose hertz image
    is the familiar (pi*J12/2) sz(x)sz form, and the offset term is
    omega_spec * I(x)sz.  Both are diagonal in the spectator's sz, so the
    model is two driven-qubit sectors (spectator |0>, then |1>; the full
    state is driven (x) spectator).
    """

    base: SingleQubitSchedule
    j12: float = 215.0
    omega_spec: float = 0.0

    def __post_init__(self):
        if self.j12 < 0.0:
            raise ValueError("j12 must be non-negative")

    @property
    def dim(self) -> int:
        return 4

    @property
    def sectors(self) -> tuple[Sector, ...]:
        f = self.convention.factor
        z, shift = f * self.j12 / 4.0, f * self.omega_spec
        return (Sector((0, 2), z, shift), Sector((1, 3), -z, -shift))

    @property
    def j0_rad(self) -> float:
        return self.base.j0_rad

    @property
    def total_time(self) -> float:
        return self.base.total_time

    @property
    def convention(self) -> FrequencyConvention:
        return self.base.convention

    def ab(self, t):
        return self.base.ab(t)

    def ab_dot(self, t):
        return self.base.ab_dot(t)


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of the synthesized dephasing process.

    amplitude, omega0 and omega_cut are quoted in the run's unit convention;
    N = floor(omega_cut / omega0) components are used.
    """

    amplitude: float
    omega0: float
    omega_cut: float
    normalization: NoiseNormalization = NoiseNormalization.LITERAL
    seed: int = 0
    convention: FrequencyConvention = DEFAULT_CONVENTION

    def __post_init__(self):
        if not (self.omega0 > 0.0 and self.omega_cut >= self.omega0):
            raise ValueError("need omega_cut >= omega0 > 0")
        if self.n_components < 1:
            raise ValueError("need at least one noise component")

    @property
    def n_components(self) -> int:
        return int(np.floor(self.omega_cut / self.omega0))

    @property
    def component_scale(self) -> float:
        """Per-component amplitude in rad/s, including the normalization."""
        amp = self.convention.factor * self.amplitude
        if self.normalization is NoiseNormalization.UNIT_RMS:
            amp *= np.sqrt(2.0 / self.n_components)
        return amp

    @property
    def omega0_rad(self) -> float:
        return self.convention.factor * self.omega0

    @property
    def omega_cut_rad(self) -> float:
        return self.convention.factor * self.omega_cut


@dataclass(frozen=True)
class NoiseRealization:
    """One frozen sample path: a spec plus its N random phases."""

    spec: NoiseSpec
    index: int
    phases: np.ndarray = field(repr=False)


def realize_noise(spec: NoiseSpec, index: int = 0) -> NoiseRealization:
    """Draw the phases for realization `index` of `spec`.

    Philox is counter-based and keyed on (seed, index), so realizations are
    reproducible across platforms and independent of draw order.
    """
    rng = np.random.Generator(np.random.Philox(key=[spec.seed & (2**64 - 1), index & (2**64 - 1)]))
    phases = rng.uniform(0.0, 2.0 * np.pi, spec.n_components)
    phases.setflags(write=False)
    return NoiseRealization(spec=spec, index=index, phases=phases)


def noise_values(r: NoiseRealization, times, chunk: int = 4096) -> np.ndarray:
    """Vectorized c(t) in rad/s on an array of sample times."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0.0):
        raise ValueError("noise is defined for t >= 0")
    spec = r.spec
    amp = spec.component_scale
    w0 = spec.omega0_rad
    n = spec.n_components
    out = np.zeros(times.shape[0])
    j = np.arange(1, n + 1, dtype=float)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        out += np.sin(np.outer(times, j[lo:hi] * w0) + r.phases[lo:hi]).sum(axis=1)
    return amp * out


def _check_time(schedule, t) -> None:
    t = np.asarray(t)
    inside = (0.0 <= t) & (t <= schedule.total_time * (1.0 + 1e-12))
    if not np.all(inside):
        raise ValueError(f"t={t[~inside].flat[0]} outside [0, {schedule.total_time}]")


def h_single(s, t, c=0.0) -> np.ndarray:
    """(J0 + c) [a(t) sx + b(t) sz], with c already in rad/s.

    This is the single-qubit Hamiltonian and the drive on every sector of
    the other schedules.  Times t and noise values c broadcast against each
    other; the result has their broadcast shape + (2, 2).
    """
    _check_time(s, t)
    a, b = s.ab(t)
    direction = np.multiply.outer(a, SIGMA_X) + np.multiply.outer(b, SIGMA_Z)
    return (s.j0_rad + np.asarray(c))[..., None, None] * direction


def h_sectors(schedule, t, c=0.0) -> np.ndarray:
    """Hamiltonian on each sector of `schedule`, broadcast shape of t and c + (n_sectors, 2, 2)."""
    offsets = np.array([sec.z_offset * SIGMA_Z for sec in schedule.sectors])
    shifts = np.array([sec.shift * _IDENTITY for sec in schedule.sectors])
    return h_single(schedule, t, c)[..., None, :, :] + offsets + shifts


def sector_states(schedule, state) -> np.ndarray:
    """Amplitudes of a full state on each sector, shape (n_sectors, 2)."""
    return np.asarray(state, dtype=complex)[np.array([sec.indices for sec in schedule.sectors])]


def psd_estimate(spec: NoiseSpec, n_realizations: int, duration: float, dt: float):
    """Ensemble-averaged one-sided periodogram of sampled noise paths.

    Returns (angular frequencies rad/s, power density).  dt must resolve the
    cutoff (dt < pi / omega_cut) or the estimate would alias.
    """
    if n_realizations < 1:
        raise ValueError("need n_realizations >= 1")
    if not dt < np.pi / spec.omega_cut_rad:
        raise ValueError("dt too coarse: aliasing above the cutoff frequency")
    n = int(round(duration / dt))
    if n < 8:
        raise ValueError("duration too short for a periodogram")
    times = np.arange(n) * dt
    acc = np.zeros(n // 2 + 1)
    for m in range(n_realizations):
        c = noise_values(realize_noise(spec, m), times)
        spectrum = np.fft.rfft(c)
        psd = (dt / n) * np.abs(spectrum) ** 2
        psd[1:-1] *= 2.0  # fold negative frequencies (one-sided)
        acc += psd
    acc /= n_realizations
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, dt)
    return omega, acc
