"""Hamiltonian schedules, dephasing-noise synthesis, and unit conventions.

Three driven models are provided: a single-qubit sweep J0[a(t) sx + b(t) sz]
with a(t)=t/T, b(t)=1-t/T; a two-qubit exchange sweep whose dynamics live on
the {|01>, |10>} block; and the single-qubit sweep embedded next to an
undriven, z-z-coupled spectator qubit.  The single-qubit schedule states the
drive once; the other two subclass it and state only their sectors.

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
rescales eigenvalues without touching eigenvectors.  `noise_values` is the one
synthesizer.  Every caller samples an arithmetic progression t0 + k h (a run
its half-step grid, the memory solver its fine grid), and on it the sum is
a chirp-z transform (Bluestein's algorithm), evaluated with FFTs of
5-smooth length in tiles of 2^13 components x 2^12 samples and with every
phase reduced exactly in turns.  What depends only on the grid is planned
once and reused by every member of a run.

All reference parameters are quoted in Hz-like numbers; the frequency
convention flag decides whether a quoted value x means x rad/s
("angular-direct") or 2*pi*x rad/s ("hertz").  Calibration against the
reference trajectories fixes angular-direct as the default: under the 2*pi
reading the noise-free sweeps are already adiabatic at the quoted passage
times, which contradicts the reference curves (see README).
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np


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
    """Linear sweep (J0 + c)[a sx + b sz] over total time T, a = t/T, b = b0 (1 - t/T).

    This is the drive of every model: the single qubit is its one sector
    with b0 = 1, a sweep from J0 sz to J0 sx.  The other schedules subclass
    it and state only their dimension, b0 and sectors.
    """

    j0: float
    total_time: float
    convention: FrequencyConvention = DEFAULT_CONVENTION

    dim = 2
    b0 = 1.0
    sectors = (Sector((0, 1)),)

    def __post_init__(self):
        if not (self.total_time > 0.0 and self.j0 > 0.0):
            raise ValueError("T and J0 must be positive")

    @property
    def j0_rad(self) -> float:
        return self.convention.factor * self.j0

    def ab(self, t):
        """Control coefficients (a, b) of the sx and sz terms."""
        x = np.asarray(t) / self.total_time
        return x, self.b0 * (1.0 - x)


@dataclass(frozen=True)
class TwoQubitSchedule(SingleQubitSchedule):
    """Exchange sweep on two qubits; dynamics confined to span{|01>, |10>}.

    The Hamiltonian is J0[a (s1+ s2- + h.c.) + omega (s1z - s2z)/4] with
    s+- = (sx +- i sy)/2, so the exchange term is (s1x s2x + s1y s2y)/2 and
    has unit matrix elements <01|.|10> = <10|.|01> = 1.  On the block
    (|01> -> |0>, |10> -> |1>) it acts as J0[a sx + (omega/2) sz] with
    a = t/T, omega = 1 - t/T.
    """

    dim = 4
    b0 = 0.5
    sectors = (Sector((1, 2)),)


@dataclass(frozen=True)
class SpectatorSchedule(SingleQubitSchedule):
    """Single-qubit sweep with an undriven z-z-coupled spectator qubit.

    j12 is the scalar coupling and omega_spec an optional spectator offset,
    both quoted in the same unit system as J0 and mapped by the convention.
    The underlying coupling operator is j12 * sz(x)sz / 4, whose hertz image
    is the familiar (pi*J12/2) sz(x)sz form, and the offset term is
    omega_spec * I(x)sz.  Both are diagonal in the spectator's sz, so the
    model is two driven-qubit sectors (spectator |0>, then |1>; the full
    state is driven (x) spectator).
    """

    j12: float = 215.0
    omega_spec: float = 0.0

    dim = 4

    def __post_init__(self):
        super().__post_init__()
        if self.j12 < 0.0:
            raise ValueError("j12 must be non-negative")

    @property
    def sectors(self) -> tuple[Sector, ...]:
        f = self.convention.factor
        z, shift = f * self.j12 / 4.0, f * self.omega_spec
        return (Sector((0, 2), z, shift), Sector((1, 3), -z, -shift))


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
    key = np.array([spec.seed & (2**64 - 1), index & (2**64 - 1)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    phases = rng.uniform(0.0, 2.0 * np.pi, spec.n_components)
    phases.setflags(write=False)
    return NoiseRealization(spec=spec, index=index, phases=phases)


#: Tile of the chirp-z sum: components x samples per FFT convolution.
_TILE_COMPONENTS, _TILE_SAMPLES = 2 ** 13, 2 ** 12
#: Most bytes a memoized grid plan (`_chirp_plan`) keeps; the factors of
#: tiles beyond it are rebuilt on every call.
_PLAN_BUDGET = 4 * 2 ** 20
#: 2*pi to 40 digits, so that turn rates carry no float rounding of pi.
_TWO_PI = "6.283185307179586476925286766559005768394"


def noise_values(r: NoiseRealization, t0: float, h: float, count: int) -> np.ndarray:
    """c(t0 + k h) in rad/s for k = 0 .. count - 1.

    The sum is a chirp-z transform in tiles of at most 2^13 components x
    2^12 samples (`_chirp_sum`).  Everything that depends only on the grid
    is planned once and memoized for the latest grid (`_chirp_plan`), so
    the members of an ensemble pay only their own exp(i phi), one FFT pair
    per tile and one accumulation.  The plan keeps at most `_PLAN_BUDGET`
    bytes, and a call's temporaries stay near 2 MB whatever the number of
    components and samples.  A sum that overflows raises FloatingPointError.
    """
    if not (t0 >= 0.0 and h >= 0.0):
        raise ValueError("noise is sampled on t0 + k h with t0 >= 0 and h >= 0")
    if count < 1:
        raise ValueError("noise needs at least one sample")
    spec = r.spec
    values = _chirp_sum(r.phases, _chirp_plan(spec.omega0_rad, spec.n_components, t0, h, count))
    values *= spec.component_scale
    if not np.isfinite(values).all():
        raise FloatingPointError(f"non-finite noise value in realization {r.index}")
    return values


def _turns(rate, m: np.ndarray) -> np.ndarray:
    """rate * m modulo 1, in [-1/2, 1/2], for an exact rate in [0, 1) and integers m >= 0.

    The rate is split as hi + lo with hi on a grid of 2^-s, s = 52 - bits(max m),
    so that hi * m is exact in doubles; only lo * m, at most 2^(2 bits - 53)
    turns, is rounded.  `rate` is a `fractions.Fraction`.
    """
    scale = 2 ** (52 - int(m.max()).bit_length())
    hi = round(rate * scale)
    x = hi / scale * m
    x -= np.round(x)
    x += float((rate * scale - hi) / scale) * m
    return x - np.round(x)


def _smooth_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: a length numpy's FFT handles at full speed."""
    while True:
        rest = n
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return n
        n += 1


def _tile_origins(n: int, count: int):
    """(j0, k0) of every tile: first component (from 1) and first sample, in summation order."""
    for j0 in range(1, n + 1, _TILE_COMPONENTS):
        for k0 in range(0, count, _TILE_SAMPLES):
            yield j0, k0


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _ChirpPlan:
    """Everything of the chirp-z sum on one grid but the phases.

    With a_j = exp(i(phi_j + j omega0 t0)) and w = exp(i omega0 h) the sum is
    Im sum_j a_j w^(jk).  A tile of components j = j0 + p and samples
    k = k0 + q has jk = pq + p k0 + j0 q + j0 k0, and Bluestein's identity
    pq = (p^2 + q^2 - (q - p)^2) / 2 turns its sum over p into one FFT
    convolution with the chirp w^(-m^2/2), whose transform (`inverse_ft`,
    of 5-smooth length `size`) serves every tile.  A tile's input factor
    is w^(p k0) exp(i omega0 t0 j) w^(p^2/2) and its output factor
    w^(j0 q + j0 k0) w^(q^2/2).  Every phase is reduced exactly in turns:
    the rates omega0 h / 2 pi and omega0 t0 / 2 pi are held as fractions
    and multiply integers only, so the result does not lose accuracy at
    large omega t.

    `factors` holds the (input, output) factors of the leading tiles, as
    many as keep the plan within `_PLAN_BUDGET` bytes; `tile_factors`
    builds the others.  Every array is read-only.
    """

    def __init__(self, omega0_rad: float, n: int, t0: float, h: float, count: int):
        from fractions import Fraction  # imported here: runs without noise never need it

        w0 = Fraction(omega0_rad) / Fraction(_TWO_PI)
        self.n, self.count = n, count
        self.rate, self.rate0 = w0 * Fraction(h) % 1, w0 * Fraction(t0) % 1
        cols, rows = min(n, _TILE_COMPONENTS), min(count, _TILE_SAMPLES)
        self.size = _smooth_length(cols + rows - 1)
        m = np.arange(max(cols, rows))
        # w^(m^2/2) at the rate mod 1: an integer added to the rate multiplies the
        # three chirp factors of a term by (-1)^(p^2 + q^2 - (q - p)^2) = 1.
        self.chirp = _frozen(np.exp(2j * np.pi * _turns(self.rate / 2, m * m)))
        # w^(-m^2/2) for m = 1 - cols .. rows - 1, wrapped for a circular convolution.
        inverse = np.zeros(self.size, dtype=complex)
        inverse[:rows] = self.chirp[:rows].conj()
        inverse[self.size - cols + 1:] = self.chirp[cols - 1:0:-1].conj()
        self.inverse_ft = _frozen(np.fft.fft(inverse))
        spare = _PLAN_BUDGET - self.chirp.nbytes - self.inverse_ft.nbytes
        factors = []
        for j0, k0 in _tile_origins(n, count):
            cost = 16 * (min(cols, n + 1 - j0) + min(rows, count - k0))
            if cost > spare:
                break
            spare -= cost
            factors.append(tuple(map(_frozen, self.tile_factors(j0, k0))))
        self.factors = tuple(factors)

    def tile_factors(self, j0: int, k0: int) -> tuple[np.ndarray, np.ndarray]:
        """Input and output factors of the tile at component j0 and sample k0."""
        p = np.arange(min(_TILE_COMPONENTS, self.n + 1 - j0))
        q = np.arange(min(_TILE_SAMPLES, self.count - k0))
        into = _turns(self.rate0, j0 + p) + _turns(self.rate * k0 % 1, p)
        outof = _turns(self.rate * j0 % 1, q) + float(self.rate * j0 * k0 % 1)
        return (np.exp(2j * np.pi * into) * self.chirp[:len(p)],
                np.exp(2j * np.pi * outof) * self.chirp[:len(q)])


@functools.lru_cache(maxsize=1)
def _chirp_plan(omega0_rad: float, n: int, t0: float, h: float, count: int) -> _ChirpPlan:
    """The plan of the latest grid: every member of a run reuses it."""
    return _ChirpPlan(omega0_rad, n, t0, h, count)


def _chirp_sum(phases: np.ndarray, plan: _ChirpPlan) -> np.ndarray:
    """sum_j sin(phi_j + j omega0 (t0 + k h)) for k < count, by tiled chirp-z.

    Per tile: one product with the input factor, one FFT pair and one
    accumulation of the imaginary part after the output factor.  Each
    tile's chain runs in one buffer allocated per call, as do the
    components' exp(i phi): a fresh temporary of a tile's size would be
    mapped, and page-faulted, anew every time.
    """
    out = np.zeros(plan.count)
    a = np.empty(min(plan.n, _TILE_COMPONENTS), dtype=complex)
    buf = np.empty(plan.size, dtype=complex)
    for i, (j0, k0) in enumerate(_tile_origins(plan.n, plan.count)):
        into, outof = plan.factors[i] if i < len(plan.factors) else plan.tile_factors(j0, k0)
        cols = len(into)
        if k0 == 0:
            np.multiply(1j, phases[j0 - 1:j0 - 1 + cols], out=a[:cols])
            np.exp(a[:cols], out=a[:cols])
        np.multiply(a[:cols], into, out=buf[:cols])
        buf[cols:] = 0.0
        np.fft.fft(buf, out=buf)
        buf *= plan.inverse_ft
        np.fft.ifft(buf, out=buf)
        y = buf[:len(outof)]
        y *= outof
        out[k0:k0 + len(outof)] += y.imag
    return out


def _check_time(schedule, t) -> None:
    t = np.asarray(t)
    inside = (0.0 <= t) & (t <= schedule.total_time * (1.0 + 1e-12))
    if not np.all(inside):
        raise ValueError(f"t={t[~inside].flat[0]} outside [0, {schedule.total_time}]")


def sector_states(schedule, state) -> np.ndarray:
    """Amplitudes of a full state on each sector, shape (n_sectors, 2)."""
    return np.asarray(state, dtype=complex)[np.array([sec.indices for sec in schedule.sectors])]
