"""Hamiltonian schedules and dephasing-noise synthesis, in rad/s.

Three driven models are provided: a single-qubit sweep J0[a(t) sx + b(t) sz]
with a(t)=t/T, b(t)=1-t/T; a two-qubit exchange sweep whose dynamics live on
the {|01>, |10>} block; and the single-qubit sweep embedded next to an
undriven, z-z-coupled spectator qubit.  The single-qubit schedule states the
drive once; the other two subclass it and state only their sectors.

Each model is an exact sum of 2x2 sectors (`Sector`): on every sector the
Hamiltonian is the drive (J0 + c)[a sx + b sz] plus a constant sz offset.  The
single qubit is one sector.  The pair sweep is one sector, its
{|01>, |10>} block; the Hamiltonian annihilates |00> and |11>.  The
spectator model is diagonal in the spectator's sz, so it splits into two
sectors, one per spectator level, offset by +-J12/4 on sz.

The synthesized noise c(t) is a sum of N equal-amplitude sinusoids at
harmonics of a base frequency with independent uniform phases.  It enters
the dynamics only as a scalar multiplier on the characteristic energy, so it
rescales eigenvalues without touching eigenvectors.  `noise_values` is the one
synthesizer.  Every caller samples an arithmetic progression t0 + k h (a run
its half-step grid, the memory solver its fine grid), and on it the sum has
two exact representations, chosen by the grid.  On a short window, where
the fastest component turns at most Z = N omega0 (count - 1) h / 2 <= 2.5
rad either side of the centre (fig3d's runs and the memory solver's grid,
Z = 1.25), it is a Taylor series in the time from the centre, summed from
the phases' moments.  On every other grid it is a chirp-z transform
(Bluestein's algorithm), evaluated with FFTs of 5-smooth length in tiles of
2^13 components x 2^12 samples.  Every phase, from the draw to the
exponential, is in turns (fractions of a cycle), so each is reduced exactly
and none is scaled by 2*pi.  What depends only on the grid is planned once
and reused by every member of a run, so a member costs its own
exp(2 pi i phi) (a table of roots of unity and a short series) and either
one small matrix product (moments) or one forward FFT per tile and one
inverse FFT per sample tile (chirp-z).

Every parameter of a model object is physical: frequencies and couplings
in rad/s, times in s.  How a quoted Hz-like number maps to rad/s is read
once, by `config.RunConfig`.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np


class NoiseNormalization(enum.Enum):
    LITERAL = "literal"    # per-component amplitude alpha, RMS alpha*sqrt(N/2)
    UNIT_RMS = "unit-rms"  # components scaled by sqrt(2/N) so process RMS is alpha


@dataclass(frozen=True)
class Sector:
    """One exact two-level block of a model's Hamiltonian.

    `indices` are the positions of the driven qubit's |0> and |1> in the
    full state; on the block the Hamiltonian is the drive plus
    z_offset * sz, in rad/s.
    """

    indices: tuple[int, int]
    z_offset: float = 0.0


@dataclass(frozen=True)
class SingleQubitSchedule:
    """Linear sweep (J0 + c)[a sx + b sz] over total time T, a = t/T, b = b0 (1 - t/T).

    This is the drive of every model: the single qubit is its one sector
    with b0 = 1, a sweep from J0 sz to J0 sx.  The other schedules subclass
    it and state only their dimension, b0 and sectors.  j0 is in rad/s.
    """

    j0: float
    total_time: float

    dim = 2
    b0 = 1.0
    sectors = (Sector((0, 1)),)

    def __post_init__(self):
        if not (self.total_time > 0.0 and self.j0 > 0.0):
            raise ValueError("T and J0 must be positive")

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

    j12 is the scalar coupling in rad/s, like j0.  The coupling operator is
    j12 * sz(x)sz / 4; for a J12 quoted in Hz (j12 = 2 pi J12) it is the
    familiar (pi*J12/2) sz(x)sz form.  It is diagonal in the spectator's sz,
    so the model is two driven-qubit sectors (spectator |0>, then |1>; the
    full state is driven (x) spectator).  The spectator is taken in its own rotating
    frame: its offset term I(x)sz commutes with the whole Hamiltonian and
    leaves the driven qubit's reduced state, every output, unchanged.
    """

    j12: float = 215.0

    dim = 4

    def __post_init__(self):
        super().__post_init__()
        if self.j12 < 0.0:
            raise ValueError("j12 must be non-negative")

    @property
    def sectors(self) -> tuple[Sector, ...]:
        z = self.j12 / 4.0
        return (Sector((0, 2), z), Sector((1, 3), -z))


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of the synthesized dephasing process, in rad/s.

    c(t) = amplitude * sum_j sin(j omega0 t + 2 pi phi_j), j = 1 .. n_components:
    `amplitude` is each component's, so the process RMS is
    amplitude sqrt(n_components / 2), and the top frequency is
    n_components * omega0.

    Built from its cutoff instead, it takes n_components = floor(omega_cut /
    omega0); under UNIT_RMS `normalization` the amplitude given is the
    process RMS, and it stores that times sqrt(2 / n_components).
    """

    amplitude: float
    omega0: float
    n_components: int | None = None
    seed: int = 0
    _: KW_ONLY
    omega_cut: InitVar[float | None] = None
    normalization: InitVar[NoiseNormalization] = NoiseNormalization.LITERAL

    def __post_init__(self, omega_cut, normalization):
        if not self.omega0 > 0.0:
            raise ValueError("need omega0 > 0")
        if self.n_components is None:
            if omega_cut is None:
                raise ValueError("need n_components or omega_cut")
            object.__setattr__(self, "n_components", int(np.floor(omega_cut / self.omega0)))
        if self.n_components < 1:
            raise ValueError("need at least one noise component")
        if normalization is NoiseNormalization.UNIT_RMS:
            object.__setattr__(self, "amplitude",
                               self.amplitude * np.sqrt(2.0 / self.n_components))


@dataclass(frozen=True)
class NoiseRealization:
    """One frozen sample path: a spec plus its N random phases, in turns in [0, 1)."""

    spec: NoiseSpec
    index: int
    phases: np.ndarray = field(repr=False)


def realize_noise(spec: NoiseSpec, index: int = 0) -> NoiseRealization:
    """Draw the phases, in turns in [0, 1), for realization `index` of `spec`.

    Philox is counter-based and keyed on (seed, index), so realizations are
    reproducible across platforms and independent of draw order.  2 pi times
    the phases equals the same generator's uniform(0, 2 pi) bit for bit, so
    a seed names the same noise path as a draw in radians.
    """
    key = np.array([spec.seed & (2**64 - 1), index & (2**64 - 1)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    phases = rng.random(spec.n_components)
    phases.setflags(write=False)
    return NoiseRealization(spec=spec, index=index, phases=phases)


#: Tile of the chirp-z sum: components x samples per FFT convolution.
_TILE_COMPONENTS, _TILE_SAMPLES = 2 ** 13, 2 ** 12
#: Most bytes a memoized grid plan (`_grid_plan`) keeps in factors; a moment
#: plan must fit, and a chirp plan's tiles beyond it are rebuilt on every call.
_PLAN_BUDGET = 4 * 2 ** 20
#: Widest Taylor reach Z, in rad, that the moment sum takes.  Its rounding
#: grows like e^Z: against the exact reference at N = 5000, 8.5e-16 of the
#: RMS at Z = 2.4, 6.5e-15 at 4.8 and 4.7e-13 at 9.5 (chirp-z: 1.4e-15).
_MOMENT_REACH = 2.5
#: Components per block of the moment sum's powers.
_MOMENT_BLOCK = 2 ** 9
#: 2*pi to 40 digits, so that turn rates carry no float rounding of pi.
_TWO_PI = "6.283185307179586476925286766559005768394"
#: Entries of `_expi`'s table of roots of unity.
_ROOTS = 2 ** 10


def noise_values(r: NoiseRealization, t0: float, h: float, count: int) -> np.ndarray:
    """c(t0 + k h) in rad/s for k = 0 .. count - 1.

    The grid picks one of two exact sums.  On a short window, where the
    fastest component turns at most Z = N omega0 (count - 1) h / 2 <= 2.5 rad
    either side of the centre, c is a Taylor series in the time from the
    centre, summed from the phases' moments (`_MomentPlan`): one matrix
    product and no FFT.  Every other grid is a chirp-z transform in tiles
    of at most 2^13 components x 2^12 samples (`_ChirpPlan`).  Everything
    that depends only on the grid is planned once and memoized for the
    latest grid (`_grid_plan`), so the members of an ensemble pay only
    their own exp(2 pi i phi) (`_expi` of the phases in turns: a table and
    a short series) and, on the chirp-z path, one forward FFT per tile and
    one inverse FFT per sample tile, in scratch that the plan owns.  The
    plan keeps at most `_PLAN_BUDGET` bytes of factors besides that
    scratch, and a call's temporaries stay near 2 MB whatever the number
    of components and samples.  A sum that overflows raises
    FloatingPointError.
    """
    if not (t0 >= 0.0 and h >= 0.0):
        raise ValueError("noise is sampled on t0 + k h with t0 >= 0 and h >= 0")
    if count < 1:
        raise ValueError("noise needs at least one sample")
    spec = r.spec
    values = _grid_plan(spec.omega0, spec.n_components, t0, h, count).sum(r.phases)
    values *= spec.amplitude
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


@functools.cache
def _unit_roots() -> np.ndarray:
    """`_expi`'s table exp(2 pi i m / 2^10), from long-double sines.

    Built on first use, so that importing the package computes nothing.
    """
    angles = np.arange(_ROOTS) * (np.longdouble(_TWO_PI) / _ROOTS)
    roots = np.empty(_ROOTS, dtype=complex)
    roots.real, roots.imag = np.cos(angles), np.sin(angles)
    return _frozen(roots)


def _expi(turns: np.ndarray, out: np.ndarray, work) -> np.ndarray:
    """exp(2 pi i turns) into `out`; about 3x faster than np.exp.

    2^10 turns = m + r with integer m and |r| <= 1/2; the scaling and the
    subtraction are exact, so the only rounding before the series is that
    of delta = r 2pi/2^10, |delta| <= pi/2^10.  The result is the table's
    root m times 1 + (cos delta - 1) + i sin delta, the series taken to
    delta^4 and delta^5 (next terms below 2e-18).  Within 1.5e-16 of a
    long-double exp(2 pi i turns) for any |turns| < 2^53, where m still
    fits the intp cast (np.exp: 7.9e-17).  `work` is three float, one intp
    and one complex scratch array, each at least len(turns) long.
    """
    roots = _unit_roots()
    n = len(turns)
    m, delta, sine, index, root = (a[:n] for a in work)
    np.multiply(turns, _ROOTS, out=delta)
    np.rint(delta, out=m)
    np.copyto(index, m, casting="unsafe")
    np.bitwise_and(index, _ROOTS - 1, out=index)
    np.take(roots, index, out=root, mode="clip")  # "raise" would buffer `out`
    delta -= m
    delta *= 2.0 * np.pi / _ROOTS
    square = np.multiply(delta, delta, out=m)
    np.multiply(square, 1 / 120, out=sine)
    sine -= 1 / 6
    sine *= square
    sine += 1.0
    sine *= delta
    cosine = np.multiply(square, 1 / 24, out=delta)  # minus 1
    cosine -= 0.5
    cosine *= square
    out.real, out.imag = cosine, sine
    out *= root
    out += root
    return out


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
    for k0 in range(0, count, _TILE_SAMPLES):
        for j0 in range(1, n + 1, _TILE_COMPONENTS):
            yield j0, k0


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _ChirpPlan:
    """Everything of the chirp-z sum on one grid but the phases, and the scratch of a call.

    With a_j = exp(i(2 pi phi_j + j omega0 t0)), phi_j the phases in turns,
    and w = exp(i omega0 h) the sum is Im sum_j a_j w^(jk).  In a tile of
    samples k = k0 + q, Bluestein's identity jq = (j^2 + q^2 - (q - j)^2) / 2
    on the global component index j = j0 + p, with j^2 and (q - j)^2
    expanded around j0 (the j0^2 terms cancel), gives
        w^(jk) = w^(j k0 + p^2/2 + j0 p) w^(m j0 - m^2/2) w^(q^2/2),  m = q - p.
    A tile's sum over p is thus one FFT convolution of length `size`
    (5-smooth) with a lag kernel that depends on j0 alone; the output
    factor w^(q^2/2) (`outof`) is common to every component tile, so the
    spectra of a sample tile's component tiles are summed and inverted
    once.  The input factor's phase, with omega0 t0 j, is added to phi_j
    before the exponential.  Every phase of the plan is in turns and
    reduced exactly: the rates omega0 h / 2 pi and omega0 t0 / 2 pi are held
    as fractions, and their products with j0 and k0 are reduced before they
    multiply arrays.

    `kernels` holds the kernel transforms of the leading component tiles
    and `offsets` the input phases of the leading tiles, as many as keep
    the plan within `_PLAN_BUDGET` bytes, kernels first: `kernel` rebuilds
    a dropped one with a phase pass, an `_expi` and an FFT on every call
    and sample tile, `offset` a dropped offset with one `_turns` pass.
    Every one of these arrays is read-only.  `phase`, `spectrum`, `total`
    and `work` are the scratch of `sum`, which every member on the grid
    reuses (at most about 0.8 MB), so two threads must not synthesize
    noise on one grid at once.
    """

    def __init__(self, omega0: float, n: int, t0: float, h: float, count: int):
        from fractions import Fraction  # imported here: runs without noise never need it

        w0 = Fraction(omega0) / Fraction(_TWO_PI)
        self.n, self.count = n, count
        self.rate, self.rate0 = w0 * Fraction(h) % 1, w0 * Fraction(t0) % 1
        cols, rows = min(n, _TILE_COMPONENTS), min(count, _TILE_SAMPLES)
        width = max(cols, rows)
        self.size = _smooth_length(cols + rows - 1)
        self.phase = np.empty(cols)
        self.spectrum, self.total = (np.empty(self.size, dtype=complex) for _ in range(2))
        self.work = (*np.empty((3, width)), np.empty(width, dtype=np.intp),
                     np.empty(width, dtype=complex))
        # w^(m^2/2) in turns at the rate mod 1: an integer added to the rate multiplies
        # the three chirp factors of a term by (-1)^(p^2 + q^2 - (q - p)^2) = 1.
        m = np.arange(width)
        self.half = _frozen(_turns(self.rate / 2, m * m))
        self.outof = _frozen(_expi(self.half[:rows], np.empty(rows, dtype=complex), self.work))
        spare = _PLAN_BUDGET - self.half.nbytes - self.outof.nbytes
        firsts = range(1, n + 1, _TILE_COMPONENTS)[:max(spare // (16 * self.size), 0)]
        self.kernels = tuple(_frozen(self.kernel(j0)) for j0 in firsts)
        spare -= 16 * self.size * len(firsts)
        offsets = []
        for j0, k0 in _tile_origins(n, count):
            cost = 8 * min(cols, n + 1 - j0)
            if cost > spare:
                break
            spare -= cost
            offsets.append(_frozen(self.offset(j0, k0)))
        self.offsets = tuple(offsets)

    def kernel(self, j0: int) -> np.ndarray:
        """Transform of w^(m j0 - m^2/2) for lags m = 1 - cols .. rows - 1, wrapped."""
        cols, rows = min(self.n, _TILE_COMPONENTS), min(self.count, _TILE_SAMPLES)
        shift = _turns(self.rate * j0 % 1, np.arange(max(cols, rows)))
        kernel = np.zeros(self.size, dtype=complex)
        _expi(shift[:rows] - self.half[:rows], kernel[:rows], self.work)
        _expi(-shift[cols - 1:0:-1] - self.half[cols - 1:0:-1], kernel[self.size - cols + 1:],
              self.work)
        return np.fft.fft(kernel, out=kernel)

    def offset(self, j0: int, k0: int) -> np.ndarray:
        """Phase of w^(j k0 + p^2/2 + j0 p) exp(i omega0 t0 j) for components j = j0 + p.

        In turns, within 3/2 of 0: the sum of three phases reduced to [-1/2, 1/2].
        """
        p = np.arange(min(_TILE_COMPONENTS, self.n + 1 - j0))
        turns = _turns((self.rate0 + self.rate * (j0 + k0)) % 1, p) + self.half[:len(p)]
        turns += float((self.rate0 + self.rate * k0) * j0 % 1)
        return turns


    def sum(self, phases: np.ndarray) -> np.ndarray:
        """sum_j sin(2 pi phi_j + j omega0 (t0 + k h)) for k < count, by tiled chirp-z.

        Per tile: exp(2 pi i(phi + offset)) of its components (`_expi`), one
        forward FFT and the product with the component tile's kernel, summed
        in the spectrum.  Per sample tile: one inverse FFT of that sum, the
        output factor and the imaginary part.  Everything runs in the plan's
        scratch; only the returned array is new.
        """
        out = np.empty(self.count)
        phase, spectrum, total = self.phase, self.spectrum, self.total
        for i, (j0, k0) in enumerate(_tile_origins(self.n, self.count)):
            offset = self.offsets[i] if i < len(self.offsets) else self.offset(j0, k0)
            c = (j0 - 1) // _TILE_COMPONENTS
            kernel = self.kernels[c] if c < len(self.kernels) else self.kernel(j0)
            cols = len(offset)
            np.add(phases[j0 - 1:j0 - 1 + cols], offset, out=phase[:cols])
            _expi(phase[:cols], spectrum[:cols], self.work)
            spectrum[cols:] = 0.0
            np.fft.fft(spectrum, out=spectrum)
            if j0 == 1:
                np.multiply(spectrum, kernel, out=total)
            else:
                spectrum *= kernel
                total += spectrum
            if j0 + _TILE_COMPONENTS > self.n:
                np.fft.ifft(total, out=total)
                y = total[:min(_TILE_SAMPLES, self.count - k0)]
                y *= self.outof[:len(y)]
                out[k0:k0 + len(y)] = y.imag
        return out


def _moment_degree(n: int, reach: float, count: int) -> int | None:
    """Degree D of the moment sum for N = n and Taylor reach Z, or None for chirp-z.

    The remainder of exp(ix) after degree D is at most |x|^(D+1) / (D+1)!,
    and sum_j (j/N)^(D+1) <= N / (D+2) + 1, so the least D whose whole
    remainder Z^(D+1) / (D+1)! (N / (D+2) + 1) is below 2^-53 of the unit
    RMS sqrt(N/2) is taken: 20 at N = 5000 and Z = 1.25.  None beyond
    `_MOMENT_REACH`, or where the plan's arrays (`_MomentPlan`) would not
    fit `_PLAN_BUDGET`.
    """
    if not reach <= _MOMENT_REACH:
        return None
    degree, term = 0, reach
    while term * (n / (degree + 2) + 1) > 2.0 ** -53 * np.sqrt(n / 2):
        degree += 1
        term *= reach / (degree + 1)
    width = min(n, _MOMENT_BLOCK)
    shift = (degree + 1) ** 2 * -(-n // width)
    if 8 * (n + (degree + 1) * (width + count) + shift) > _PLAN_BUDGET:
        return None
    return degree


class _MomentPlan:
    """Everything of the moment sum on one short window but the phases, and the scratch of a call.

    The window t0 + k h, k < count, has centre m = t0 + (count - 1) h / 2.
    With x_k = N omega0 (t_k - m) = N omega0 h (k - (count - 1) / 2), each
    term exp(i(2 pi phi_j + j omega0 t_k)) is a_j = exp(2 pi i (phi_j + j omega0 m / 2 pi))
    times exp(i x_k j / N), and the Taylor series of the latter gives
        c(t_k) = Im sum_{n <= D} (i x_k)^n / n! mu_n,   mu_n = sum_j a_j (j / N)^n,
    with D from `_moment_degree`.  The components are taken in blocks of
    L = min(N, `_MOMENT_BLOCK`), j = b L + r with r = 1 .. L, so that
    (j / N)^n = (c_b + y_r)^n, c_b = b L / N and y_r = r / N, and
        mu_n = sum_b sum_k binom(n, k) c_b^(n - k) sum_r a_{bL + r} y_r^k:
    one product of every block with `powers` (y_r^k, shape (D + 1, L)) and
    one with `shift` (binom(n, k) c_b^(n - k), shape (D + 1, B (D + 1))
    for B blocks).  Every term of the binomial sum is positive, so the
    split adds no cancellation, and the plan holds O(L + B) numbers per
    degree, not N.  `offset` is the centre's phase j omega0 m / 2 pi in
    turns, reduced exactly as the chirp plan's are.  Im(i^n mu_n) is
    +-Im mu_n for even n and +-Re mu_n for odd n, so `basis` holds the real
    x_k^n / n! with that sign, shape (count, D + 1), and `pick` picks the
    part of each moment from its (Re, Im) pair.  The matrices are built by
    running products (and `shift` by (c + y)^n = (c + y)^(n - 1) (c + y)),
    and every array named so far is read-only.  `phase`, `unit` (zero past
    N), `partial`, `moments` and `work` are the scratch of `sum`, which every
    member on the grid reuses, so two threads must not synthesize noise on
    one grid at once.
    """

    def __init__(self, omega0: float, n: int, t0: float, h: float, count: int,
                 degree: int):
        from fractions import Fraction  # imported here: runs without noise never need it

        centre = Fraction(t0) + Fraction(h) * (count - 1) / 2
        rate = Fraction(omega0) / Fraction(_TWO_PI) * centre % 1
        self.offset = _frozen(_turns(rate, np.arange(1, n + 1)))
        width = min(n, _MOMENT_BLOCK)
        blocks = -(-n // width)
        ratio, starts = np.arange(1, width + 1) / n, np.arange(blocks) * width / n
        powers = np.empty((degree + 1, width))
        powers[0] = 1.0
        shift = np.zeros((degree + 1, blocks, degree + 1))
        shift[0, :, 0] = 1.0
        basis = np.empty((count, degree + 1))
        basis[:, 0] = 1.0
        x = (2 * np.arange(count) - (count - 1)) * (n * omega0 * h / 2)
        for d in range(1, degree + 1):
            np.multiply(powers[d - 1], ratio, out=powers[d])
            shift[d, :, 1:] = shift[d - 1, :, :-1]
            shift[d] += starts[:, None] * shift[d - 1]
            np.multiply(basis[:, d - 1], x / (-d if d % 2 == 0 else d), out=basis[:, d])
        self.powers, self.basis = _frozen(powers), _frozen(basis)
        self.shift = _frozen(shift.reshape(degree + 1, -1))
        order = np.arange(degree + 1)
        self.pick = _frozen(2 * order + 1 - order % 2)
        self.phase = np.empty(n)
        self.unit = np.zeros(blocks * width, dtype=complex)
        self.partial, self.moments = np.empty((blocks, degree + 1, 2)), np.empty((degree + 1, 2))
        self.work = (*np.empty((3, n)), np.empty(n, dtype=np.intp), np.empty(n, dtype=complex))

    def sum(self, phases: np.ndarray) -> np.ndarray:
        """sum_j sin(2 pi phi_j + j omega0 (t0 + k h)) for k < count, from the moments.

        One `_expi` of the phases plus the centre's offset, one real
        (D + 1) x L product per block and one (D + 1) x B (D + 1) product
        for the moments, and one count x (D + 1) product for the samples;
        only the returned array is new.
        """
        np.add(phases, self.offset, out=self.phase)
        _expi(self.phase, self.unit[:len(phases)], self.work)
        units = self.unit.view(float).reshape(len(self.partial), -1, 2)
        np.matmul(self.powers, units, out=self.partial)
        np.matmul(self.shift, self.partial.reshape(-1, 2), out=self.moments)
        return self.basis @ self.moments.ravel()[self.pick]


@functools.lru_cache(maxsize=1)
def _grid_plan(omega0: float, n: int, t0: float, h: float, count: int):
    """The plan of the latest grid: every member of a run reuses it.

    Keyed on the grid and the component set alone, so that noises which
    differ only in amplitude or seed share one plan.
    """
    degree = _moment_degree(n, n * omega0 * h * (count - 1) / 2, count)
    if degree is None:
        return _ChirpPlan(omega0, n, t0, h, count)
    return _MomentPlan(omega0, n, t0, h, count, degree)


def _check_time(schedule, t) -> None:
    t = np.asarray(t)
    inside = (0.0 <= t) & (t <= schedule.total_time * (1.0 + 1e-12))
    if not np.all(inside):
        raise ValueError(f"t={t[~inside].flat[0]} outside [0, {schedule.total_time}]")


def sector_states(schedule, state) -> np.ndarray:
    """Amplitudes of a full state on each sector, shape (n_sectors, 2)."""
    return np.asarray(state, dtype=complex)[np.array([sec.indices for sec in schedule.sectors])]
