"""Time evolution engines and the rotating-frame pulse decomposition.

Every schedule is evolved as its exact 2x2 sectors (see `model.Sector`):
the full state is split into sector states on input and rebuilt only at
the output of `final_state_*`.  An ensemble is batched over its members:
every engine takes one noise realization or an iterable of them, consumed
once, and the one step loop (`_propagate`) advances the sector states of
all M members, shape (M, n_sectors, 2), together, in blocks of
consecutive steps that hold at most `_BLOCK_MATRICES` 2x2 matrices.  An
engine only builds each step's matrix [[alpha, -conj(beta)], [beta,
conj(alpha)]], held as its pair; the loop composes a block's pairs into
prefix products with `smallmat.prefix_products` (recursive doubling, a
Hillis-Steele scan of log2 depth, see Blelloch, "Prefix sums and their
applications", CMU-CS-90-190) and applies each prefix to the block's
starting states.  A non-finite step spoils every later prefix of its block,
so the loop's check still names it.  The loop checks and records
once per block, and restores every recorded state's norm, which removes
rounding drift only.  It yields the records in runs as it makes them, and
each run's states become its metric columns at once: an ensemble summary
(`evolve_stepwise(..., reduce=metrics.aggregate)`) reduces them over the
members, a trajectory keeps them, and the runs' results are joined once
(`metrics.concatenate`).  So no result holds a stack of states, and a
summary no per-member column beyond its run.

A run takes n = ceil(T/dt) equal steps of tau = T/n, so dt is the largest
step.  Everything it samples lies on one grid, the half steps k tau/2 for
k = 0 .. 2n: `_samples` synthesizes each member's noise there once, the
engines get the odd samples (the step midpoints) and the records the even
ones (the step ends).

Two independent integrators share that loop.  `evolve_stepwise` is the
production engine: a product of exact step unitaries with the Hamiltonian
(and noise) sampled at step midpoints.  On every sector a step is the
exponential of a traceless Hermitian generator, an SU(2) element, and a
block gets one `smallmat.expm_unitary` call for all its pairs.  The oracle
(`final_state_oracle`) is a classic fourth-order Runge-Kutta integration at
a tenth of the step size, used to cross-check the stepwise engine; it
holds the noise at the same step midpoints the stepwise engine uses, so a
comparison isolates the propagator discretization.  Its substeps are linear,
psi -> R psi with R = I + (K1 + 2 K2 + 2 K3 + K4) / 6, so a block's transfer
matrices (pairs too, see `_rk4_step`) are built at once and each step's ten
are multiplied together by the same scan; `tests/oracle_reference.py`
keeps the substep-by-substep loop they reproduce.

`decompose_pulse` factors a two-level run of the stepwise engine into
spectrometer-style pulse steps, returned as the columns of a table: per
step an equatorial rotation whose phase lives in the accumulated z-rotated
frame, plus one z rotation applied at the end.  Each step's pair, read off
`_midpoint_step` on the loop's own grid and noise, is split exactly (z *
equatorial), so the reconstruction is the engine's to rounding accuracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics, model, smallmat
from .model import NoiseRealization, noise_values


# 2x2 matrices per block of `_propagate`, one per step, member and sector of
# the stepwise engine: a block's step matrices take 32 B per matrix (their
# (alpha, beta) pairs) and its states 32 B; with the exponential's and the
# scan's buffers a block peaks at 116-130 B per matrix (traced).
# The oracle counts more per step (see `_rk4_step`).
_BLOCK_MATRICES = 2 ** 10


class NumericEvolutionError(RuntimeError):
    """Non-finite or vanished state during evolution (carries the step index)."""


class UnsupportedScheduleError(TypeError):
    """Operation only defined for two-level schedules."""


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    store_every: int = 1

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")


def _plan_steps(total_time: float, dt: float) -> tuple[int, float]:
    """Step count n = ceil(T/dt) and the equal step length T/n <= dt."""
    n = int(np.ceil(total_time / dt - 1e-9))
    return n, total_time / n


def _members(noise):
    """The noise paths of a run, and whether its result keeps a member axis.

    One realization (None for a noise-free run) is a single member; any
    other iterable of them is an ensemble, whose members are propagated
    together.  `_propagate` consumes the iterable once, member by member,
    so a generator that realizes each member on demand keeps at most one
    member's phases alive.
    """
    if noise is None or isinstance(noise, NoiseRealization):
        return [noise], False
    return noise, True


def _samples(schedule, noises, dt):
    """A run's n and tau, its half-step grid (2n + 1,) and noise rows (M, 2n + 1).

    The grid's times lie within an ulp of j tau/2, where the noise is
    synthesized, and the last is exactly T.  The members (None: noise-free)
    are realized and synthesized one at a time (traced: 8 B per phase
    component, synthesis peaks of 0.27 MiB on fig3d and 0.61 MiB on fig4b,
    besides a grid plan of 0.26 and 0.79 MiB that the first member builds);
    only a member's row, 16 B per member-step, outlives it.  `fromiter`
    grows the rows' array as they arrive, from 4 rows and then by about
    half, so a one-member run briefly holds 64 B per step there.  A
    noise-free member's row is a broadcast zero, with no array of its own.
    """
    n, tau = _plan_steps(schedule.total_time, dt)
    grid = np.empty(2 * n + 1)
    grid[0] = 0.0
    starts = grid[1::2]  # each step's start k tau, until it is moved to the midpoint
    np.multiply(np.arange(n), tau, out=starts)
    np.add(starts, tau, out=grid[2::2])
    starts += 0.5 * tau
    grid[-1] = schedule.total_time
    silent = np.broadcast_to(0.0, 2 * n + 1)
    # `map` drops each realization as soon as its row is synthesized, so the
    # members of a generator are alive one at a time; `fromiter` writes the
    # rows into one growing array, never a list of them.
    rows = map(lambda r: silent if r is None else noise_values(r, 0.0, 0.5 * tau, 2 * n + 1),
               noises)
    c = np.fromiter(rows, dtype=(float, (2 * n + 1,)))
    if not len(c):
        raise ValueError("an ensemble needs at least one member")
    return n, tau, grid, c


def _propagate(schedule, noises, cfg, initial, make_step, store_every):
    """The one step loop of every engine, over all members at once.

    `noises` is an iterable of realizations (None: a noise-free member),
    consumed by `_samples`.  `make_step(schedule, mids, tau, c_mid)`
    returns the engine's advance(start, stop), which returns the pairs
    (alpha, beta) of the steps start .. stop - 1 of every member and sector,
    shape (stop - start, M, n_sectors).  It is built from the step
    midpoints, the step length and every member's noise at the midpoints,
    shape (M, n_steps); every member starts from `initial`.

    A generator: it yields the records in order, at the ends of blocks, in
    runs of at least 16 records and 4 blocks' sector states (or all that
    are left).  Each run is (times, c, states): the times of r >= 2
    consecutive records, every member's noise at them, shape (M, r), and
    the sector states there, a C-contiguous (M, r, n_sectors, 2) array.
    The first run starts at t = 0.  The input checks run when the first
    run is asked for.

    The run advances in blocks of at most `_BLOCK_MATRICES` matrices (at
    least one step each): one per step, member and sector, or as many as
    the engine states in `advance.matrices`.  Per block the loop composes
    the step pairs into prefix products, in place, and applies each to the
    block's starting states, psi <- (alpha psi0 - conj(beta) psi1,
    beta psi0 + conj(alpha) psi1).  It checks that every state is finite,
    naming the first step that is not, and takes the block's record steps.
    Each recorded state has its norm restored to the value at t = 0: every
    sector evolves unitarily, so this removes rounding drift only; a
    recorded norm too small to restore is an error naming its step.  Within
    a block the steps continue from the unrenormalized states; the next
    block starts from the renormalized one when the block's last step is
    recorded.
    """
    state = np.asarray(initial, dtype=complex)
    if state.shape != (schedule.dim,):
        raise ValueError(f"initial state must have dimension {schedule.dim}")
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    # Peak memory of a run (traced), besides the noise rows (see `_samples`):
    # a block's coefficients, step pairs and states peak at about 0.11 MiB
    # on one sector and 0.13 MiB on two, whatever the step count.  Its records wait
    # for a run of 4 blocks' sector states (32 B each, 0.125 MiB) or 16
    # records, whichever is more.  A run's states are gone once `_evolve`
    # has made its columns, so a trajectory peaks at 54 B per member-record
    # on one sector and 53 B on two: its six 8 B columns, and one column's
    # runs while `metrics.concatenate` joins it.  A summary holds one run's
    # states and columns, whatever the record count.
    n, tau, grid, c = _samples(schedule, noises, cfg.dt)
    steps = np.arange(n)
    # Record every store_every-th step (at most the n-th) and the last; None: the last.
    record = steps[((steps + 1) % min(store_every or n, n) == 0) | (steps == n - 1)]
    rows = np.concatenate([[0], 2 * record + 2])
    advance = make_step(schedule, grid[1::2], tau, c[:, 1::2])
    psi = np.repeat(model.sector_states(schedule, state)[None], len(c), axis=0)
    norm0 = np.linalg.norm(psi[0])
    # Records are held (those of rows[filled:]) until a block ends with at
    # least 16 of them and 4 blocks' sector states held, and not exactly
    # one record to come.  So a run's fixed costs, its Python calls and the
    # one pass per member of each column's sum, are spread over many records
    # and members; and no column has one record: numpy sums the members of
    # the states' columns in turn and of the noise's (taken across its rows)
    # pairwise, but those of a one-record column always pairwise.
    held, filled = [psi[None]], 0
    per_record = psi.shape[0] * psi.shape[1]
    block = max(1, _BLOCK_MATRICES // (per_record * getattr(advance, "matrices", 1)))
    for start in range(0, n, block):
        stop = min(n, start + block)
        alpha, beta = advance(start, stop)
        smallmat.prefix_products(alpha, beta)
        out = np.empty(alpha.shape + (2,), dtype=complex)
        out[..., 0] = alpha * psi[..., 0] - beta.conj() * psi[..., 1]
        out[..., 1] = beta * psi[..., 0] + alpha.conj() * psi[..., 1]
        bad = ~np.isfinite(out).all(axis=(1, 2, 3))
        if bad.any():
            raise NumericEvolutionError(f"non-finite state after step {start + bad.argmax()}")
        lo, hi = np.searchsorted(record, [start, stop])
        kept = out[record[lo:hi] - start]
        norm = np.linalg.norm(kept, axis=(2, 3))
        # A norm below the smallest normal float cannot be restored: an
        # unstable integration (the oracle beyond its step) decayed it.
        lost = (norm < np.finfo(float).tiny).any(axis=1)
        if lost.any():
            step = record[lo + lost.argmax()]
            raise NumericEvolutionError(f"state norm vanished after step {step}")
        kept *= (norm0 / norm)[..., None, None]
        if hi > lo:
            held.append(kept)
        run, left = 1 + hi - filled, len(record) - hi
        if left == 0 or (left > 1 and run >= 16 and run * per_record >= 4 * _BLOCK_MATRICES):
            taken = rows[filled:1 + hi]
            run_states = np.empty((len(c), run) + psi.shape[1:], dtype=complex)
            np.concatenate(held, out=run_states.swapaxes(0, 1))
            yield grid[taken], c[:, taken], run_states
            held, filled = [], 1 + hi
        psi = kept[-1] if hi > lo and record[hi - 1] == stop - 1 else out[-1]


def _tracked_level(states) -> float:
    """+1 to track the upper eigenlevel, -1 the lower, from member 0's first record.

    The levels +-k of the direction operator a(t) sx + b(t) sz keep their
    eigenvectors under the noise prefactor, which only rescales eigenvalues
    (through zero in strong-noise runs), and never cross on [0, T].  At
    t = 0, a = 0 < b, so the upper level is exactly |0>: every member starts
    from the same state, and the run tracks the upper level if its initial
    pop0 exceeds pop1, else the lower.
    """
    pop0, pop1, _ = metrics.reduced_density(states[0, 0])
    return 1.0 if pop0 > pop1 else -1.0


def _trajectory(schedule, times, c, states, batched, s) -> metrics.Trajectory:
    """Per-record metrics of every member, with one tracked eigenlevel per run.

    The projector onto the tracked level s (+1 for the upper, -1 for the
    lower, as `_tracked_level` picks it) is (I + s n.sigma)/2, n = (a, 0, b)/k,
    so fidelity_e0 is (tr rho + s (b (rho00 - rho11) + 2 a Re rho01)/k)/2.
    Columns have shape (M, n_records), or (n_records,) for a single member.
    """
    a, b = schedule.ab(times)
    k = np.hypot(a, b)
    pop0, pop1, rho01 = metrics.reduced_density(states)
    # Finished in place, so that the sum and the halving allocate no further column.
    fidelity = (s * b * (pop0 - pop1) + 2.0 * s * a * rho01.real) / k
    fidelity += pop0 + pop1
    fidelity *= 0.5
    columns = {
        # A copy of the imaginary part, so that the column does not keep rho01 alive.
        "pop0": pop0, "pop1": pop1, "im_coherence": rho01.imag.copy(),
        "fidelity_e0": fidelity,
        "gap": -2.0 * s * (schedule.j0 + c) * k,
        "noise": c,
    }
    if not batched:
        columns = {name: column[0] for name, column in columns.items()}
    return metrics.Trajectory(times=times, **columns)


def _midpoint_step(schedule, mids, tau, c_mid):
    # On sector s the step Hamiltonian is g a sx + (g b + z_s) sz, g = J0 + c:
    # traceless, so every step is an SU(2) element.
    a, b = schedule.ab(mids)
    z_offsets = np.array([sec.z_offset for sec in schedule.sectors])

    def advance(start, stop):
        # The block's step pairs, shape (stop - start, M, n_sectors), in one
        # call; the module attribute keeps the call traceable.
        g = (schedule.j0 + c_mid[:, start:stop].T)[..., None]
        return smallmat.expm_unitary(g * a[start:stop, None, None],
                                     g * b[start:stop, None, None] + z_offsets, tau)
    return advance


def _rk4_step(schedule, mids, tau, c_mid):
    # RK4 at n_sub substeps of h = tau / n_sub, the noise held at the step
    # midpoint.  The stages of R are K1 = -i h H0, K2 = -i h Hm (I + K1 / 2),
    # K3 = -i h Hm (I + K2 / 2) and K4 = -i h H1 (I + K3), from H at the
    # substep's start, midpoint and end.  On a sector h H is the real matrix
    # [[z, x], [x, -z]], x = g a, z = g b + h z_offset, g = h (J0 + c).
    n_sub = 10
    h = tau / n_sub
    z_offsets = np.array([sec.z_offset for sec in schedule.sectors])
    # Each substep's start, midpoint and end, as offsets from its step's midpoint.
    nodes = (np.arange(n_sub)[:, None] + [0.0, 0.5, 1.0]) / n_sub - 0.5

    def advance(start, stop):
        a, b = schedule.ab((mids[start:stop, None, None] + tau * nodes).reshape(-1, 3).T)
        # Axes: substeps, members, sectors.
        g = h * np.repeat(schedule.j0 + c_mid[:, start:stop].T, n_sub, axis=0)[..., None]

        def slope(node, u, v):
            """-i h H (u, v) at one node of every substep."""
            x = -1j * g * a[node, :, None, None]
            z = g * b[node, :, None, None] + h * z_offsets
            k_u = -1j * z * u
            k_u += x * v
            k_v = 1j * z * v
            k_v += x * u
            return k_u, k_v

        # R is a real polynomial in the pure quaternion -i h H, so it is the
        # pair of its first column: the stages act on |0> alone.
        k_u, k_v = slope(0, 1.0 + 0.0j, 0.0j)
        u, v = 1.0 + k_u / 6.0, k_v / 6.0
        for node, part, weight in ((1, 0.5, 2.0), (1, 0.5, 2.0), (2, 1.0, 1.0)):
            # One at a time, so that the last stage is freed before the next.
            k_u = 1.0 + part * k_u
            k_v = part * k_v
            k_u, k_v = slope(node, k_u, k_v)
            u += weight / 6.0 * k_u
            v += weight / 6.0 * k_v
        del k_u, k_v
        # Each step's matrix: the last prefix of its substeps, scanned on a
        # leading substep axis.
        u, v = (np.moveaxis(w.reshape((stop - start, n_sub) + w.shape[1:]), 1, 0)
                for w in (u, v))
        smallmat.prefix_products(u, v)
        return u[-1], v[-1]

    # Traced, a block holds at most 210 B per substep matrix, the stepwise engine
    # 116-130 B per step matrix: each substep counts as ceil(2 * 210 / 116) = 4
    # matrices, so that a substep block holds less than half a stepwise block.
    advance.matrices = math.ceil(2 * 210 / 116) * n_sub
    return advance


def _evolve(schedule, noise, cfg, initial, make_step, reduce=None):
    noises, batched = _members(noise)
    parts, level = [], None
    for times, c, states in _propagate(schedule, noises, cfg, initial, make_step, cfg.store_every):
        # The first run, from t = 0, picks the tracked level.  A summary
        # reduces over the member axis, so its runs keep one, and reduces
        # each run in place: no run's member columns outlive it while the
        # loop makes the next.
        level = _tracked_level(states) if level is None else level
        parts.append(_trajectory(schedule, times, c, states, batched or reduce is not None, level))
        if reduce is not None:
            parts[-1] = reduce(parts[-1])
    return metrics.concatenate(parts)


def _final_state(schedule, noise, cfg, initial, make_step) -> np.ndarray:
    """Each member's final full state, rebuilt from its sector states.

    Amplitudes outside every sector (|00> and |11> of the pair model) are
    annihilated by the Hamiltonian and keep their initial values.
    """
    noises, batched = _members(noise)
    # Recording t = 0 and the last step only, the loop yields one run.
    [(_, _, states)] = _propagate(schedule, noises, cfg, initial, make_step, None)
    final = np.repeat(np.array(initial, dtype=complex)[None], len(states), axis=0)
    final[:, np.array([sec.indices for sec in schedule.sectors])] = states[:, -1]
    return final if batched else final[0]


def evolve_stepwise(schedule, noise, cfg: EvolutionConfig, initial, reduce=None):
    """Midpoint-sampled piecewise-constant propagator product.

    `noise` is one realization (None: noise-free) or any other iterable of
    them, such as a list or a generator.  The iterable is consumed once,
    each member's noise synthesized as it arrives, so a generator that
    realizes members on demand holds one member's phases at a time.  An
    iterable runs all members together, and every column of the result
    gains a leading member axis; `times` stays one-dimensional.

    With `reduce` (`metrics.aggregate`) the result is one
    `metrics.EnsembleSummary` instead: the records are reduced over the
    members run by run as the loop makes them, so no member's states or
    columns outlive their run of records.
    """
    return _evolve(schedule, noise, cfg, initial, _midpoint_step, reduce)


def final_state_oracle(schedule, noise, cfg, initial) -> np.ndarray:
    """Final state of the Runge-Kutta reference without trajectory recording.

    Shape (dim,), or (M, dim) for an iterable of realizations.
    """
    return _final_state(schedule, noise, cfg, initial, _rk4_step)


def final_state_stepwise(schedule, noise, cfg, initial) -> np.ndarray:
    """Final state of the stepwise engine without trajectory recording.

    Shape (dim,), or (M, dim) for an iterable of realizations.
    """
    return _final_state(schedule, noise, cfg, initial, _midpoint_step)


def decompose_pulse(schedule, noise: NoiseRealization | None,
                    cfg: EvolutionConfig) -> dict[str, np.ndarray]:
    """Factor a two-level run into z-frame-accumulated equatorial pulses.

    Returns the pulse table's columns, one entry per engine step: its start
    `t_start` on the engine's grid, `duration`, z increment `z_angle`, and an
    equatorial rotation of rate `xy_amplitude` whose phase `xy_phase` is in
    the accumulated frame, so the run reconstructs as one trailing z
    rotation (of the summed z angles) applied after the equatorial product.
    """
    if schedule.dim != 2:
        raise UnsupportedScheduleError("pulse decomposition requires a two-level schedule")
    # Each step is the engine's own pair, u = [[alpha, -beta*], [beta, alpha*]];
    # no closure outlives the call, so the engine's columns go before the split.
    n, tau, grid, c = _samples(schedule, [noise], cfg.dt)
    alpha, beta = (u[:, 0, 0] for u in _midpoint_step(schedule, grid[1::2], tau, c[:, 1::2])(0, n))
    bad = ~(np.isfinite(alpha) & np.isfinite(beta))
    if bad.any():
        raise NumericEvolutionError(f"non-finite unitary at step {bad.argmax()}")
    # Exact split u = exp(-i delta sz) * exp(-i gamma (cos phi sx + sin phi sy)):
    # alpha = e^{-i delta} cos gamma, beta = -i e^{i (delta + phi)} sin gamma.
    gamma = np.arctan2(np.abs(beta), np.abs(alpha))
    delta = -np.angle(alpha)
    phi = np.where(np.abs(beta) < 1e-300, 0.0,
                   np.angle(1.0j * np.exp(-1.0j * delta) * beta))
    theta_before = np.concatenate([[0.0], np.cumsum(delta)[:-1]])
    return {"t_start": grid[:-1:2], "duration": np.full(len(delta), tau), "z_angle": delta,
            "xy_amplitude": gamma / tau, "xy_phase": phi - 2.0 * theta_before}
