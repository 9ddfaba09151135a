"""Time evolution engines and the rotating-frame pulse decomposition.

Every schedule is evolved as its exact 2x2 sectors (see `model.Sector`):
the full state is split into sector states on input and rebuilt only at
the output of `final_state_*`.  An ensemble is batched over its members:
every engine takes one noise realization or an iterable of them, consumed
once, and the one step loop (`_propagate`) advances the sector states of
all M members, shape (M, n_sectors, 2), together, in blocks of
consecutive steps that hold at most `_BLOCK_MATRICES` 2x2 matrices.  An
engine only builds each step's matrix; the loop composes a block's step
matrices into prefix products with `smallmat.prefix_products` (recursive
doubling, a Hillis-Steele scan of log2 depth, see Blelloch, "Prefix sums
and their applications", CMU-CS-90-190) and applies each prefix to the
block's starting states.  A non-finite step spoils every later prefix of its
block, so the loop's check still names it.  The loop checks and records
once per block, and restores every recorded state's norm, which removes
rounding drift only.  It yields the records in runs as it makes them: an
ensemble summary (`evolve_stepwise(..., reduce=metrics.aggregate)`)
reduces each run over the members, so no run holds a per-member stack of
states or metric columns; a trajectory joins them (`_gather`).

A run takes n = ceil(T/dt) equal steps of tau = T/n, so dt is the largest
step.  Everything it samples lies on one grid, the half steps k tau/2 for
k = 0 .. 2n: `_propagate` synthesizes each member's noise there once, the
engines get the odd samples (the step midpoints) and the records the even
ones (the step ends).

Two independent integrators share that loop.  `evolve_stepwise` is the
production engine: a product of exact step unitaries with the Hamiltonian
(and noise) sampled at step midpoints.  On every sector a step is an SU(2)
element, held as its pair (alpha, beta), times a constant phase, and a
block gets one `smallmat.expm_unitary` call for all its pairs.  The oracle
(`final_state_oracle`) is a classic fourth-order Runge-Kutta integration at
a tenth of the step size, used to cross-check the stepwise engine; it
holds the noise at the same step midpoints the stepwise engine uses, so a
comparison isolates the propagator discretization.  Its substeps are linear,
psi -> R psi with R = I + (K1 + 2 K2 + 2 K3 + K4) / 6, so a block's transfer
matrices are built at once and each step's ten are multiplied together by
the same scan; `tests/oracle_reference.py` keeps the substep-by-substep
loop they reproduce.

`decompose_pulse` factors a two-level run of the stepwise engine into
spectrometer-style pulse steps, returned as the columns of a table: per
step an equatorial rotation whose phase lives in the accumulated z-rotated
frame, plus one z rotation applied at the end.  The per-step decomposition
is exact (an Euler-style z * equatorial split of each step unitary), so
the reconstruction reproduces the direct propagator to rounding accuracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics, model, smallmat
from .model import NoiseRealization, noise_values


# 2x2 matrices per block of `_propagate`, one per step, member and sector of
# the stepwise engine: a block's step matrices take 64 B per matrix (four
# complex entries) and its states 32 B; with the exponential's and the
# scan's buffers a block peaks at about 150 B per matrix (traced).
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


def _propagate(schedule, noises, cfg, initial, make_step, store_every):
    """The one step loop of every engine, over all members at once.

    `noises` is an iterable of realizations (None: a noise-free member),
    consumed once before the first step; each member's noise is synthesized
    as it arrives.  `make_step(schedule, mids, tau, c_mid)` returns the
    engine's advance(start, stop), which returns the four entry arrays
    (a, b, c, d) of each step's matrix [[a, b], [c, d]] for steps
    start .. stop - 1 of every member and sector, shape
    (stop - start, M, n_sectors).  It is built from the step midpoints, the
    step length and every member's noise at the midpoints, shape
    (M, n_steps); every member starts from `initial`.

    A generator: it yields the records in order, at the ends of blocks, in
    runs of at least 16 records and 4 blocks' sector states (or all that
    are left).  Each run is (times, c, states): the times of r >= 2
    consecutive records, every member's noise at them, shape (M, r), and
    the sector states there, a C-contiguous (M, r, n_sectors, 2) array.
    The first run starts at t = 0; `_gather` joins them all.  The input
    checks run when the first run is asked for.

    The run advances in blocks of at most `_BLOCK_MATRICES` matrices (at
    least one step each): one per step, member and sector, or as many as
    the engine states in `advance.matrices`.  Per block the loop composes
    the step matrices into prefix products, in place, and applies each to
    the block's starting states.  It checks that every state is finite,
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
    n, tau = _plan_steps(schedule.total_time, cfg.dt)
    # The half-step grid: step k runs from sample 2k through its midpoint
    # 2k + 1 to 2k + 2.  Its times k tau + tau/2 and k tau + tau lie within
    # an ulp of the progression j tau/2 the noise is synthesized on, and
    # the last is exactly T.
    steps = np.arange(n)
    starts = steps * tau
    grid = np.append(0.0, np.stack([starts + 0.5 * tau, starts + tau], axis=1))
    grid[-1] = schedule.total_time
    # Record every store_every-th step and the last; None records the last only.
    record = steps[((steps + 1) % (store_every or n) == 0) | (steps == n - 1)]
    rows = np.concatenate([[0], 2 * record + 2])
    # Peak memory of a run (traced): the members are realized and synthesized
    # one at a time, a member's phases taking 8 B per component and its
    # synthesis peaking at 0.27 MiB on fig3d and 0.61 MiB on fig4b, besides
    # the grid plan that the first member builds and the rest reuse (0.26 and
    # 0.79 MiB).  Only a member's row of the (M, 2n + 1) noise outlives it:
    # 16 B per member-step, up to half as much again while the rows gather.
    # A block's coefficients, step matrices and states peak at about 0.15 MiB
    # on one sector and on two, whatever the step count.  Its records wait
    # for a run of 4 blocks' sector states (32 B each, 0.125 MiB) or 16
    # records, whichever is more.  Gathered, they take 32 B per member,
    # record and sector, and `_trajectory` then peaks at 85 B per
    # member-record on one sector and 117 B on two; reduced run by run, a
    # summary holds one run's states and columns, whatever the record count.
    silent = np.zeros(2 * n + 1)

    def samples(r):
        return silent if r is None else noise_values(r, 0.0, 0.5 * tau, 2 * n + 1)

    # `map` drops each realization as soon as its row is synthesized, so the
    # members of a generator are alive one at a time; `fromiter` writes the
    # rows into one growing array, never a list of them.
    c = np.fromiter(map(samples, noises), dtype=(float, (2 * n + 1,)))
    if not len(c):
        raise ValueError("an ensemble needs at least one member")
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
        u00, u01, u10, u11 = advance(start, stop)
        smallmat.prefix_products(u00, u01, u10, u11)
        out = np.empty(u00.shape + (2,), dtype=complex)
        out[..., 0] = u00 * psi[..., 0] + u01 * psi[..., 1]
        out[..., 1] = u10 * psi[..., 0] + u11 * psi[..., 1]
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


def _gather(runs):
    """The record times, noise and states of all `_propagate` runs, joined."""
    times, c, states = zip(*runs)
    # First, so that the runs' states are freed before the noise is joined.
    states = np.concatenate(states, axis=1)
    return np.concatenate(times), np.concatenate(c, axis=1), states


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
        "gap": -2.0 * s * (schedule.j0_rad + c) * k,
        "noise": c,
    }
    if not batched:
        columns = {name: column[0] for name, column in columns.items()}
    return metrics.Trajectory(times=times, **columns)


def _midpoint_step(schedule, mids, tau, c_mid):
    # On sector s the step Hamiltonian is g a sx + (g b + z_s) sz + shift_s I,
    # g = J0 + c: an SU(2) step times the sector's constant phase per step.
    a, b = schedule.ab(mids)
    z_offsets = np.array([sec.z_offset for sec in schedule.sectors])
    phase = np.exp(-1.0j * tau * np.array([sec.shift for sec in schedule.sectors]))

    def advance(start, stop):
        # The block's step pairs, shape (stop - start, M, n_sectors), in one
        # call; the module attribute keeps the call traceable.
        g = (schedule.j0_rad + c_mid[:, start:stop].T)[..., None]
        alpha, beta = smallmat.expm_unitary(g * a[start:stop, None, None],
                                            g * b[start:stop, None, None] + z_offsets, tau)
        return phase * alpha, -phase * beta.conj(), phase * beta, phase * alpha.conj()
    return advance


def _rk4_step(schedule, mids, tau, c_mid):
    # RK4 at n_sub substeps of h = tau / n_sub, the noise held at the step
    # midpoint.  The stages of R are K1 = -i h H0, K2 = -i h Hm (I + K1 / 2),
    # K3 = -i h Hm (I + K2 / 2) and K4 = -i h H1 (I + K3), from H at the
    # substep's start, midpoint and end.  On a sector h H is the real matrix
    # [[h shift + z, x], [x, h shift - z]], x = g a, z = g b + h z_offset, g = h (J0 + c).
    n_sub = 10
    h = tau / n_sub
    z_offsets = np.array([sec.z_offset for sec in schedule.sectors])[:, None]
    shifts = np.array([sec.shift for sec in schedule.sectors])[:, None]
    # Each substep's start, midpoint and end, as offsets from its step's midpoint.
    nodes = (np.arange(n_sub)[:, None] + [0.0, 0.5, 1.0]) / n_sub - 0.5

    def advance(start, stop):
        a, b = schedule.ab((mids[start:stop, None, None] + tau * nodes).reshape(-1, 3).T)
        # Axes: substeps, members, sectors, and last the two columns of R.
        g = h * np.repeat(schedule.j0_rad + c_mid[:, start:stop].T, n_sub, axis=0)[..., None, None]

        def slope(node, u, v):
            """-i h H (u, v) at one node of every substep."""
            x = -1j * g * a[node, :, None, None, None]
            z = g * b[node, :, None, None, None] + h * z_offsets
            k_u = -1j * (h * shifts + z) * u
            k_u += x * v
            k_v = -1j * (h * shifts - z) * v
            k_v += x * u
            return k_u, k_v

        # The stages act on the identity's columns, so (u, v) end as R's rows.
        eye_u, eye_v = np.eye(2, dtype=complex)
        k_u, k_v = slope(0, eye_u, eye_v)
        u, v = eye_u + k_u / 6.0, eye_v + k_v / 6.0
        for node, part, weight in ((1, 0.5, 2.0), (1, 0.5, 2.0), (2, 1.0, 1.0)):
            # One at a time, so that the last stage is freed before the next.
            k_u = eye_u + part * k_u
            k_v = eye_v + part * k_v
            k_u, k_v = slope(node, k_u, k_v)
            u += weight / 6.0 * k_u
            v += weight / 6.0 * k_v
        del k_u, k_v
        # Each step's matrix: the last prefix of its substeps, scanned on a
        # leading substep axis.
        u, v = (np.moveaxis(w.reshape((stop - start, n_sub) + w.shape[1:]), 1, 0)
                for w in (u, v))
        smallmat.prefix_products(u[..., 0], u[..., 1], v[..., 0], v[..., 1])
        return u[-1, ..., 0], u[-1, ..., 1], v[-1, ..., 0], v[-1, ..., 1]

    # Traced, a block holds about 320 B per substep matrix, the stepwise engine
    # 150 B per step matrix: each substep counts as ceil(2 * 320 / 150) = 5
    # matrices, so that a substep block holds less than half a stepwise block.
    advance.matrices = math.ceil(2 * 320 / 150) * n_sub
    return advance


def _evolve(schedule, noise, cfg, initial, make_step, reduce=None):
    noises, batched = _members(noise)
    runs = _propagate(schedule, noises, cfg, initial, make_step, cfg.store_every)
    whole = reduce is None
    if whole:  # one trajectory of all the records
        runs, reduce = [_gather(runs)], lambda traj: traj
    parts, level = [], None
    for times, c, states in runs:
        if level is None:  # the first run, from t = 0
            level = _tracked_level(states)
        # A summary reduces over the member axis, so its runs keep one.  No
        # run's metric columns outlive it while the loop makes the next.
        parts.append(reduce(_trajectory(schedule, times, c, states, batched or not whole, level)))
    return parts[0] if whole else metrics.concatenate(parts)


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

    Returns the columns of the pulse table, one entry per step: its
    `duration`, its z increment `z_angle`, and an equatorial rotation of
    rate `xy_amplitude` whose phase `xy_phase` is already expressed in the
    accumulated frame, so the whole run reconstructs as one trailing z
    rotation (of the summed z angles) applied after the equatorial product.
    """
    if schedule.dim != 2:
        raise UnsupportedScheduleError("pulse decomposition requires a two-level schedule")
    # The sweep is traceless, so each prefix propagator U_k of the stepwise
    # engine is in SU(2), U_k = [[a, -b*], [b, a*]] with (a, b) = U_k|0>.
    # Recording every step from |0> therefore gives the step unitaries
    # u_k = U_k U_{k-1}^dagger.
    _, _, states = _gather(_propagate(schedule, [noise], cfg, [1.0, 0.0], _midpoint_step, 1))
    a, b = states[0, :, 0, 0], states[0, :, 0, 1]
    u00 = a[1:] * a[:-1].conj() + b[1:].conj() * b[:-1]
    u01 = a[1:] * b[:-1].conj() - b[1:].conj() * a[:-1]
    # Exact split u = exp(-i delta sz) * exp(-i gamma (cos phi sx + sin phi sy)).
    gamma = np.arctan2(np.abs(u01), np.abs(u00))
    delta = -np.angle(u00)
    phi = np.where(np.abs(u01) < 1e-300, 0.0,
                   -np.angle(1.0j * np.exp(1.0j * delta) * u01))
    theta_before = np.concatenate([[0.0], np.cumsum(delta)[:-1]])
    _, tau = _plan_steps(schedule.total_time, cfg.dt)
    return {"duration": np.full(len(delta), tau), "z_angle": delta,
            "xy_amplitude": gamma / tau, "xy_phase": phi - 2.0 * theta_before}
