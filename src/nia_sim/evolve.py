"""Time evolution engines and the rotating-frame pulse decomposition.

Every schedule is evolved as its exact 2x2 sectors (see `model.Sector`):
the full state is split into sector states on input and rebuilt only at
the output of `final_state_*`.  An ensemble is batched over its members:
every engine takes one noise realization or a sequence of them, and the
one step loop (`_propagate`) advances the sector states of all M members,
shape (M, n_sectors, 2), together; each step is one vectorized operation
over members and sectors.

A run takes n = ceil(T/dt) equal steps of tau = T/n, so dt is the largest
step.  Everything it samples lies on one grid, the half steps k tau/2 for
k = 0 .. 2n: `_propagate` synthesizes each member's noise there once, the
engines get the odd samples (the step midpoints) and the recorder the even
ones (the step ends).

Two independent integrators share that loop.  `evolve_stepwise` is the
production engine: a product of exact step unitaries with the Hamiltonian
(and noise) sampled at step midpoints, built by one `smallmat.expm_unitary`
call per step.  `evolve_oracle` is a classic fourth-order Runge-Kutta
integration at a tenth of the step size, used to cross-check the stepwise
engine; it holds the noise at the same step midpoints the stepwise engine
uses, so a comparison isolates the propagator discretization.

`decompose_pulse` factors a two-level run of the stepwise engine into
spectrometer-style pulse steps: per step an equatorial rotation whose phase
lives in the accumulated z-rotated frame, plus one z rotation applied at the
end.  The per-step decomposition is exact (an Euler-style z * equatorial
split of each step unitary), so the reconstruction reproduces the direct
propagator to rounding accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, model, smallmat
from .model import (NoiseRealization, SingleQubitSchedule, SpectatorSchedule,
                    noise_values)


class NumericEvolutionError(RuntimeError):
    """Non-finite value encountered during evolution (carries the step index)."""


class UnsupportedScheduleError(TypeError):
    """Operation only defined for two-level schedules."""


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    renormalize: bool = True
    store_every: int = 1

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")


@dataclass(frozen=True)
class PulseStep:
    """One exported pulse interval: z increment plus equatorial rotation."""

    duration: float
    z_angle: float
    xy_amplitude: float
    xy_phase: float


def _plan_steps(total_time: float, dt: float) -> tuple[int, float]:
    """Step count n = ceil(T/dt) and the equal step length T/n <= dt."""
    n = int(np.ceil(total_time / dt - 1e-9))
    return n, total_time / n


def _members(noise):
    """The noise paths of a run, and whether its result keeps a member axis.

    One realization (None for a noise-free run) is a single member; a
    sequence of them is an ensemble, whose members are propagated together.
    """
    if noise is None or isinstance(noise, NoiseRealization):
        return [noise], False
    noises = list(noise)
    if not noises:
        raise ValueError("an ensemble needs at least one member")
    return noises, True


def _schedule_meta(schedule, noises, cfg, batched):
    if isinstance(schedule, SpectatorSchedule):
        system, j0, extra = "spectator", schedule.base.j0, (schedule.j12, schedule.omega_spec)
    else:
        system = "single" if isinstance(schedule, SingleQubitSchedule) else "pair"
        j0, extra = schedule.j0, ()
    indices = [None if r is None else r.index for r in noises]
    meta = {
        "schedule": (system, j0, schedule.total_time, schedule.convention.value) + extra,
        "system": system,
        "j0": j0,
        "total_time": schedule.total_time,
        "convention": schedule.convention.value,
        "dt": cfg.dt,
        "store_every": cfg.store_every,
        "realization_index": indices if batched else indices[0],
    }
    if noises[0] is not None:
        spec = noises[0].spec
        meta.update(seed=spec.seed, noise_amplitude=spec.amplitude, noise_omega0=spec.omega0,
                    noise_omega_cut=spec.omega_cut, noise_normalization=spec.normalization.value)
    return meta


def _propagate(schedule, noises, cfg, initial, make_step, store_every):
    """The one step loop of every engine, over all members at once.

    `make_step(schedule, mids, tau, c_mid)` returns the engine's
    advance(k, psi) over the sector states psi of all members, shape
    (M, n_sectors, 2), from the step midpoints, the step length and every
    member's noise at the midpoints, shape (M, n_steps); every member
    starts from `initial`.  Returns the record times, every member's noise
    at them, shape (M, n_records), and the sector states at t = 0 and after
    each record step, shape (M, n_records, n_sectors, 2).  With
    cfg.renormalize, each recorded
    state has its norm restored to the value at t = 0: every sector evolves
    unitarily, so this removes rounding drift only.
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
    # The per-step arrays of make_step set the peak memory of a run (traced):
    # one member's noise synthesis peaks below 1 MiB on fig3d and fig4b, the
    # (M, 2n + 1) noise of 100 fig4b members takes 1.6 MB, and make_step
    # peaks at 2.1 MiB for 16 fig4b members and 12 MiB for 100.
    c = np.zeros((len(noises), 2 * n + 1))
    for member, r in enumerate(noises):
        if r is not None:
            c[member] = noise_values(r, 0.0, 0.5 * tau, 2 * n + 1)
    advance = make_step(schedule, grid[1::2], tau, c[:, 1::2])
    psi = np.repeat(model.sector_states(schedule, state)[None], len(noises), axis=0)
    norm0 = np.linalg.norm(psi[0])
    states = [psi]
    next_rec = 0
    for k in range(n):
        psi = advance(k, psi)
        if not np.isfinite(psi).all():
            raise NumericEvolutionError(f"non-finite state after step {k}")
        if record[next_rec] == k:
            if cfg.renormalize:
                psi = psi * (norm0 / np.linalg.norm(psi, axis=(1, 2)))[:, None, None]
            next_rec += 1
            states.append(psi)
    return grid[rows], c[:, rows], np.stack(states, axis=1)


def _trajectory(schedule, noises, cfg, times, c, states, engine, batched) -> metrics.Trajectory:
    """Per-record metrics of every member with the continuity-tracked eigenlevel.

    Tracking runs on the direction operator a(t) sx + b(t) sz, whose
    eigenvectors are untouched by the noise prefactor (the noise only
    rescales eigenvalues, including through zero in strong-noise runs).
    Its levels are +-k with closed-form real eigenvectors (b + k, a) and
    (-a, b + k), normalized.  They never cross on [0, T], so continuity
    tracking keeps the level chosen at t = 0: the one of larger overlap
    with the initial state, the lower one on a tie.  Columns have shape
    (M, n_records), or (n_records,) for a single member.
    """
    a, b = schedule.ab(times)
    k = np.hypot(a, b)
    norm = np.hypot(b + k, a)
    upper = np.stack([(b + k) / norm, a / norm], axis=-1)
    lower = np.stack([-a / norm, (b + k) / norm], axis=-1)
    rho = metrics.reduced_density(states)

    def overlap(v, r):
        # v is real, so <v|rho|v> only sees the real (symmetric) part of rho.
        return np.einsum("...i,...ij,...j->...", v, r.real, v)

    track_upper = overlap(upper[0], rho[:, 0]) > overlap(lower[0], rho[:, 0])
    # Copies, so that stored columns do not keep the whole density stack alive.
    columns = {
        "pop0": rho[..., 0, 0].real.copy(), "pop1": rho[..., 1, 1].real.copy(),
        "im_coherence": rho[..., 0, 1].imag.copy(),
        "fidelity_e0": np.where(track_upper[:, None], overlap(upper, rho), overlap(lower, rho)),
        "gap": np.where(track_upper, -2.0, 2.0)[:, None] * (schedule.j0_rad + c) * k,
        "noise": c,
    }
    if not batched:
        columns = {name: column[0] for name, column in columns.items()}
    return metrics.Trajectory(
        times=times, **columns,
        meta=_schedule_meta(schedule, noises, cfg, batched) | {"engine": engine},
    )


def _apply(op, psi) -> np.ndarray:
    """Each member's sector operators applied to its sector states."""
    return np.matmul(op, psi[..., None])[..., 0]


def _midpoint_step(schedule, mids, tau, c_mid):
    # Hamiltonians of every step and member, shape (n_steps, M, n_sectors, 2, 2).
    h = model.h_sectors(schedule, mids[:, None], c_mid.T)

    def advance(k, psi):
        return _apply(smallmat.expm_unitary(h[k], tau), psi)
    return advance


def _rk4_step(schedule, mids, tau, c_mid):
    n_sub = 10
    h = tau / n_sub
    # Node times per main step: substep edges, then substep midpoints.
    offsets = np.concatenate([np.arange(n_sub + 1), np.arange(n_sub) + 0.5]) / n_sub

    def advance(k, psi):
        # Hamiltonians at the step's nodes, shape (n_nodes, M, n_sectors, 2, 2),
        # built per step so that memory does not grow with the step count.
        # The noise is held at the step midpoint.
        nodes = mids[k] + tau * (offsets - 0.5)
        h_nodes = model.h_sectors(schedule, nodes[:, None], c_mid[:, k])
        edges, halves = h_nodes[: n_sub + 1], h_nodes[n_sub + 1:]
        for i in range(n_sub):
            k1 = -1.0j * _apply(edges[i], psi)
            k2 = -1.0j * _apply(halves[i], psi + 0.5 * h * k1)
            k3 = -1.0j * _apply(halves[i], psi + 0.5 * h * k2)
            k4 = -1.0j * _apply(edges[i + 1], psi + h * k3)
            psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return psi
    return advance


def _evolve(schedule, noise, cfg, initial, make_step, engine) -> metrics.Trajectory:
    noises, batched = _members(noise)
    times, c, states = _propagate(schedule, noises, cfg, initial, make_step, cfg.store_every)
    return _trajectory(schedule, noises, cfg, times, c, states, engine, batched)


def _final_state(schedule, noise, cfg, initial, make_step) -> np.ndarray:
    """Each member's final full state, rebuilt from its sector states.

    Amplitudes outside every sector (|00> and |11> of the pair model) are
    annihilated by the Hamiltonian and keep their initial values.
    """
    noises, batched = _members(noise)
    _, _, states = _propagate(schedule, noises, cfg, initial, make_step, None)
    final = np.repeat(np.array(initial, dtype=complex)[None], len(noises), axis=0)
    final[:, np.array([sec.indices for sec in schedule.sectors])] = states[:, -1]
    return final if batched else final[0]


def evolve_stepwise(schedule, noise, cfg: EvolutionConfig, initial) -> metrics.Trajectory:
    """Midpoint-sampled piecewise-constant propagator product.

    `noise` is one realization (None: noise-free) or a sequence of them.
    A sequence runs all members together, and every column of the result
    gains a leading member axis; `times` stays one-dimensional.
    """
    return _evolve(schedule, noise, cfg, initial, _midpoint_step, "stepwise")


def evolve_oracle(schedule, noise, cfg: EvolutionConfig, initial) -> metrics.Trajectory:
    """Fourth-order Runge-Kutta reference integration at substep dt/10.

    The noise c(t) is held at the step midpoints the stepwise engine uses,
    which isolates the propagator discretization in comparisons.  `noise`
    is taken as in `evolve_stepwise`.
    """
    return _evolve(schedule, noise, cfg, initial, _rk4_step, "oracle")


def final_state_oracle(schedule, noise, cfg, initial) -> np.ndarray:
    """Final state of the Runge-Kutta reference without trajectory recording.

    Shape (dim,), or (M, dim) for a sequence of realizations.
    """
    return _final_state(schedule, noise, cfg, initial, _rk4_step)


def final_state_stepwise(schedule, noise, cfg, initial) -> np.ndarray:
    """Final state of the stepwise engine without trajectory recording.

    Shape (dim,), or (M, dim) for a sequence of realizations.
    """
    return _final_state(schedule, noise, cfg, initial, _midpoint_step)


def decompose_pulse(schedule, noise: NoiseRealization | None,
                    cfg: EvolutionConfig) -> list[PulseStep]:
    """Factor a two-level run into z-frame-accumulated equatorial pulses.

    Each emitted step carries the z increment of that interval and an
    equatorial rotation whose phase is already expressed in the accumulated
    frame, so the whole run reconstructs as one trailing z rotation (of the
    summed z angles) applied after the equatorial product.
    """
    if not isinstance(schedule, SingleQubitSchedule):
        raise UnsupportedScheduleError("pulse decomposition requires a two-level schedule")
    # The sweep is traceless, so each prefix propagator U_k of the stepwise
    # engine is in SU(2), U_k = [[a, -b*], [b, a*]] with (a, b) = U_k|0>.
    # Recording every step from |0> therefore gives the step unitaries
    # u_k = U_k U_{k-1}^dagger.
    _, _, states = _propagate(schedule, [noise], cfg, [1.0, 0.0], _midpoint_step, 1)
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
    return [PulseStep(duration=tau, z_angle=float(d), xy_amplitude=float(g / tau),
                      xy_phase=float(p - 2.0 * theta))
            for d, g, p, theta in zip(delta, gamma, phi, theta_before)]


def reconstruct_propagator(steps) -> np.ndarray:
    """Total unitary implied by a pulse-step list."""
    return prefix_propagators(steps)[-1]


def prefix_propagators(steps):
    """Partial reconstructions after each step (for stepwise faithfulness checks)."""
    acc = np.eye(2, dtype=complex)
    theta = 0.0
    out = []
    for step in steps:
        gamma, phi = step.xy_amplitude * step.duration, step.xy_phase
        c, s = np.cos(gamma), -1.0j * np.sin(gamma)
        acc = np.array([[c, s * np.exp(-1.0j * phi)], [s * np.exp(1.0j * phi), c]]) @ acc
        theta += step.z_angle
        out.append(np.diag([np.exp(-1.0j * theta), np.exp(1.0j * theta)]) @ acc)
    return out

