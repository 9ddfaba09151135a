"""Time evolution engines and the rotating-frame pulse decomposition.

Every schedule is evolved as its exact 2x2 sectors (see `model.Sector`):
the full state is split into sector states on input and rebuilt only at
the output of `final_state_*`.  An ensemble is batched over its members:
every engine takes one noise realization or a sequence of them, and the
one step loop (`_propagate`) advances the sector states of all M members,
shape (M, n_sectors, 2), together.  Noise is synthesized per member; each
step is one vectorized operation over members and sectors.

Two independent integrators share that loop.  `evolve_stepwise` is the
production engine: a product of exact step unitaries with the Hamiltonian
(and noise) sampled at step midpoints, built by one `smallmat.expm_unitary`
call per step.  `evolve_oracle` is a classic fourth-order Runge-Kutta
integration at a tenth of the step size, used to cross-check the stepwise
engine; it evaluates the noise analytically at the integrator nodes unless
asked to sample-and-hold at the same midpoints the stepwise engine uses.

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


@dataclass(frozen=True)
class AdiabaticFrameState:
    """Level coefficients psi_m and dynamical phases theta_m (ascending levels)."""

    coeffs: np.ndarray
    phases: np.ndarray


def _plan_steps(total_time: float, dt: float):
    """Step boundaries: uniform dt with the last step truncated onto T."""
    n = int(np.ceil(total_time / dt - 1e-9))
    starts = np.arange(n) * dt
    durations = np.full(n, dt)
    durations[-1] = total_time - starts[-1]
    return starts, durations


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


def _noise_at(noises, times) -> np.ndarray:
    """c(t) of every member on `times`, shape (M, len(times)); zero without noise."""
    values = np.array([np.zeros(len(times)) if r is None else noise_values(r, times)
                       for r in noises])
    if not np.all(np.isfinite(values)):
        member, sample = np.argwhere(~np.isfinite(values))[0]
        raise NumericEvolutionError(f"non-finite noise value at sample {sample}"
                                    f" of member {member}")
    return values


def _propagate(schedule, noises, cfg, initial, make_step, store_every):
    """The one step loop of every engine, over all members at once.

    `make_step(schedule, noises, starts, durations)` returns the engine's
    advance(k, psi) over the sector states psi of all members, shape
    (M, n_sectors, 2); every member starts from `initial`.  Returns the
    record times, every member's noise at them, shape (M, n_records), and
    the sector states at t = 0 and after each record step, shape
    (M, n_records, n_sectors, 2).  With cfg.renormalize, each recorded
    state has its norm restored to the value at t = 0: every sector evolves
    unitarily, so this removes rounding drift only.
    """
    state = np.asarray(initial, dtype=complex)
    if state.shape != (schedule.dim,):
        raise ValueError(f"initial state must have dimension {schedule.dim}")
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    starts, durations = _plan_steps(schedule.total_time, cfg.dt)
    # Record every store_every-th step and the last; None records the last only.
    n = len(starts)
    steps = np.arange(n)
    record = steps[((steps + 1) % (store_every or n) == 0) | (steps == n - 1)]
    times = np.concatenate([[0.0], starts[record] + durations[record]])
    # Noise comes first, here and in make_step: its synthesis transients set
    # the peak memory of a noisy run, and heap blocks freed before them stay
    # resident beneath them, so the per-step arrays are built afterwards.
    c = _noise_at(noises, times)
    advance = make_step(schedule, noises, starts, durations)
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
    return times, c, np.stack(states, axis=1)


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
    pop0, pop1, im = metrics.reduced_qubit_metrics(states)
    columns = {
        "pop0": pop0, "pop1": pop1, "im_coherence": im,
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


def _midpoint_step(schedule, noises, starts, durations):
    mids = starts + 0.5 * durations
    # Hamiltonians of every step and member, shape (n_steps, M, n_sectors, 2, 2).
    h = model.h_sectors(schedule, mids[:, None], _noise_at(noises, mids).T)

    def advance(k, psi):
        return _apply(smallmat.expm_unitary(h[k], durations[k]), psi)
    return advance


def _rk4_step(noise_sampling):
    if noise_sampling not in ("exact", "hold"):
        raise ValueError("noise_sampling must be 'exact' or 'hold'")
    n_sub = 10
    # Node times per main step: substep edges, then substep midpoints.
    offsets = np.concatenate([np.arange(n_sub + 1), np.arange(n_sub) + 0.5]) / n_sub

    def make_step(schedule, noises, starts, durations):
        nodes = np.minimum(starts[:, None] + durations[:, None] * offsets,
                           schedule.total_time)
        if noise_sampling == "hold":
            c_mid = _noise_at(noises, starts + 0.5 * durations)
            c_nodes = np.repeat(c_mid[:, :, None], offsets.size, axis=2)
        else:
            c_nodes = _noise_at(noises, nodes.ravel()).reshape((len(noises),) + nodes.shape)
        # Hamiltonians at every node, shape (n_steps, n_nodes, M, n_sectors, 2, 2).
        h_nodes = model.h_sectors(schedule, nodes[..., None], c_nodes.transpose(1, 2, 0))

        def advance(k, psi):
            h = durations[k] / n_sub
            edges, mids = h_nodes[k, : n_sub + 1], h_nodes[k, n_sub + 1:]
            for i in range(n_sub):
                k1 = -1.0j * _apply(edges[i], psi)
                k2 = -1.0j * _apply(mids[i], psi + 0.5 * h * k1)
                k3 = -1.0j * _apply(mids[i], psi + 0.5 * h * k2)
                k4 = -1.0j * _apply(edges[i + 1], psi + h * k3)
                psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            return psi
        return advance
    return make_step


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


def evolve_oracle(schedule, noise, cfg: EvolutionConfig, initial,
                  noise_sampling: str = "exact") -> metrics.Trajectory:
    """Fourth-order Runge-Kutta reference integration at substep dt/10.

    noise_sampling "exact" evaluates c(t) analytically at the integrator
    nodes; "hold" freezes it at the step midpoints the stepwise engine
    uses, isolating the propagator discretization in comparisons.  `noise`
    is taken as in `evolve_stepwise`.
    """
    return _evolve(schedule, noise, cfg, initial, _rk4_step(noise_sampling), "oracle")


def final_state_oracle(schedule, noise, cfg, initial,
                       noise_sampling: str = "exact") -> np.ndarray:
    """Final state of the Runge-Kutta reference without trajectory recording.

    Shape (dim,), or (M, dim) for a sequence of realizations.
    """
    return _final_state(schedule, noise, cfg, initial, _rk4_step(noise_sampling))


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
    _, durations = _plan_steps(schedule.total_time, cfg.dt)
    return [PulseStep(duration=float(tau), z_angle=float(d), xy_amplitude=float(g / tau),
                      xy_phase=float(p - 2.0 * theta))
            for tau, d, g, p, theta in zip(durations, delta, gamma, phi, theta_before)]


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


def accumulate_phases(schedule, noise: NoiseRealization | None, times) -> np.ndarray:
    """Dynamical phases theta_m(t) = -integral of E_m, trapezoid on the grid.

    Returns shape (len(times), 2) for the ascending levels of the effective
    two-level model.
    """
    times = np.asarray(times, dtype=float)
    a, b = schedule.ab(times)
    k = np.hypot(a, b)
    upper = (schedule.j0_rad + _noise_at([noise], times)[0]) * k
    theta_upper = np.zeros_like(upper)
    theta_upper[1:] = -np.cumsum(0.5 * (upper[1:] + upper[:-1]) * np.diff(times))
    return np.column_stack([-theta_upper, theta_upper])


def project_adiabatic(traj_state, h, phases) -> AdiabaticFrameState:
    """Adiabatic-frame coefficients psi_m = exp(-i theta_m) <E_m | psi>."""
    es = smallmat.eigh(h)
    phases = np.asarray(phases, dtype=float)
    if phases.shape != es.values.shape:
        raise ValueError("one accumulated phase per eigenlevel required")
    coeffs = np.exp(-1.0j * phases) * (es.vectors.conj().T @ np.asarray(traj_state, dtype=complex))
    norm = float(np.sum(np.abs(coeffs) ** 2))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("adiabatic-frame coefficients lost normalization")
    return AdiabaticFrameState(coeffs=coeffs, phases=phases)
