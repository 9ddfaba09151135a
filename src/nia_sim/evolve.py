"""Time evolution engines and the rotating-frame pulse decomposition.

Every schedule is evolved as its exact 2x2 sectors (see `model.Sector`):
the full state is split into sector states on input and rebuilt only at
the output of `final_state_*`.  Two independent integrators share one step
loop.  `evolve_stepwise` is the production engine: a product of exact step
unitaries with the Hamiltonian (and noise) sampled at step midpoints.
`evolve_oracle` is a classic fourth-order Runge-Kutta integration at a
tenth of the step size, used to cross-check the stepwise engine; it
evaluates the noise analytically at the integrator nodes unless asked to
sample-and-hold at the same midpoints the stepwise engine uses.

`decompose_pulse` factors a two-level run into spectrometer-style pulse
steps: per step an equatorial rotation whose phase lives in the accumulated
z-rotated frame, plus one z rotation applied at the end.  The per-step
decomposition is exact (an Euler-style z * equatorial split of each step
unitary), so the reconstruction reproduces the direct propagator to
rounding accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, model, smallmat
from .model import (NoiseRealization, SingleQubitSchedule, SpectatorSchedule,
                    h_single, noise_values)


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


def _schedule_meta(schedule, noise, cfg):
    if isinstance(schedule, SpectatorSchedule):
        system = "spectator"
        j0 = schedule.base.j0
        extra = (schedule.j12, schedule.omega_spec)
    else:
        system = "single" if isinstance(schedule, SingleQubitSchedule) else "pair"
        j0 = schedule.j0
        extra = ()
    meta = {
        "schedule": (system, j0, schedule.total_time, schedule.convention.value) + extra,
        "system": system,
        "j0": j0,
        "total_time": schedule.total_time,
        "convention": schedule.convention.value,
        "dt": cfg.dt,
        "store_every": cfg.store_every,
    }
    if noise is not None:
        meta.update(
            seed=noise.spec.seed,
            realization_index=noise.index,
            noise_amplitude=noise.spec.amplitude,
            noise_omega0=noise.spec.omega0,
            noise_omega_cut=noise.spec.omega_cut,
            noise_normalization=noise.spec.normalization.value,
        )
    return meta


def _noise_at(noise, times) -> np.ndarray:
    if noise is None:
        return np.zeros(len(times))
    values = noise_values(noise, times)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericEvolutionError(f"non-finite noise value at sample {bad}")
    return values


def _propagate(schedule, noise, cfg, initial, make_step, store_every):
    """The step loop both engines share.

    `make_step(schedule, noise, starts, durations)` returns the engine's
    advance(k, psi) over the sector states psi, shape (n_sectors, 2).
    Returns the record times and the sector states at t = 0 and after each
    record step.  With cfg.renormalize, each recorded state has its norm
    restored to the value at t = 0: every sector evolves unitarily, so
    this removes rounding drift only.
    """
    state = np.asarray(initial, dtype=complex)
    if state.shape != (schedule.dim,):
        raise ValueError(f"initial state must have dimension {schedule.dim}")
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    starts, durations = _plan_steps(schedule.total_time, cfg.dt)
    advance = make_step(schedule, noise, starts, durations)
    # Record every store_every-th step and the last; None records the last only.
    n = len(starts)
    steps = np.arange(n)
    record = steps[((steps + 1) % (store_every or n) == 0) | (steps == n - 1)]
    psi = model.sector_states(schedule, state)
    norm0 = np.linalg.norm(psi)
    states = [psi]
    next_rec = 0
    for k in range(n):
        psi = advance(k, psi)
        if not np.all(np.isfinite(psi)):
            raise NumericEvolutionError(f"non-finite state after step {k}")
        if record[next_rec] == k:
            if cfg.renormalize:
                psi = psi * (norm0 / np.linalg.norm(psi))
            next_rec += 1
            states.append(psi)
    times = np.concatenate([[0.0], starts[record] + durations[record]])
    return times, np.array(states)


def _full_state(schedule, initial, psi) -> np.ndarray:
    """The full state with its sector amplitudes replaced by psi.

    Amplitudes outside every sector (|00> and |11> of the pair model) are
    annihilated by the Hamiltonian and keep their initial values.
    """
    state = np.array(initial, dtype=complex)
    state[np.array([sec.indices for sec in schedule.sectors])] = psi
    return state


def _trajectory(schedule, noise, cfg, times, states, engine) -> metrics.Trajectory:
    """Per-record metrics with the continuity-tracked eigenlevel.

    Tracking runs on the direction operator a(t) sx + b(t) sz, whose
    eigenvectors are untouched by the noise prefactor (the noise only
    rescales eigenvalues, including through zero in strong-noise runs).
    Its levels are +-k with closed-form real eigenvectors (b + k, a) and
    (-a, b + k), normalized.  They never cross on [0, T], so continuity
    tracking keeps the level chosen at t = 0: the one of larger overlap
    with the initial state, the lower one on a tie.
    """
    c = _noise_at(noise, times)
    a, b = schedule.ab(times)
    k = np.hypot(a, b)
    norm = np.hypot(b + k, a)
    upper = np.stack([(b + k) / norm, a / norm], axis=-1)
    lower = np.stack([-a / norm, (b + k) / norm], axis=-1)
    rho = metrics.reduced_density(states)

    def overlap(v, r):
        # v is real, so <v|rho|v> only sees the real (symmetric) part of rho.
        return np.einsum("...i,...ij,...j->...", v, r.real, v)

    track_upper = overlap(upper[0], rho[0]) > overlap(lower[0], rho[0])
    pop0, pop1, im = metrics.reduced_qubit_metrics(states)
    return metrics.Trajectory(
        times=times, pop0=pop0, pop1=pop1, im_coherence=im,
        fidelity_e0=overlap(upper if track_upper else lower, rho),
        gap=(-2.0 if track_upper else 2.0) * (schedule.j0_rad + c) * k, noise=c,
        meta=_schedule_meta(schedule, noise, cfg) | {"engine": engine},
    )


def _midpoint_step(schedule, noise, starts, durations):
    mids = starts + 0.5 * durations
    c_mid = _noise_at(noise, mids)

    def advance(k, psi):
        h = model.h_sectors(schedule, mids[k], c_mid[k])
        return np.array([smallmat.expm_unitary(h_s, durations[k]) @ psi_s
                         for h_s, psi_s in zip(h, psi)])
    return advance


def _apply(h, psi) -> np.ndarray:
    """Each sector's Hamiltonian applied to its state: (S, 2, 2) x (S, 2)."""
    return np.matmul(h, psi[:, :, None])[:, :, 0]


def _rk4_step(noise_sampling):
    if noise_sampling not in ("exact", "hold"):
        raise ValueError("noise_sampling must be 'exact' or 'hold'")
    n_sub = 10
    # Node times per main step: substep edges, then substep midpoints.
    offsets = np.concatenate([np.arange(n_sub + 1), np.arange(n_sub) + 0.5]) / n_sub

    def make_step(schedule, noise, starts, durations):
        total_time = schedule.total_time
        if noise is None:
            c_nodes = np.zeros((len(starts), offsets.size))
        elif noise_sampling == "hold":
            c_mid = _noise_at(noise, starts + 0.5 * durations)
            c_nodes = np.repeat(c_mid[:, None], offsets.size, axis=1)
        else:
            node_times = starts[:, None] + durations[:, None] * offsets[None, :]
            c_nodes = _noise_at(noise, node_times.ravel()).reshape(node_times.shape)

        def advance(k, psi):
            h = durations[k] / n_sub
            edges = c_nodes[k, : n_sub + 1]
            mids = c_nodes[k, n_sub + 1:]
            for i in range(n_sub):
                t0 = starts[k] + i * h
                h_a = model.h_sectors(schedule, t0, edges[i])
                h_m = model.h_sectors(schedule, min(t0 + 0.5 * h, total_time), mids[i])
                h_b = model.h_sectors(schedule, min(t0 + h, total_time), edges[i + 1])
                k1 = -1.0j * _apply(h_a, psi)
                k2 = -1.0j * _apply(h_m, psi + 0.5 * h * k1)
                k3 = -1.0j * _apply(h_m, psi + 0.5 * h * k2)
                k4 = -1.0j * _apply(h_b, psi + h * k3)
                psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            return psi
        return advance
    return make_step


def evolve_stepwise(schedule, noise: NoiseRealization | None,
                    cfg: EvolutionConfig, initial) -> metrics.Trajectory:
    """Midpoint-sampled piecewise-constant propagator product."""
    times, states = _propagate(schedule, noise, cfg, initial, _midpoint_step,
                               cfg.store_every)
    return _trajectory(schedule, noise, cfg, times, states, "stepwise")


def evolve_oracle(schedule, noise: NoiseRealization | None,
                  cfg: EvolutionConfig, initial,
                  noise_sampling: str = "exact") -> metrics.Trajectory:
    """Fourth-order Runge-Kutta reference integration at substep dt/10.

    noise_sampling "exact" evaluates c(t) analytically at the integrator
    nodes; "hold" freezes it at the step midpoints the stepwise engine
    uses, isolating the propagator discretization in comparisons.
    """
    times, states = _propagate(schedule, noise, cfg, initial, _rk4_step(noise_sampling),
                               cfg.store_every)
    return _trajectory(schedule, noise, cfg, times, states, "oracle")


def final_state_oracle(schedule, noise, cfg, initial,
                       noise_sampling: str = "exact") -> np.ndarray:
    """Final state of the Runge-Kutta reference without trajectory recording."""
    _, states = _propagate(schedule, noise, cfg, initial, _rk4_step(noise_sampling), None)
    return _full_state(schedule, initial, states[-1])


def final_state_stepwise(schedule, noise, cfg, initial) -> np.ndarray:
    """Final state of the stepwise engine without trajectory recording."""
    _, states = _propagate(schedule, noise, cfg, initial, _midpoint_step, None)
    return _full_state(schedule, initial, states[-1])


def _su2_z_equatorial(u: np.ndarray):
    """Exact split u = exp(-i delta sz) * exp(-i gamma (cos phi sx + sin phi sy))."""
    u00, u01 = u[0, 0], u[0, 1]
    gamma = float(np.arctan2(abs(u01), abs(u00)))
    delta = 0.0 if abs(u00) == 0.0 else float(-np.angle(u00))
    if abs(u01) < 1e-300:
        phi = 0.0
    else:
        phi = float(-np.angle(1.0j * np.exp(1.0j * delta) * u01))
    return delta, gamma, phi


def _z_rotation(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1.0j * theta), np.exp(1.0j * theta)])


def _equatorial(gamma: float, phi: float) -> np.ndarray:
    c, s = np.cos(gamma), np.sin(gamma)
    return np.array([[c, -1.0j * s * np.exp(-1.0j * phi)],
                     [-1.0j * s * np.exp(1.0j * phi), c]])


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
    starts, durations = _plan_steps(schedule.total_time, cfg.dt)
    mids = starts + 0.5 * durations
    c_mid = _noise_at(noise, mids)
    steps = []
    theta_acc = 0.0
    for k in range(len(starts)):
        u = smallmat.expm_unitary(h_single(schedule, mids[k], c_mid[k]), durations[k])
        delta, gamma, phi = _su2_z_equatorial(u)
        steps.append(PulseStep(duration=float(durations[k]), z_angle=delta,
                               xy_amplitude=gamma / durations[k],
                               xy_phase=phi - 2.0 * theta_acc))
        theta_acc += delta
    return steps


def reconstruct_propagator(steps) -> np.ndarray:
    """Total unitary implied by a pulse-step list."""
    return prefix_propagators(steps)[-1]


def prefix_propagators(steps):
    """Partial reconstructions after each step (for stepwise faithfulness checks)."""
    acc = np.eye(2, dtype=complex)
    theta = 0.0
    out = []
    for step in steps:
        acc = _equatorial(step.xy_amplitude * step.duration, step.xy_phase) @ acc
        theta += step.z_angle
        out.append(_z_rotation(theta) @ acc)
    return out


def accumulate_phases(schedule, noise: NoiseRealization | None, times) -> np.ndarray:
    """Dynamical phases theta_m(t) = -integral of E_m, trapezoid on the grid.

    Returns shape (len(times), 2) for the ascending levels of the effective
    two-level model.
    """
    times = np.asarray(times, dtype=float)
    a, b = schedule.ab(times)
    k = np.hypot(a, b)
    c = _noise_at(noise, times)
    upper = (schedule.j0_rad + c) * k
    theta_upper = -_cumtrapz(upper, times)
    return np.column_stack([-theta_upper, theta_upper])


def _cumtrapz(y, x):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


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
