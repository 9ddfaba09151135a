"""Observables, trajectories, and ensemble statistics.

Conventions: alpha is the amplitude of the mapped |0> state, beta of |1>,
and the reported coherence is Im(alpha * conj(beta)), which is invariant
under a global phase.  The tracked eigenlevel is the one continuously
connected to the initial state.  The levels never cross and the upper one
is exactly |0> at t=0, so a run tracks the upper level if its initial pop0
exceeds pop1 and the lower one otherwise, never by energy ordering.  The
recorded gap column is E1 - E0 in the connected labeling (tracked level
first), i.e. -2*(J0+c)*k(t) for these models.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


METRIC_NAMES = ("pop0", "pop1", "im_coherence", "fidelity_e0", "gap", "noise")
# Smallest pop0 denominator of `spectator_error`.
_POP0_FLOOR = 1e-3


@dataclass(frozen=True)
class Trajectory:
    """Per-time metrics of one evolution run, or of every member of an ensemble."""

    times: np.ndarray
    pop0: np.ndarray
    pop1: np.ndarray
    im_coherence: np.ndarray
    fidelity_e0: np.ndarray
    gap: np.ndarray
    noise: np.ndarray


@dataclass(frozen=True)
class EnsembleSummary:
    """Pointwise mean and standard error of trajectory metrics over M runs."""

    times: np.ndarray
    m: int
    mean: dict
    se: dict


def basis_metrics(state):
    """(pop0, pop1, Im(alpha*conj(beta))) of a normalized two-level state."""
    state = np.asarray(state, dtype=complex)
    if state.shape[-1:] != (2,):
        raise ValueError("expected a two-level state")
    return reduced_qubit_metrics(state[..., None, :])


def reduced_qubit_metrics(sectors):
    """Driven-qubit (pop0, pop1, Im rho01) from its sector states.

    `sectors` has shape (..., n_sectors, 2); see `reduced_density`.
    """
    rho00, rho11, rho01 = reduced_density(sectors)
    # A copy, so that the stored column does not keep rho01 alive.
    return rho00, rho11, rho01.imag.copy()


def reduced_density(sectors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries (rho00, rho11, rho01) of the driven qubit's reduced density matrix.

    rho = sum_s |psi_s><psi_s| over the sector states `sectors`, the driven
    qubit's amplitudes (u_s, v_s) on each sector, shape (..., n_sectors, 2).
    The sectors of the spectator model are the spectator's sz levels, so the
    sum is the partial trace over the spectator; a one-sector model gives
    the pure-state projector.  The populations rho00 = sum |u_s|^2 and
    rho11 = sum |v_s|^2 are real and rho01 = sum u_s conj(v_s) is complex
    (rho10 is its conjugate), each of shape (...): no (..., 2, 2) stack is
    built.
    """
    sectors = np.asarray(sectors, dtype=complex)
    u, v = sectors[..., 0], sectors[..., 1]
    # These round as the entries of the full 2x2 einsum do; a plain
    # (u * v.conj()).sum(-1) would not.
    return ((u.real ** 2 + u.imag ** 2).sum(-1), (v.real ** 2 + v.imag ** 2).sum(-1),
            np.einsum("...s,...s->...", u, v.conj()))


def aggregate(traj: Trajectory) -> EnsembleSummary:
    """Pointwise ensemble mean and standard error over the member axis.

    `traj` is one batched trajectory, whose columns have shape (M, r): a
    whole run's records, or one run of consecutive ones as the step loop
    of `evolve.evolve_stepwise` yields it.  The standard error is the ddof=1 deviation over
    sqrt(M), and zero for a single member.
    """
    if traj.pop0.ndim != 2:
        raise ValueError("aggregate needs a batched trajectory, columns (M, n_records)")
    m = len(traj.pop0)
    mean = {name: getattr(traj, name).mean(axis=0) for name in METRIC_NAMES}
    se = {name: getattr(traj, name).std(axis=0, ddof=1) / np.sqrt(m) if m > 1
          else np.zeros(traj.times.size) for name in METRIC_NAMES}
    return EnsembleSummary(times=traj.times, m=m, mean=mean, se=se)


def concatenate(parts):
    """One result of consecutive runs of records, from each run's result in order.

    A trajectory and a summary join alike: each array, alone or in a dict
    field, along its last (record) axis; any other field, such as
    `EnsembleSummary.m`, is the first run's.  `parts` is emptied and each
    field's runs are freed as soon as it is joined, so a trajectory never
    holds two full copies of its columns.  A single run comes back as it is.
    """
    if len(parts) == 1:
        return parts.pop()
    kind, runs = type(parts[0]), [dict(vars(part)) for part in parts]
    parts.clear()

    def joined(values):
        if isinstance(values[0], dict):
            return {key: joined([v[key] for v in values]) for key in values[0]}
        return np.concatenate(values, axis=-1) if isinstance(values[0], np.ndarray) else values[0]
    return kind(**{name: joined([run.pop(name) for run in runs]) for name in list(runs[0])})


def spectator_error(base: Trajectory, embedded: Trajectory) -> float:
    """Max relative deviation of the driven-qubit pop0 caused by the spectator.

    Both are recorded at the same times, as `config.runs` makes the two
    runs of a spectator check.  The denominator is floored at `_POP0_FLOOR`
    to keep the ratio finite where pop0 approaches zero.
    """
    denom = np.maximum(base.pop0, _POP0_FLOOR)
    return float(np.max(np.abs(base.pop0 - embedded.pop0) / denom))
