"""Observables, trajectories, and ensemble statistics.

Conventions: alpha is the amplitude of the mapped |0> state, beta of |1>,
and the reported coherence is Im(alpha * conj(beta)), which is invariant
under a global phase.  The tracked eigenlevel is the one continuously
connected to the initial state; for the sweeps here that is the *higher*
eigenvalue at t=0, so tracking goes by overlap continuity, never by energy
ordering.  The recorded gap column is E1 - E0 in the connected labeling
(tracked level first), i.e. -2*(J0+c)*k(t) for these models.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import smallmat


class GridMismatchError(ValueError):
    """Trajectories do not share a time grid / schedule."""


_METRIC_NAMES = ("pop0", "pop1", "im_coherence", "fidelity_e0", "gap", "noise")


@dataclass(frozen=True)
class Trajectory:
    """Per-time metrics of one evolution run plus its reproducibility metadata."""

    times: np.ndarray
    pop0: np.ndarray
    pop1: np.ndarray
    im_coherence: np.ndarray
    fidelity_e0: np.ndarray
    gap: np.ndarray
    noise: np.ndarray
    meta: dict = field(default_factory=dict)

    def metric(self, name: str) -> np.ndarray:
        if name not in _METRIC_NAMES:
            raise KeyError(name)
        return getattr(self, name)


@dataclass(frozen=True)
class EnsembleSummary:
    """Pointwise mean and standard error of trajectory metrics over M runs."""

    times: np.ndarray
    m: int
    mean: dict
    se: dict
    meta: dict = field(default_factory=dict)


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
    rho = reduced_density(sectors)
    # Copies, so that stored columns do not keep the whole density stack alive.
    return rho[..., 0, 0].real.copy(), rho[..., 1, 1].real.copy(), rho[..., 0, 1].imag.copy()


def reduced_density(sectors) -> np.ndarray:
    """2x2 reduced density matrix of the driven qubit, sum_s |psi_s><psi_s|.

    `sectors` holds the driven qubit's amplitudes on each sector, shape
    (..., n_sectors, 2).  The sectors of the spectator model are the
    spectator's sz levels, so the sum is the partial trace over the
    spectator; a one-sector model gives the pure-state projector.
    """
    sectors = np.asarray(sectors, dtype=complex)
    return np.einsum("...si,...sj->...ij", sectors, sectors.conj())


def tracked_eigenvector(h, reference=None) -> np.ndarray:
    """Eigenvector of the tracked level.

    With a reference vector, picks the level of maximal overlap (continuity
    tracking); without one, the highest level, which is where both sweep
    models start.
    """
    es = smallmat.eigh(h)
    if reference is None:
        return es.vectors[:, -1]
    overlaps = np.abs(reference.conj() @ es.vectors)
    return es.vectors[:, int(np.argmax(overlaps))]


def eigenstate_fidelity(state, h, reference=None) -> float:
    """|<E_tracked | state>|^2 for pure states, <E|rho|E> for 2x2 densities."""
    state = np.asarray(state, dtype=complex)
    v = tracked_eigenvector(h, reference)
    if state.ndim == 2:
        return float(np.real(v.conj() @ state @ v))
    return float(abs(np.vdot(v, state)) ** 2)


def aggregate(trajs) -> EnsembleSummary:
    """Pointwise ensemble mean and standard error over identical grids."""
    trajs = list(trajs)
    if not trajs:
        raise ValueError("empty ensemble")
    t0 = trajs[0]
    for tr in trajs[1:]:
        if tr.times.shape != t0.times.shape or not np.array_equal(tr.times, t0.times):
            raise GridMismatchError("trajectories recorded on different time grids")
        if tr.meta.get("schedule") != t0.meta.get("schedule"):
            raise GridMismatchError("trajectories come from different schedules")
    m = len(trajs)
    mean = {}
    se = {}
    for name in _METRIC_NAMES:
        stack = np.stack([tr.metric(name) for tr in trajs])
        mean[name] = stack.mean(axis=0)
        se[name] = stack.std(axis=0, ddof=1) / np.sqrt(m) if m > 1 else np.zeros(stack.shape[1])
    meta = dict(t0.meta)
    meta["realizations"] = m
    meta["seeds"] = [tr.meta.get("realization_index") for tr in trajs]
    return EnsembleSummary(times=t0.times.copy(), m=m, mean=mean, se=se, meta=meta)


def spectator_error(base: Trajectory, embedded: Trajectory, eps_floor: float = 1e-3) -> float:
    """Max relative deviation of the driven-qubit pop0 caused by the spectator.

    The denominator is floored at eps_floor to keep the ratio finite where
    pop0 approaches zero.
    """
    if base.times.shape != embedded.times.shape or not np.array_equal(base.times, embedded.times):
        raise GridMismatchError("trajectories recorded on different time grids")
    denom = np.maximum(base.pop0, eps_floor)
    return float(np.max(np.abs(base.pop0 - embedded.pop0) / denom))
