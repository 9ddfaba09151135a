"""Test-side references for the Runge-Kutta oracle in `nia_sim.evolve`.

`h_sectors` tabulates each sector's 2x2 Hamiltonian as a matrix, and
`sequential_rk4_step` is an engine for `evolve._propagate` that takes the
oracle's substeps one at a time, applying the four stages to the states.
The oracle composes the same substeps as transfer matrices; this loop is
the form it must reproduce.
"""
import numpy as np

from nia_sim.model import h_single
from nia_sim.smallmat import SIGMA_Z

_IDENTITY = np.eye(2, dtype=complex)


def h_sectors(schedule, t, c=0.0) -> np.ndarray:
    """Hamiltonian on each sector of `schedule`, broadcast shape of t and c + (n_sectors, 2, 2)."""
    offsets = np.array([sec.z_offset * SIGMA_Z for sec in schedule.sectors])
    shifts = np.array([sec.shift * _IDENTITY for sec in schedule.sectors])
    return h_single(schedule, t, c)[..., None, :, :] + offsets + shifts


def _apply(op, psi) -> np.ndarray:
    """Each member's sector operators applied to its sector states."""
    return np.matmul(op, psi[..., None])[..., 0]


def sequential_rk4_step(schedule, mids, tau, c_mid):
    """The oracle's make_step, one step and one substep at a time."""
    n_sub = 10
    h = tau / n_sub
    # Node times per main step: substep edges, then substep midpoints.
    offsets = np.concatenate([np.arange(n_sub + 1), np.arange(n_sub) + 0.5]) / n_sub

    def advance(start, stop, psi):
        out = np.empty((stop - start,) + psi.shape, dtype=complex)
        for k in range(start, stop):
            # Hamiltonians at the step's nodes, shape (n_nodes, M, n_sectors, 2, 2).
            # The noise is held at the step midpoint.
            nodes = mids[k] + tau * (offsets - 0.5)
            h_nodes = h_sectors(schedule, nodes[:, None], c_mid[:, k])
            edges, halves = h_nodes[: n_sub + 1], h_nodes[n_sub + 1:]
            for i in range(n_sub):
                k1 = -1.0j * _apply(edges[i], psi)
                k2 = -1.0j * _apply(halves[i], psi + 0.5 * h * k1)
                k3 = -1.0j * _apply(halves[i], psi + 0.5 * h * k2)
                k4 = -1.0j * _apply(edges[i + 1], psi + h * k3)
                psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[k - start] = psi
        return out
    return advance
