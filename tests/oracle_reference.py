"""Test-side references for the Runge-Kutta oracle in `nia_sim.evolve`.

`h_single` and `h_sectors` tabulate the drive and each sector's 2x2
Hamiltonian as matrices.  `evolve_oracle` runs the oracle with trajectory
recording.  `gather` joins the runs of records that `evolve._propagate`
yields.  `sequential_rk4_step` is an engine for `evolve._propagate`
that takes the oracle's substeps one at a time, applying the four stages
to the identity's columns; the oracle composes the same substeps as
transfer matrices, each held as its first column, and this loop is the
form it must reproduce.
"""
import numpy as np

from dense_reference import SX, SZ
from nia_sim import evolve
from nia_sim.model import _check_time

_IDENTITY = np.eye(2, dtype=complex)


def h_single(s, t, c=0.0) -> np.ndarray:
    """(J0 + c) [a(t) sx + b(t) sz], with c already in rad/s.

    This is the single-qubit Hamiltonian and the drive on every sector of
    the other schedules.  Times t and noise values c broadcast against each
    other; the result has their broadcast shape + (2, 2).
    """
    _check_time(s, t)
    a, b = s.ab(t)
    direction = np.multiply.outer(a, SX) + np.multiply.outer(b, SZ)
    return (s.j0 + np.asarray(c))[..., None, None] * direction


def h_sectors(schedule, t, c=0.0) -> np.ndarray:
    """Hamiltonian on each sector of `schedule`, broadcast shape of t and c + (n_sectors, 2, 2)."""
    offsets = np.array([sec.z_offset * SZ for sec in schedule.sectors])
    return h_single(schedule, t, c)[..., None, :, :] + offsets


def evolve_oracle(schedule, noise, cfg, initial):
    """Fourth-order Runge-Kutta reference integration at substep dt/10.

    The noise c(t) is held at the step midpoints the stepwise engine uses,
    which isolates the propagator discretization in comparisons.  `noise`
    is taken as in `evolve.evolve_stepwise`.
    """
    return evolve._evolve(schedule, noise, cfg, initial, evolve._rk4_step)


def gather(runs):
    """The record times, noise and states of all `evolve._propagate` runs, joined."""
    times, c, states = zip(*runs)
    return np.concatenate(times), np.concatenate(c, axis=1), np.concatenate(states, axis=1)


def _apply(op, psi) -> np.ndarray:
    """Each member's sector operators applied to its sector states."""
    return np.matmul(op, psi[..., None])[..., 0]


def sequential_rk4_step(schedule, mids, tau, c_mid):
    """The oracle's make_step, one step and one substep at a time."""
    n_sub = 10
    h = tau / n_sub
    # Node times per main step: substep edges, then substep midpoints.
    offsets = np.concatenate([np.arange(n_sub + 1), np.arange(n_sub) + 0.5]) / n_sub
    # The identity's two columns on every member and sector, shape (2, M, n_sectors, 2).
    columns = np.broadcast_to(_IDENTITY[:, None, None, :],
                              (2, len(c_mid), len(schedule.sectors), 2))

    def advance(start, stop):
        out = np.empty((stop - start,) + columns.shape, dtype=complex)
        for k in range(start, stop):
            # Hamiltonians at the step's nodes, shape (n_nodes, M, n_sectors, 2, 2).
            # The noise is held at the step midpoint.
            nodes = mids[k] + tau * (offsets - 0.5)
            h_nodes = h_sectors(schedule, nodes[:, None], c_mid[:, k])
            edges, halves = h_nodes[: n_sub + 1], h_nodes[n_sub + 1:]
            psi = columns
            for i in range(n_sub):
                k1 = -1.0j * _apply(edges[i], psi)
                k2 = -1.0j * _apply(halves[i], psi + 0.5 * h * k1)
                k3 = -1.0j * _apply(halves[i], psi + 0.5 * h * k2)
                k4 = -1.0j * _apply(edges[i + 1], psi + h * k3)
                psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[k - start] = psi
        # out[:, j, ..., i] is entry (i, j) of each step's matrix R, a real
        # polynomial in the pure quaternion -i h H, so [[u, -conj(v)], [v, conj(u)]]
        # to rounding (measured: exactly, on every preset and the spectator);
        # the engine protocol takes its first column (u, v).
        u, v = out[:, 0, ..., 0], out[:, 0, ..., 1]
        form = np.maximum(np.abs(out[:, 1, ..., 1] - u.conj()),
                          np.abs(out[:, 1, ..., 0] + v.conj()))
        assert form.max() <= 4.0 * np.finfo(float).eps, form.max()
        return u, v
    return advance
