"""Dense 4x4 reference for the two-qubit models, independent of the sector code.

The pair and spectator Hamiltonians are built on the full four-dimensional
space from Kronecker products of Pauli matrices (qubit order driven (x)
spectator, and qubit 1 (x) qubit 2), and a run is rebuilt as the midpoint
product of dense step exponentials from `numpy.linalg.eigh`.  Only the
schedules' parameters and the noise synthesizer are shared with nia_sim.
"""
import numpy as np

from nia_sim.model import noise_values

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# s1+ s2- + h.c. with s+- = (sx +- i sy)/2.
EXCHANGE = (np.kron(SX, SX) + np.kron(SY, SY)) / 2.0
ZDIFF = (np.kron(SZ, I2) - np.kron(I2, SZ)) / 4.0
ZZ = np.kron(SZ, SZ)
IZ = np.kron(I2, SZ)


def h_pair(s, t, c=0.0):
    """(J0 + c) [x (s1+ s2- + h.c.) + (1 - x)(s1z - s2z)/4], x = t/T."""
    x = t / s.total_time
    return (s.j0 + c) * (x * EXCHANGE + (1.0 - x) * ZDIFF)


def h_spectator(s, t, c=0.0, omega=0.0):
    """Driven sweep (x) I plus (J12/4) sz(x)sz and omega I(x)sz.

    omega is the spectator's own offset in rad/s.  nia_sim takes the
    spectator in its rotating frame, where omega is zero; the term commutes
    with the rest, so it only turns each spectator level's phase.
    """
    x = t / s.total_time
    drive = (s.j0 + c) * (x * SX + (1.0 - x) * SZ)
    return np.kron(drive, I2) + (s.j12 / 4.0) * ZZ + omega * IZ


def expm_hermitian(h, dt):
    """exp(-i h dt) through numpy's dense eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1.0j * w * dt)) @ v.conj().T


def midpoint_final(hamiltonian, schedule, noise, dt, initial):
    """Final state of the midpoint product: n = ceil(T/dt) equal steps of T/n."""
    total_time = schedule.total_time
    n = int(np.ceil(total_time / dt - 1e-9))
    tau = total_time / n
    mids = (np.arange(n) + 0.5) * tau
    c = np.zeros(n) if noise is None else noise_values(noise, 0.5 * tau, tau, n)
    state = np.array(initial, dtype=complex)
    for t, c_k in zip(mids, c):
        state = expm_hermitian(hamiltonian(schedule, t, c_k), tau) @ state
    return state
