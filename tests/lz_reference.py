"""Exact noise-free reference: the finite-time Landau-Zener solution.

On a sector with offset zeta the noise-free Hamiltonian is
J0 [a sx + b sz] + zeta sz, with a = t/T and b = b0 (1 - t/T): linear in
t, so the sweep is a Landau-Zener crossing over a finite window.  With
r = sqrt(1 + b0^2) and B = J0 b0 + zeta it equals beta (t - t_c) s_n +
Delta s_m, where n = (1, 0, -b0)/r and m = (b0, 0, 1)/r, beta = J0 r/T,
Delta = B/r and t_c = B b0 T/(J0 r^2).  The rotation V = R_y(phi)^dagger,
sin phi = 1/r and cos phi = -b0/r, takes s_n to sz and s_m to -sx, so in
V's frame i d/dtau (c1, c2) = (beta tau sz - Delta sx)(c1, c2), tau = t - t_c.
Then c2'' + (beta^2 tau^2 + Delta^2 - i beta) c2 = 0, solved by the
parabolic cylinder functions D_nu(+-s tau), s = sqrt(2 beta) e^{-i pi/4},
nu = i Delta^2/(2 beta); and c1 = -(beta tau c2 + i c2')/Delta.  The
propagator over the window is the ratio of the fundamental matrices at its
ends.  Source: Vitanov and Garraway, Phys. Rev. A 53, 4288 (1996).
"""
import mpmath
import numpy as np

DIGITS = 30


def sector_propagator(schedule, z_offset=0.0) -> np.ndarray:
    """U(T, 0) of one noise-free sector, as a complex (2, 2) array."""
    with mpmath.workdps(DIGITS):
        j0, total = mpmath.mpf(schedule.j0), mpmath.mpf(schedule.total_time)
        b0 = mpmath.mpf(schedule.b0)
        r = mpmath.sqrt(1 + b0 * b0)
        drift = j0 * b0 + mpmath.mpf(z_offset)
        beta, delta = j0 * r / total, drift / r
        t_c = drift * b0 / (r * beta)
        s = mpmath.sqrt(2 * beta) * mpmath.expjpi(mpmath.mpf(-1) / 4)
        nu = 1j * delta ** 2 / (2 * beta)

        def fundamental(tau):
            # Columns: the solutions from D_nu(s tau) and D_nu(-s tau), with
            # D_nu'(z) = z D_nu(z)/2 - D_{nu+1}(z).
            columns = []
            for sign in (1, -1):
                z = sign * s * tau
                c2 = mpmath.pcfd(nu, z)
                dc2 = sign * s * (z * c2 / 2 - mpmath.pcfd(nu + 1, z))
                columns.append([-(beta * tau * c2 + 1j * dc2) / delta, c2])
            return mpmath.matrix(columns).T

        frame = fundamental(total - t_c) * mpmath.inverse(fundamental(-t_c))
        half = mpmath.atan2(1, -b0) / 2
        rot = mpmath.matrix([[mpmath.cos(half), -mpmath.sin(half)],
                             [mpmath.sin(half), mpmath.cos(half)]])
        u = rot * frame * rot.T
        return np.array([[complex(u[i, j]) for j in range(2)] for i in range(2)])


def final_sector_states(schedule, initial) -> np.ndarray:
    """Each sector's exact state at T from the full initial state, shape (n_sectors, 2)."""
    initial = np.asarray(initial, dtype=complex)
    return np.array([sector_propagator(schedule, sec.z_offset) @ initial[list(sec.indices)]
                     for sec in schedule.sectors])
