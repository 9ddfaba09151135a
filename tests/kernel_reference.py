"""Test-side references for `nia_sim.kernel`.

`kernel_value` evaluates the memory kernel g(t, s) pointwise, with
`gap_integral`'s closed-form noise-free phase or an adaptive trapezoid
quadrature of the noisy one.  `sequential_memory` steps the solver's
implicit-trapezoid recurrence one grid point at a time, the form the
solver's prefix product must reproduce.
"""
import numpy as np

from nia_sim.kernel import _int_sqrt_quadratic, _quadratic_kt, coupling_elements
from nia_sim.model import NoiseRealization, noise_values


def gap_integral(schedule, noise: NoiseRealization | None, s: float, t: float) -> float:
    """int_s^t E(u) du with E = -2 (J0 + c) k, closed form when noise-free."""
    j0 = schedule.j0_rad
    total_time = schedule.total_time
    if noise is None:
        alpha, beta, gamma = _quadratic_kt(schedule)
        lo, hi = s / total_time, t / total_time
        return -2.0 * j0 * total_time * (
            _int_sqrt_quadratic(alpha, beta, gamma, hi)
            - _int_sqrt_quadratic(alpha, beta, gamma, lo))
    if t <= s:
        return 0.0 if t == s else -gap_integral(schedule, noise, t, s)
    res = np.pi / (5.0 * noise.spec.omega_cut_rad)
    n = max(8, int(np.ceil(abs(t - s) / res)) + 1)

    def quad(m):
        grid = np.linspace(s, t, m)
        a, b = schedule.ab(grid)
        e = -2.0 * (j0 + noise_values(noise, s, (t - s) / (m - 1), m)) * np.hypot(a, b)
        return float(np.trapezoid(e, grid))

    # Composite trapezoid, doubled until the relative change is below 1e-8.
    value = quad(n)
    for _ in range(24):
        n = 2 * n - 1
        refined = quad(n)
        if abs(refined - value) <= 1e-8 * max(abs(refined), 1e-300):
            return refined
        value = refined
    return value


def kernel_value(schedule, noise: NoiseRealization | None, t: float, s: float) -> complex:
    """g(t, s) for 0 <= s <= t <= T."""
    if s > t:
        raise ValueError("kernel requires s <= t")
    c01_t = coupling_elements(schedule, t).c01
    c01_s = coupling_elements(schedule, s).c01
    phase = gap_integral(schedule, noise, s, t)
    # -c01(t) <E1|dE0/ds>(s) = +c01(t) c01(s), as <E1|dE0/ds> = -c01 for the real
    # eigenvectors: real positive modulus b0^2/(4 T^2 k^2 k^2)
    return complex(c01_t * c01_s * np.exp(1.0j * phase))


def sequential_memory(p, q, h):
    """(psi0, history) of the trapezoid recurrence, one grid point at a time.

    g(t_i, t_j) = p_i q_j on a grid of spacing h.  The step
    psi_i = psi_{i-1} + h/2 (f_{i-1} + f_i), with f_i = -p_i hist_i and
    hist_i the trapezoid of q psi up to node i, is solved for psi_i in
    closed form; its divisor 1 + h^2/4 p_i q_i is at least 1.
    """
    gain = 1.0 / (1.0 + 0.25 * h * h * (p * q).real)
    half_h = float(0.5 * h)
    p_list, q_list, gain_list = p.tolist(), q.tolist(), gain.tolist()
    psi = [1.0 + 0.0j]
    hist = [0.0j]
    f_prev = -p_list[0] * hist[0]
    for i in range(1, len(p_list)):
        partial = hist[i - 1] + half_h * q_list[i - 1] * psi[i - 1]
        psi.append((psi[i - 1] + half_h * (f_prev - p_list[i] * partial)) * gain_list[i])
        hist.append(partial + half_h * q_list[i] * psi[i])
        f_prev = -p_list[i] * hist[i]
    return np.array(psi), np.array(hist)
