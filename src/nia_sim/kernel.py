"""Exact memory-kernel formulation of the adiabatic condition.

For the effective two-level reduction of each schedule (the single-qubit
sweep directly, the two-qubit sweep through its {|01>, |10>} block) the
leakage out of the tracked level obeys a one-component Volterra
integro-differential equation

    d/dt psi0 = -<E0|dE0/dt> psi0 - int_0^t g(t, s) psi0(s) ds,

with the two-time kernel

    g(t, s) = -<E0(t)|dE1/dt> <E1(s)|dE0/ds> exp(i int_s^t E(u) du),

where E = E1 - E0 = -2 (J0 + c) k is the signed gap in the connected
labeling (tracked level first).  The eigenvectors are real in the gauge
used here, so <E0|dE0/dt> vanishes identically and only the memory term
is integrated.  Noise rescales the gap pointwise and leaves the coupling
matrix elements untouched, so it only accelerates the kernel phase; the
kernel modulus factorizes as 1 / (4 T^2 k^2(t) k^2(s)) independent of the
noise.

`solve_memory_equation` tabulates g through the rank-one split
g(t_i, t_j) = p_i q_j, with the couplings from one vectorized
`coupling_elements` call and the gap phase integrated once on the grid.
`kernel_value` and `gap_integral` evaluate g pointwise, with an adaptive
quadrature of the noisy phase, as the reference for checks.

The adiabatic condition is the vanishing of |int_0^t g(t,s) psi0(s) ds|;
the solver computes that magnitude once at every grid point
(`MemorySolution.defect`), and `adiabatic_defect` and `max_defect` read it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NoiseRealization, _check_time, noise_values


class ResolutionError(ValueError):
    """Grid too coarse for the requested kernel or memory computation."""


@dataclass(frozen=True)
class CouplingElements:
    """Analytic eigenbasis matrix elements; each field has the shape of t."""

    c01: np.ndarray  # <E0|dE1/dt>
    c10: np.ndarray  # <E1|dE0/dt>
    c11: np.ndarray  # <E1|dE1/dt>
    gap: np.ndarray  # E1 - E0 (negative: the tracked level is the upper one)


@dataclass(frozen=True)
class MemorySolution:
    """psi0 on a uniform grid and the adiabatic defect |int_0^t g psi0| at each point."""

    times: np.ndarray
    psi0: np.ndarray
    defect: np.ndarray


def coupling_elements(schedule, t) -> CouplingElements:
    """Closed-form <E_m|dE_n/dt> elements and gap of the two-level reduction.

    `t` is a time or an array of times.  Every sweep is linear, so the
    slope (da, db) is taken from the endpoints.
    """
    _check_time(schedule, t)
    total_time = schedule.total_time
    j0 = schedule.j0_rad
    a, b = schedule.ab(t)
    (a0, b0), (a1, b1) = schedule.ab(0.0), schedule.ab(total_time)
    da, db = (a1 - a0) / total_time, (b1 - b0) / total_time
    k = np.hypot(a, b)
    n0sq = (b + k) ** 2 + a ** 2
    # <E0|dH/dt|E1> with gauge-fixed real eigenvectors.
    hdot_me = j0 * (da * ((b + k) ** 2 - a ** 2) - 2.0 * db * a * (b + k)) / n0sq
    gap = -2.0 * j0 * k
    c01 = hdot_me / gap
    return CouplingElements(c01=c01, c10=-c01, c11=np.zeros_like(c01), gap=gap)


def _quadratic_kt(schedule):
    """k(t/T)^2 = alpha x^2 + beta x + gamma for the reduction's (a, b)."""
    a0, b0 = schedule.ab(0.0)
    a1, b1 = schedule.ab(schedule.total_time)
    ah, bh = schedule.ab(0.5 * schedule.total_time)
    k0 = a0 * a0 + b0 * b0
    k1 = a1 * a1 + b1 * b1
    kh = ah * ah + bh * bh
    gamma = float(k0)
    alpha = float(2.0 * k0 + 2.0 * k1 - 4.0 * kh)
    beta = float(k1 - k0 - alpha)
    return alpha, beta, gamma


def _int_sqrt_quadratic(alpha, beta, gamma, x):
    """Antiderivative of sqrt(alpha x^2 + beta x + gamma), alpha > 0, positive discriminant."""
    q = np.sqrt(alpha * x * x + beta * x + gamma)
    disc = 4.0 * alpha * gamma - beta * beta
    u = 2.0 * alpha * x + beta
    return u * q / (4.0 * alpha) + disc / (8.0 * alpha ** 1.5) * np.arcsinh(u / np.sqrt(disc))


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
    # -c01(t) c10(s) = +c01(t) c01(s): real positive modulus 1/(4 T^2 k^2 k^2)
    return complex(c01_t * c01_s * np.exp(1.0j * phase))


def _phase_on_grid(schedule, noise, times) -> np.ndarray:
    """Cumulative int_0^t E, refined below the noise resolution when needed."""
    j0 = schedule.j0_rad
    if noise is None:
        alpha, beta, gamma = _quadratic_kt(schedule)
        x = times / schedule.total_time
        anti = _int_sqrt_quadratic(alpha, beta, gamma, x)
        return -2.0 * j0 * schedule.total_time * (anti - anti[0])
    res = np.pi / (5.0 * noise.spec.omega_cut_rad)
    h = times[1] - times[0]
    sub = max(1, int(np.ceil(h / res)))
    n_fine = (len(times) - 1) * sub + 1
    fine, step = np.linspace(times[0], times[-1], n_fine, retstep=True)
    a, b = schedule.ab(fine)
    k = np.hypot(a, b)
    e = -2.0 * (j0 + noise_values(noise, times[0], step, n_fine)) * k
    cum = np.zeros(n_fine)
    cum[1:] = np.cumsum(0.5 * (e[1:] + e[:-1]) * np.diff(fine))
    return cum[::sub]


def _split_kernel(schedule, noise, times):
    """Rank-one split g(t_i, t_j) = p_i q_j, and the cumulative gap phase it uses."""
    c01 = coupling_elements(schedule, times).c01
    phi = _phase_on_grid(schedule, noise, times)
    p = c01 * np.exp(1.0j * phi)
    q = c01 * np.exp(-1.0j * phi)
    return p, q, phi


def solve_memory_equation(schedule, noise: NoiseRealization | None,
                          n_points: int = 1000) -> MemorySolution:
    """Advance the one-component memory equation on a uniform grid.

    Implicit trapezoid, solved in closed form, with trapezoid history
    quadrature; the rank-one phase split keeps the history integral O(1)
    per step.  The formulation follows Jing et al., Phys. Rev. A (2014).
    """
    if n_points < 500:
        raise ResolutionError("memory grid needs at least 500 points")
    times = np.linspace(0.0, schedule.total_time, n_points)
    h = times[1] - times[0]
    if noise is not None and noise.spec.omega_cut_rad * h > 0.5 * np.pi:
        raise ResolutionError("grid does not resolve the noise cutoff frequency")
    p, q, phi = _split_kernel(schedule, noise, times)
    if noise is None and np.max(np.abs(np.diff(phi))) > 0.5:
        raise ResolutionError("grid does not resolve the kernel phase")

    # The trapezoid step psi_i = psi_{i-1} + h/2 (f_{i-1} + f_i), with
    # f_i = -p_i (partial_i + h/2 q_i psi_i), is linear in psi_i.  Its
    # divisor is at least 1: p_i q_i = c01(t_i)^2 is real and non-negative.
    gain = 1.0 / (1.0 + 0.25 * h * h * (p * q).real)
    # The recurrence runs on Python complex numbers: the same IEEE
    # operations as numpy scalars, without boxing one per element.
    half_h = float(0.5 * h)
    p_list, q_list, gain_list = p.tolist(), q.tolist(), gain.tolist()
    psi = [1.0 + 0.0j]
    hist = [0.0j]  # trapezoid of q psi up to node i
    f_prev = -p_list[0] * hist[0]
    for i in range(1, len(times)):
        partial = hist[i - 1] + half_h * q_list[i - 1] * psi[i - 1]
        psi.append((psi[i - 1] + half_h * (f_prev - p_list[i] * partial)) * gain_list[i])
        hist.append(partial + half_h * q_list[i] * psi[i])
        f_prev = -p_list[i] * hist[i]
    return MemorySolution(times=times, psi0=np.array(psi),
                          defect=np.abs(p * np.array(hist)))


def adiabatic_defect(memory: MemorySolution, t: float) -> float:
    """|int_0^t g(t, s) psi0(s) ds| at a grid time of the memory solution."""
    idx = int(np.argmin(np.abs(memory.times - t)))
    if abs(memory.times[idx] - t) > 1e-9 * max(memory.times[-1], 1.0):
        raise ValueError("t must lie on the memory solution grid")
    return float(memory.defect[idx])


def max_defect(memory: MemorySolution) -> float:
    """Largest adiabatic defect over the whole grid."""
    return float(np.max(memory.defect))
