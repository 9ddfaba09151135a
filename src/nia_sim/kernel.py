"""Exact memory-kernel formulation of the adiabatic condition.

For the effective two-level reduction of the one-sector schedules (the
single-qubit sweep directly, the two-qubit sweep through its {|01>, |10>}
block) the leakage out of the tracked level obeys a one-component Volterra
integro-differential equation

    d/dt psi0 = -<E0|dE0/dt> psi0 - int_0^t g(t, s) psi0(s) ds,

with the two-time kernel

    g(t, s) = -<E0(t)|dE1/dt> <E1(s)|dE0/ds> exp(i int_s^t E(u) du),

where E = E1 - E0 = -2 (J0 + c) k is the signed gap in the connected
labeling (tracked level first).  The eigenvectors are real in the gauge
used here, so <E0|dE0/dt> vanishes identically and only the memory term
is integrated.  Noise rescales the gap pointwise and leaves the coupling
matrix elements untouched, so it only accelerates the kernel phase; the
kernel modulus factorizes as b0^2 / (4 T^2 k^2(t) k^2(s)) independent of
the noise.

`solve_memory_equation` tabulates g through the rank-one split
g(t_i, t_j) = p_i conj(p_j), with the couplings from one vectorized
`coupling_elements` call and the gap phase integrated once on the grid,
and composes its trapezoid steps, each the pair (a, c) of its matrix
[[a, -conj(c)], [c, conj(a)]], as a log-depth prefix product
(`smallmat.prefix_products`, the scan all three solvers share: this one,
the stepwise engine and the Runge-Kutta oracle).  The pointwise g, with an
adaptive quadrature of the noisy phase, and the sequential form of the
recurrence are test-side references (`tests/kernel_reference.py`).

The spectator model is two sectors with offsets, which this equation does
not cover: `solve_memory_equation` refuses it, and `config.validate` refuses
a `kernel` run with system = spectator before any output.

The adiabatic condition is the vanishing of |int_0^t g(t,s) psi0(s) ds|;
the solver computes that magnitude once at every grid point
(`MemorySolution.defect`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import smallmat
from .model import NoiseRealization, _check_time, noise_values


class ResolutionError(ValueError):
    """Grid too coarse for the requested kernel or memory computation."""


@dataclass(frozen=True)
class CouplingElements:
    """Analytic eigenbasis matrix elements; each field has the shape of t."""

    c01: np.ndarray  # <E0|dE1/dt> = -<E1|dE0/dt>; the real eigenvectors' <En|dEn/dt> = 0
    gap: np.ndarray  # E1 - E0 (negative: the tracked level is the upper one)


@dataclass(frozen=True)
class MemorySolution:
    """psi0 on a uniform grid and the adiabatic defect |int_0^t g psi0| at each point."""

    times: np.ndarray
    psi0: np.ndarray
    defect: np.ndarray


def coupling_elements(schedule, t) -> CouplingElements:
    """Closed-form <E_m|dE_n/dt> elements and gap of the two-level reduction.

    `t` is a time or an array of times.  The real eigenvectors of
    a sx + b sz turn at half the rate of the mixing angle atan2(a, b), which
    the sweep a = t/T, b = b0 (1 - t/T) turns at b0 / (T k^2); so
    c01 = -b0 / (2 T k^2).
    """
    _check_time(schedule, t)
    a, b = schedule.ab(t)
    k = np.hypot(a, b)
    c01 = -schedule.b0 / (2.0 * schedule.total_time * k * k)
    gap = -2.0 * schedule.j0 * k
    return CouplingElements(c01=c01, gap=gap)


def _quadratic_kt(schedule):
    """(alpha, beta, gamma) of k^2 = alpha x^2 + beta x + gamma, x = t/T.

    With a = x and b = b0 (1 - x) they are (1 + b0^2, -2 b0^2, b0^2).
    """
    b0sq = schedule.b0 * schedule.b0
    return 1.0 + b0sq, -2.0 * b0sq, b0sq


def _int_sqrt_quadratic(alpha, beta, gamma, x):
    """Antiderivative of sqrt(alpha x^2 + beta x + gamma), alpha > 0, positive discriminant."""
    q = np.sqrt(alpha * x * x + beta * x + gamma)
    disc = 4.0 * alpha * gamma - beta * beta
    u = 2.0 * alpha * x + beta
    return u * q / (4.0 * alpha) + disc / (8.0 * alpha ** 1.5) * np.arcsinh(u / np.sqrt(disc))


def _phase_on_grid(schedule, noise, times) -> np.ndarray:
    """Cumulative int_0^t E, refined below the noise resolution when needed."""
    j0 = schedule.j0
    if noise is None:
        alpha, beta, gamma = _quadratic_kt(schedule)
        x = times / schedule.total_time
        anti = _int_sqrt_quadratic(alpha, beta, gamma, x)
        return -2.0 * j0 * schedule.total_time * (anti - anti[0])
    res = np.pi / (5.0 * (noise.spec.n_components * noise.spec.omega0))
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
    """Rank-one split g(t_i, t_j) = p_i conj(p_j), and the cumulative gap phase it uses."""
    c01 = coupling_elements(schedule, times).c01
    phi = _phase_on_grid(schedule, noise, times)
    return c01 * np.exp(1.0j * phi), phi


def solve_memory_equation(schedule, noise: NoiseRealization | None,
                          n_points: int = 1000) -> MemorySolution:
    """Advance the one-component memory equation on a uniform grid.

    Implicit trapezoid, solved in closed form, with trapezoid history
    quadrature; the rank-one phase split keeps the history integral O(1)
    per step.  Each step maps (psi0, history) by [[a, -conj(c)], [c, conj(a)]],
    the form of the generator [[0, -p], [conj(p), 0]], so the run is a prefix
    product of pairs (a, c), in log2(n_points) vector passes of
    `smallmat.prefix_products`.  The formulation follows Jing et al.,
    Phys. Rev. A (2014).
    """
    if len(schedule.sectors) != 1:
        raise ValueError("the memory equation covers one-sector schedules only")
    if n_points < 500:
        raise ResolutionError("memory grid needs at least 500 points")
    times = np.linspace(0.0, schedule.total_time, n_points)
    h = times[1] - times[0]
    # The noise's top frequency N omega0 is its cutoff.
    if noise is not None and noise.spec.n_components * noise.spec.omega0 * h > 0.5 * np.pi:
        raise ResolutionError("grid does not resolve the noise cutoff frequency")
    p, phi = _split_kernel(schedule, noise, times)
    if noise is None and np.max(np.abs(np.diff(phi))) > 0.5:
        raise ResolutionError("grid does not resolve the kernel phase")
    q = p.conj()

    # The trapezoid step psi_i = psi_{i-1} + h/2 (f_{i-1} + f_i), with
    # f_i = -p_i hist_i and hist_i = hist_{i-1} + h/2 (q_{i-1} psi_{i-1}
    # + q_i psi_i), is linear in psi_i.  Its divisor is at least 1:
    # p_i q_i = c01(t_i)^2 is real and non-negative.  Solved, step i maps
    # (psi, hist) at i - 1 to i by [[a, b], [c, d]], where q = conj(p) and a
    # real gain, with 1 - gain hh^2 |p_i|^2 = gain, make b = -gain hh (p_{i-1}
    # + p_i) = -conj(c) and d = 1 + hh q_i b = conj(a): the step is (a, c).
    hh = 0.5 * h
    gain = 1.0 / (1.0 + hh * hh * (p[1:] * q[1:]).real)
    a = gain * (1.0 - hh * hh * p[1:] * q[:-1])
    c = hh * q[:-1] + hh * q[1:] * a
    smallmat.prefix_products(a, c)
    # From (psi, hist) = (1, 0) at t = 0 the products' first column is the run.
    psi = np.concatenate(([1.0 + 0.0j], a))
    hist = np.concatenate(([0.0j], c))
    return MemorySolution(times=times, psi0=psi, defect=np.abs(p * hist))
