"""Correctness checks for the benchmark's outputs, made apart from nia_sim.

Every reference here is built from the documented model, not from the
package's code:

* noise c(t) = A * sum_j sin(j w0 t + phi_j), j = 1..N, with the phases drawn
  from Philox keyed on (seed, realization index), uniform on [0, 2 pi);
* single qubit: H = (J0 + c) (x sx + (1 - x) sz), x = t / T;
* pair: H = (J0 + c) (x (s1x s2x + s1y s2y) / 2 + (1 - x) (s1z - s2z) / 4) on
  the full four-dimensional space, read off on the {|01>, |10>} block;
* the tracked level is the upper eigenvector of the direction operator
  a sx + b sz (the noise only rescales eigenvalues).

Noise-free trajectories and the memory-equation solutions are compared with
`scipy.integrate.solve_ivp` (DOP853).  The fig4b members are rebuilt as a
dense 4x4 midpoint product with `scipy.linalg.expm`.  The ensemble CSVs are
also held to the method's own properties.  No check reads a stored copy of
an earlier output.

Each check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
EXCHANGE = (np.kron(SX, SX) + np.kron(SY, SY)) / 2.0
ZDIFF = (np.kron(SZ, I2) - np.kron(I2, SZ)) / 4.0

# Criterion-2 and criterion-4 plateau bands: final populations within 0.05
# of 1/2 and every |mean Im(alpha beta*)| at most 0.05, each widened by
# PLATEAU_SE standard errors of the workload's own (smaller) ensemble.
PLATEAU_HALF_WIDTH = 0.05
PLATEAU_SE = 3.0

# The midpoint engine is second order; at the presets' steps it stays
# within 1e-5 of the exact trajectory (measured deviation 2e-6 or less).
PRESET_TOL = 1e-5
# The memory equation on 1001 points against the exact 2x2 evolution.
MEMORY_TOL = 1e-5
# Same midpoint product, different code: only rounding separates the two.
DENSE_TOL = 1e-8


def read_csv(path):
    """(metadata dict, column dict) of a nia-sim CSV with '#' preamble."""
    meta = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = 0
    for body, line in enumerate(lines):
        if not line.startswith("#"):
            break
        key, _, value = line[1:].partition("=")
        meta[key.strip()] = value.strip()
    header = lines[body].split(",")
    data = np.array([[float(x) for x in row.split(",")] for row in lines[body + 1:]])
    return meta, {name: data[:, i] for i, name in enumerate(header)}


# --------------------------------------------------------------------- model

def noise_phases(seed: int, index: int, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    return rng.uniform(0.0, 2.0 * np.pi, n)


def noise_direct(phases, scale: float, w0: float, times) -> np.ndarray:
    """c(t) by summing every sinusoid, in blocks to bound memory."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    freqs = w0 * np.arange(1, len(phases) + 1)
    out = np.zeros(len(times))
    for lo in range(0, len(times), 64):
        block = times[lo:lo + 64]
        out[lo:lo + 64] = np.sin(block[:, None] * freqs[None, :] + phases[None, :]).sum(axis=1)
    return scale * out


def direction(system: str, x):
    """(a, b) of the two-level direction operator a sx + b sz."""
    x = np.asarray(x, dtype=float)
    return (x, 1.0 - x) if system == "single" else (x, 0.5 * (1.0 - x))


def hamiltonian(system: str, j0: float, total_time: float, t: float, c: float) -> np.ndarray:
    x = t / total_time
    if system == "single":
        return (j0 + c) * (x * SX + (1.0 - x) * SZ)
    return (j0 + c) * (x * EXCHANGE + (1.0 - x) * ZDIFF)


def observables(system: str, total_time: float, times, states) -> dict:
    """pop0, pop1, Im(alpha beta*) and tracked-level fidelity per state row."""
    states = np.asarray(states)
    if system == "single":
        alpha, beta = states[:, 0], states[:, 1]
    else:
        alpha, beta = states[:, 1], states[:, 2]
    a, b = direction(system, np.asarray(times) / total_time)
    k = np.hypot(a, b)
    v0, v1 = b + k, a
    norm = np.hypot(v0, v1)
    overlap = (v0 * alpha + v1 * beta) / norm
    return {
        "pop0": np.abs(alpha) ** 2,
        "pop1": np.abs(beta) ** 2,
        "im_coherence": (alpha * beta.conj()).imag,
        "fidelity_e0": np.abs(overlap) ** 2,
    }


def initial_state(system: str) -> np.ndarray:
    if system == "single":
        return np.array([1.0, 0.0], dtype=complex)
    return np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)


def exact_states(system, j0, total_time, times, noise=None) -> np.ndarray:
    """Schrodinger evolution by DOP853 at tight tolerances, sampled at times.

    `noise` is None or (phases, per-component amplitude, w0); c(t) is then
    summed over every component at each evaluation.
    """
    def rhs(t, y):
        c = 0.0 if noise is None else float(noise_direct(*noise, t)[0])
        return -1.0j * (hamiltonian(system, j0, total_time, t, c) @ y)

    sol = solve_ivp(rhs, (0.0, total_time), initial_state(system), method="DOP853",
                    t_eval=np.clip(times, 0.0, total_time), rtol=1e-11, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def step_grid(total_time: float, dt: float):
    """Uniform steps with the last truncated onto T, as the CLI documents."""
    n = int(math.ceil(total_time / dt - 1e-9))
    starts = np.arange(n) * dt
    durations = np.full(n, dt)
    durations[-1] = total_time - starts[-1]
    return starts, durations


def noise_on_grid(phases, scale: float, w0: float, t0: float, h: float, count: int) -> np.ndarray:
    """c(t0 + k h), k < count, summing every sinusoid as a rotating phasor.

    Each component's phasor exp(i(j w0 t + phi_j)) is advanced by
    exp(i j w0 h) per grid point, so the sum stays direct but costs one
    complex multiply per term instead of one sine.
    """
    freqs = w0 * np.arange(1, len(phases) + 1)
    z = np.exp(1.0j * (freqs * t0 + phases))
    w = np.exp(1.0j * freqs * h)
    out = np.empty(count)
    for k in range(count):
        out[k] = z.imag.sum()
        z *= w
    return scale * out


def dense_member(j0, total_time, dt, phases, scale, w0) -> tuple[np.ndarray, np.ndarray]:
    """Pair-model midpoint product with dense 4x4 expm; (times, states)."""
    starts, durations = step_grid(total_time, dt)
    mids = starts + 0.5 * durations
    c_mid = noise_on_grid(phases, scale, w0, 0.5 * dt, dt, len(mids) - 1)
    c_mid = np.append(c_mid, noise_direct(phases, scale, w0, mids[-1:]))
    x = (mids / total_time)[:, None, None]
    h = (j0 + c_mid)[:, None, None] * (x * EXCHANGE + (1.0 - x) * ZDIFF)
    steps = expm(-1.0j * h * durations[:, None, None])
    states = np.empty((len(starts) + 1, 4), dtype=complex)
    states[0] = initial_state("pair")
    for k, u in enumerate(steps):
        states[k + 1] = u @ states[k]
    return np.concatenate([[0.0], starts + durations]), states


# -------------------------------------------------------------------- checks

def _worst(ref, got) -> float:
    return float(np.max(np.abs(np.asarray(ref) - np.asarray(got))))


def check_time_column(cols, total_time: float, rows: int) -> list[str]:
    t = cols["t"]
    problems = []
    if len(t) != rows:
        problems.append(f"{len(t)} rows, expected {rows}")
    if t[0] != 0.0 or not np.all(np.diff(t) > 0.0):
        problems.append("time column does not rise strictly from 0")
    if abs(t[-1] - total_time) > 1e-12 * total_time:
        problems.append(f"time column ends at {t[-1]!r}, not T = {total_time!r}")
    return problems


def check_ensemble_properties(cols, system: str, j0: float, total_time: float,
                              rows: int) -> list[str]:
    """Method properties every ensemble CSV has, whatever its parameters."""
    problems = check_time_column(cols, total_time, rows)
    total = cols["mean_pop0"] + cols["mean_pop1"]
    if _worst(1.0, total) > 1e-9:
        problems.append(f"mean pop0 + pop1 departs from 1 by {_worst(1.0, total):.2e}")
    a, b = direction(system, cols["t"] / total_time)
    gap = -2.0 * np.hypot(a, b) * (j0 + cols["mean_noise"])
    gap_err = _worst(gap, cols["mean_gap"]) / max(1.0, float(np.max(np.abs(gap))))
    if gap_err > 1e-9:
        problems.append(f"mean gap is not -2 k (J0 + mean noise): rel err {gap_err:.2e}")
    if any(np.any(cols[name] < 0.0) for name in cols if name.startswith("se_")):
        problems.append("negative standard error")
    return problems


def check_plateau(cols, system: str) -> list[str]:
    """Criterion-2 (single) or criterion-4 (pair) noise-induced plateau."""
    problems = []
    for name in ["pop0"] + (["pop1"] if system == "pair" else []):
        final = cols[f"mean_{name}"][-1]
        allowed = PLATEAU_HALF_WIDTH + PLATEAU_SE * cols[f"se_{name}"][-1]
        if abs(final - 0.5) > allowed:
            problems.append(f"final mean {name} {final:.4f} outside 0.5 +- {allowed:.4f}")
    im_excess = np.abs(cols["mean_im_coherence"]) - PLATEAU_SE * cols["se_im_coherence"]
    if np.max(im_excess) > PLATEAU_HALF_WIDTH:
        problems.append(f"|mean Im| exceeds the plateau band by {np.max(im_excess):.4f}")
    return problems


def check_mean_noise(cols, seed, m, n, scale, w0, stride) -> list[str]:
    """Mean noise column against the direct sum over all members, strided rows."""
    rows = np.arange(0, len(cols["t"]), stride)
    times = cols["t"][rows]
    ref = np.mean([noise_direct(noise_phases(seed, i, n), scale, w0, times)
                   for i in range(m)], axis=0)
    rms = scale * math.sqrt(n / 2.0)
    err = _worst(ref, cols["mean_noise"][rows]) / rms
    return [f"mean noise column off the direct sum by {err:.2e} RMS"] if err > 1e-9 else []


def check_trajectory(cols, system, j0, total_time, states) -> list[str]:
    """simulate CSV against reference states on the same time grid."""
    ref = observables(system, total_time, cols["t"], states)
    problems = []
    for name, values in ref.items():
        err = _worst(values, cols[name])
        if err > PRESET_TOL:
            problems.append(f"{name} off the solve_ivp reference by {err:.2e}")
    if np.any(cols["noise"] != 0.0):
        problems.append("noise column is not zero on a noise-free run")
    a, b = direction(system, cols["t"] / total_time)
    if _worst(-2.0 * j0 * np.hypot(a, b), cols["gap"]) > 1e-9 * j0:
        problems.append("gap column is not -2 J0 k(t)")
    return problems


def check_dense_members(cols, seed, m, j0, total_time, dt, n, scale, w0) -> list[str]:
    """Every member rebuilt by the dense 4x4 product; ensemble mean and se compared."""
    per_member = []
    times = None
    for i in range(m):
        times, states = dense_member(j0, total_time, dt, noise_phases(seed, i, n), scale, w0)
        per_member.append(observables("pair", total_time, times, states))
    problems = []
    if _worst(times, cols["t"]) > 1e-12 * total_time:
        problems.append("record times differ from the step ends")
    for name in ("pop0", "pop1", "im_coherence", "fidelity_e0"):
        stack = np.stack([obs[name] for obs in per_member])
        se = stack.std(axis=0, ddof=1) / math.sqrt(m) if m > 1 else np.zeros(stack.shape[1])
        for stat, ref in (("mean", stack.mean(axis=0)), ("se", se)):
            err = _worst(ref, cols[f"{stat}_{name}"])
            if err > DENSE_TOL:
                problems.append(f"{stat}_{name} off the dense 4x4 reference by {err:.2e}")
    return problems


def check_memory(times, psi0, j0, total_time, noise) -> list[str]:
    """|psi0|^2 from the memory equation against the exact tracked-level fidelity."""
    states = exact_states("single", j0, total_time, times, noise)
    fid = observables("single", total_time, times, states)["fidelity_e0"]
    err = _worst(fid, np.abs(psi0) ** 2)
    problems = []
    if not np.all(np.isfinite(psi0)):
        problems.append("non-finite psi0")
    if err > MEMORY_TOL:
        problems.append(f"|psi0|^2 off the solve_ivp fidelity by {err:.2e}")
    return problems
