"""Closed-form complex Hermitian linear algebra for dimension 2.

Every model in the package is evolved as exact 2x2 sectors, so the
routines here only ever see two-level operators: eigendecomposition with
a deterministic gauge, analytic unitary exponentials, and inner products.
States are plain numpy complex vectors, operators are numpy complex
matrices; the functions validate the invariants the rest of the package
relies on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
DEGENERACY_REL_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class NonHermitianError(ValueError):
    """Operator is not Hermitian within tolerance."""


class DegenerateSpectrumError(ValueError):
    """Eigenvalues too close; the driven models never produce this."""


class DimensionMismatchError(ValueError):
    """Vectors or operators with incompatible dimensions."""


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues ascending, gauge-fixed eigenvectors as matrix columns."""

    values: np.ndarray   # (2,) real, ascending
    vectors: np.ndarray  # (2, 2) complex, column i pairs with values[i]


def _as_operator(h) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2):
        raise DimensionMismatchError(f"expected a 2x2 matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("operator contains non-finite entries")
    return h


def _check_hermitian(h: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(h).max()))
    if np.abs(h - h.conj().T).max() > HERMITICITY_TOL * scale:
        raise NonHermitianError("operator is not Hermitian within tolerance")


def gauge_fix(vec: np.ndarray) -> np.ndarray:
    """Rotate the phase so the largest-magnitude component is real positive.

    Ties break toward the lowest index (argmax convention), giving a
    deterministic gauge needed for continuity of finite-difference
    eigenvector derivatives.
    """
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    mag = abs(pivot)
    if mag == 0.0:
        return vec
    return vec * (pivot.conj() / mag)


def _bloch(h: np.ndarray):
    """h = e0 I + vx sx + vy sy + vz sz; returns (e0, vx, vy, vz, |v|)."""
    e0 = 0.5 * (h[0, 0].real + h[1, 1].real)
    vx = h[0, 1].real
    vy = -h[0, 1].imag
    vz = 0.5 * (h[0, 0].real - h[1, 1].real)
    return e0, vx, vy, vz, np.sqrt(vx * vx + vy * vy + vz * vz)


def eigh(h) -> EigenSystem:
    """Closed-form eigendecomposition of a 2x2 Hermitian operator.

    Eigenvalues come back ascending; eigenvectors are gauge-fixed
    (largest-magnitude component real positive).  Raises
    DegenerateSpectrumError when the relative gap collapses: the driven
    models keep a finite gap, so degeneracy signals bad input.
    """
    h = _as_operator(h)
    _check_hermitian(h)
    e0, vx, vy, vz, r = _bloch(h)
    values = np.array([e0 - r, e0 + r])
    scale = max(1.0, float(np.abs(values).max()))
    if values[1] - values[0] < DEGENERACY_REL_TOL * scale:
        raise DegenerateSpectrumError("spectrum degenerate within tolerance")
    # Branch on sign(vz) for numerical stability of the spinor components.
    if vz >= 0.0:
        up = np.array([r + vz, vx + 1.0j * vy]) / np.sqrt(2.0 * r * (r + vz))
    else:
        up = np.array([vx - 1.0j * vy, r - vz]) / np.sqrt(2.0 * r * (r - vz))
    down = np.array([-up[1].conj(), up[0].conj()])
    return EigenSystem(values=values, vectors=np.column_stack([gauge_fix(down), gauge_fix(up)]))


def expm_unitary(h, dt: float) -> np.ndarray:
    """exp(-i h dt) for a 2x2 Hermitian h, in closed form.

    Degenerate spectra are fine here (the exponential is well defined);
    only the public eigh contract treats them as errors.
    """
    h = _as_operator(h)
    _check_hermitian(h)
    if not (np.isfinite(dt) and dt >= 0.0):
        raise ValueError("dt must be finite and non-negative")
    e0, vx, vy, vz, r = _bloch(h)
    phase = np.exp(-1.0j * e0 * dt)
    if r == 0.0:
        return phase * np.eye(2, dtype=complex)
    theta = r * dt
    n_sigma = (vx * SIGMA_X + vy * SIGMA_Y + vz * SIGMA_Z) / r
    return phase * (np.cos(theta) * np.eye(2, dtype=complex) - 1.0j * np.sin(theta) * n_sigma)


def inner(a, b) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))
