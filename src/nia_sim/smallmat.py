"""Closed-form complex Hermitian linear algebra for dimension 2.

Every model in the package is evolved as exact 2x2 sectors, so the
routines here only ever see two-level operators: eigendecomposition with
a deterministic gauge, and analytic unitary exponentials of whole stacks of
operators (leading axes: members, sectors).  Operators are numpy complex
arrays; the functions validate the invariants the rest of the package
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
_IDENTITY = np.eye(2, dtype=complex)


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
    """A stack of finite Hermitian 2x2 operators, shape (..., 2, 2)."""
    h = np.asarray(h, dtype=complex)
    if h.shape[-2:] != (2, 2):
        raise DimensionMismatchError(f"expected 2x2 matrices, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("operator contains non-finite entries")
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1), keepdims=True))
    if (np.abs(h - np.swapaxes(h, -1, -2).conj()) > HERMITICITY_TOL * scale).any():
        raise NonHermitianError("operator is not Hermitian within tolerance")
    return h


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


def eigh(h) -> EigenSystem:
    """Closed-form eigendecomposition of a 2x2 Hermitian operator.

    Eigenvalues come back ascending; eigenvectors are gauge-fixed
    (largest-magnitude component real positive).  Raises
    DegenerateSpectrumError when the relative gap collapses: the driven
    models keep a finite gap, so degeneracy signals bad input.
    """
    h = _as_operator(h)
    if h.ndim != 2:
        raise DimensionMismatchError(f"expected one 2x2 matrix, got shape {h.shape}")
    # h = e0 I + vx sx + vy sy + vz sz
    e0, vz = 0.5 * (h[0, 0].real + h[1, 1].real), 0.5 * (h[0, 0].real - h[1, 1].real)
    vx, vy = h[0, 1].real, -h[0, 1].imag
    r = np.sqrt(vx * vx + vy * vy + vz * vz)
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


def expm_unitary(h, dt) -> np.ndarray:
    """exp(-i h dt) for a stack of 2x2 Hermitian h, shape (..., 2, 2), in closed form.

    dt is a scalar or broadcasts against the leading axes of h.  Degenerate
    spectra are fine here (the exponential is well defined); only the
    public eigh contract treats them as errors.
    """
    h = _as_operator(h)
    dt = np.asarray(dt, dtype=float)
    if not (np.isfinite(dt) & (dt >= 0.0)).all():
        raise ValueError("dt must be finite and non-negative")
    dt = dt[..., None, None]
    # 1x1 slices keep every quantity broadcastable against the 2x2 axes.
    h00, h11 = h[..., :1, :1].real, h[..., 1:, 1:].real
    e0 = 0.5 * (h00 + h11)
    r = np.hypot(0.5 * (h00 - h11), np.abs(h[..., :1, 1:]))
    theta = r * dt
    # exp(-i h dt) = e^{-i e0 dt} [cos(theta) I - i sin(theta) (h - e0 I) / r];
    # where r = 0, h - e0 I vanishes and any nonzero divisor will do.
    u = (h - e0 * _IDENTITY) * (-1.0j * (np.sin(theta) / (r + (r == 0.0))))
    return np.exp(-1.0j * e0 * dt) * (u + np.cos(theta) * _IDENTITY)
