"""Closed-form two-level linear algebra.

Every model in the package is evolved as exact 2x2 sectors, so the
routines here only ever see two-level operators: the eigendecomposition
of a complex Hermitian operator with a deterministic gauge, and the
exponential of a real traceless generator x sx + z sz over whole stacks
of coefficients (leading axes: steps, members, sectors).  That exponential
lies in SU(2) and is returned as its first column (alpha, beta).  Every
matrix a solver composes has that form, [[alpha, -conj(beta)], [beta,
conj(alpha)]] up to a real factor, and `prefix_products`, the one scan of
every solver, composes such pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
DEGENERACY_REL_TOL = 1e-12


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


def expm_unitary(x, z, dt) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i dt (x sx + z sz)) = [[alpha, -conj(beta)], [beta, conj(alpha)]].

    x and z are real coefficient stacks that broadcast against each other
    and against dt; alpha and beta have their broadcast shape.  With
    r = hypot(x, z) and theta = r dt the pair is alpha = cos(theta) -
    i z sin(theta) / r and beta = -i x sin(theta) / r.  A non-finite
    coefficient gives a non-finite pair, which the caller's check names.
    """
    r = np.hypot(x, z)
    theta = r * dt
    # Where r = 0 the generator vanishes and any nonzero divisor will do.
    s = np.sin(theta) / (r + (r == 0.0))
    alpha = np.cos(theta) - 1.0j * (z * s)
    return alpha, -1.0j * (x * s)


def prefix_products(alpha, beta) -> None:
    """Prefix products of the pairs' matrices along the leading axis, in place.

    A pair is the first column of [[alpha, -conj(beta)], [beta, conj(alpha)]],
    a form closed under products.  Trailing axes (members, sectors) pass
    through.  Entry j ends as M_j ... M_1 M_0, composed by doubling: after
    the pass of span s it holds entries max(0, j - 2s + 1) .. j.  A
    non-finite matrix spoils its own and every later prefix, and no earlier
    one.  Every pass runs in three buffers allocated once per call, so that
    a long scan maps no fresh temporaries pass after pass.
    """
    if len(alpha) < 2:
        return
    buffers = [np.empty((len(alpha) - 1,) + alpha.shape[1:], dtype=np.result_type(alpha, beta))
               for _ in range(3)]
    span = 1
    while span < len(alpha):
        a2, b2, a1, b1 = alpha[span:], beta[span:], alpha[:-span], beta[:-span]
        na, nb, tmp = (buf[:len(a2)] for buf in buffers)
        # M2 M1 e0 = (a2 a1 - conj(b2) b1, b2 a1 + conj(a2) b1).
        np.multiply(a2, a1, out=na)
        na -= np.multiply(np.conjugate(b2, out=tmp), b1, out=tmp)
        np.multiply(b2, a1, out=nb)
        nb += np.multiply(np.conjugate(a2, out=tmp), b1, out=tmp)
        a2[...], b2[...] = na, nb
        span *= 2
