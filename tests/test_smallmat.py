"""Eigensolver, unitary exponential, and gauge tests against numpy oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nia_sim import smallmat


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m + m.conj().T


# Sector index sets: a two-level operator is its own sector; a four-level one
# is taken with the spectator model's layout, one block per spectator level.
SECTORS = {2: ([0, 1],), 4: ([0, 2], [1, 3])}


def random_operator(rng, dim):
    """Random Hermitian operator that is block-diagonal on SECTORS[dim]."""
    h = np.zeros((dim, dim), dtype=complex)
    for idx in SECTORS[dim]:
        h[np.ix_(idx, idx)] = random_hermitian(rng, 2)
    return h


def eigh_by_sectors(h):
    """Ascending eigenvalues and matching eigenvectors, each block via smallmat."""
    dim = h.shape[0]
    values, vectors = [], []
    for idx in SECTORS[dim]:
        es = smallmat.eigh(h[np.ix_(idx, idx)])
        for i in range(2):
            v = np.zeros(dim, dtype=complex)
            v[idx] = es.vectors[:, i]
            values.append(es.values[i])
            vectors.append(v)
    order = np.argsort(values)
    return np.array(values)[order], np.column_stack(vectors)[:, order]


def expm_by_sectors(h, dt):
    u = np.zeros_like(h)
    for idx in SECTORS[h.shape[0]]:
        u[np.ix_(idx, idx)] = smallmat.expm_unitary(h[np.ix_(idx, idx)], dt)
    return u


def finite_floats(lo=-1e3, hi=1e3):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


class TestEigh:
    def test_sigma_z(self):
        es = smallmat.eigh(smallmat.SIGMA_Z)
        np.testing.assert_allclose(es.values, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(es.vectors[:, 1], [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(es.vectors[:, 0], [0.0, 1.0], atol=1e-14)

    def test_sigma_x(self):
        es = smallmat.eigh(smallmat.SIGMA_X)
        np.testing.assert_allclose(es.values, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(es.vectors[:, 1]),
                                   [1.0 / np.sqrt(2.0)] * 2, atol=1e-14)
        # Gauge: largest-magnitude component real positive (tie -> lowest index).
        assert es.vectors[0, 1].real > 0.0
        assert abs(es.vectors[0, 1].imag) < 1e-14

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_numpy(self, dim, seed):
        h = random_operator(np.random.default_rng(seed), dim)
        values, vectors = eigh_by_sectors(h)
        ref = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(values, ref, rtol=1e-12, atol=1e-12)
        # Residual check is gauge-independent.
        res = h @ vectors - vectors * values
        assert np.abs(res).max() < 1e-11 * max(1.0, np.abs(h).max())

    @pytest.mark.parametrize("dim", [2, 4])
    def test_orthonormal_columns(self, dim):
        h = random_operator(np.random.default_rng(7), dim)
        _, vectors = eigh_by_sectors(h)
        gram = vectors.conj().T @ vectors
        np.testing.assert_allclose(gram, np.eye(dim), atol=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(smallmat.DegenerateSpectrumError):
            smallmat.eigh(np.eye(2))

    def test_non_hermitian_raises(self):
        with pytest.raises(smallmat.NonHermitianError):
            smallmat.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_bad_dimension_raises(self):
        # Four-level operators are handled as 2x2 sectors, never directly.
        for h in (np.eye(3), np.eye(4)):
            with pytest.raises(smallmat.DimensionMismatchError):
                smallmat.eigh(h)
            with pytest.raises(smallmat.DimensionMismatchError):
                smallmat.expm_unitary(h, 0.1)

    @given(vx=finite_floats(), vy=finite_floats(), vz=finite_floats(),
           e0=finite_floats())
    @settings(max_examples=200, deadline=None)
    def test_eigh2_property(self, vx, vy, vz, e0):
        h = (e0 * np.eye(2) + vx * smallmat.SIGMA_X + vy * smallmat.SIGMA_Y
             + vz * smallmat.SIGMA_Z)
        r = np.sqrt(vx * vx + vy * vy + vz * vz)
        scale = max(1.0, abs(e0) + r)
        if 2.0 * r < 1e-11 * scale:
            return  # degenerate region excluded by contract
        es = smallmat.eigh(h)
        np.testing.assert_allclose(es.values, [e0 - r, e0 + r],
                                   rtol=1e-12, atol=1e-12 * scale)
        res = h @ es.vectors - es.vectors * es.values
        assert np.abs(res).max() < 1e-12 * scale


class TestGaugeFix:
    def test_phase_removed(self):
        v = np.array([0.3 * np.exp(1.2j), 0.9 * np.exp(-0.4j)])
        g = smallmat.gauge_fix(v)
        idx = int(np.argmax(np.abs(g)))
        assert g[idx].imag == pytest.approx(0.0, abs=1e-15)
        assert g[idx].real > 0.0
        np.testing.assert_allclose(np.abs(g), np.abs(v), atol=1e-15)

    def test_idempotent(self):
        v = np.array([1.0j, 2.0, -1.0])
        g = smallmat.gauge_fix(v)
        np.testing.assert_allclose(smallmat.gauge_fix(g), g, atol=1e-15)


class TestExpmUnitary:
    def test_identity_at_zero_dt(self):
        h = random_hermitian(np.random.default_rng(0), 2)
        np.testing.assert_allclose(smallmat.expm_unitary(h, 0.0), np.eye(2), atol=1e-15)

    def test_sigma_z_rotation(self):
        u = smallmat.expm_unitary(smallmat.SIGMA_Z, np.pi / 2.0)
        expected = np.diag([np.exp(-1.0j * np.pi / 2.0), np.exp(1.0j * np.pi / 2.0)])
        np.testing.assert_allclose(u, expected, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_unitary_and_matches_diagonalization(self, dim, seed):
        rng = np.random.default_rng(seed + 100)
        h = random_operator(rng, dim)
        dt = float(rng.uniform(0.0, 2.0))
        u = expm_by_sectors(h, dt)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)
        w, v = np.linalg.eigh(h)
        ref = (v * np.exp(-1.0j * w * dt)) @ v.conj().T
        np.testing.assert_allclose(u, ref, atol=1e-12)

    def test_degenerate_spectrum_allowed(self):
        # exp(-i h dt) is well defined even where eigh refuses to label levels.
        u = smallmat.expm_unitary(np.eye(2), 0.7)
        np.testing.assert_allclose(u, np.exp(-0.7j) * np.eye(2), atol=1e-14)

    @given(vx=finite_floats(-50, 50), vz=finite_floats(-50, 50),
           dt=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_group_property(self, vx, vz, dt):
        h = vx * smallmat.SIGMA_X + vz * smallmat.SIGMA_Z
        u1 = smallmat.expm_unitary(h, dt)
        u2 = smallmat.expm_unitary(h, 0.5 * dt)
        np.testing.assert_allclose(u2 @ u2, u1, atol=1e-10)


class TestInner:
    def test_conjugate_linear_first_argument(self):
        a = np.array([1.0j, 0.0])
        b = np.array([1.0, 0.0])
        assert smallmat.inner(a, b) == pytest.approx(-1.0j)
        assert smallmat.inner(b, a) == pytest.approx(1.0j)

    def test_dimension_mismatch(self):
        with pytest.raises(smallmat.DimensionMismatchError):
            smallmat.inner(np.ones(2), np.ones(4))
