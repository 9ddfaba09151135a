"""Eigensolver, unitary exponential, prefix scan and gauge tests against numpy oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from nia_sim import config, smallmat


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


def pair_matrices(alpha, beta):
    """[[alpha, -conj(beta)], [beta, conj(alpha)]], shape (..., 2, 2)."""
    return np.stack([np.stack([alpha, -np.conj(beta)], axis=-1),
                     np.stack([beta, np.conj(alpha)], axis=-1)], axis=-2)


def finite_floats(lo=-1e3, hi=1e3):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


class TestEigh:
    def test_sigma_z(self):
        es = smallmat.eigh(dense.SZ)
        np.testing.assert_allclose(es.values, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(es.vectors[:, 1], [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(es.vectors[:, 0], [0.0, 1.0], atol=1e-14)

    def test_sigma_x(self):
        es = smallmat.eigh(dense.SX)
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

    @given(vx=finite_floats(), vy=finite_floats(), vz=finite_floats(),
           e0=finite_floats())
    @settings(max_examples=200, deadline=None)
    def test_eigh2_property(self, vx, vy, vz, e0):
        h = e0 * np.eye(2) + vx * dense.SX + vy * dense.SY + vz * dense.SZ
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
    """The pair (alpha, beta) of exp(-i dt (x sx + z sz)), against numpy's eigh."""

    def test_identity_at_zero_dt(self):
        x, z = np.random.default_rng(0).standard_normal((2, 3, 4))
        alpha, beta = smallmat.expm_unitary(x, z, 0.0)
        np.testing.assert_array_equal(alpha, 1.0)
        np.testing.assert_array_equal(beta, 0.0)

    def test_sigma_z_rotation(self):
        alpha, beta = smallmat.expm_unitary(0.0, 1.0, np.pi / 2.0)
        expected = np.diag([np.exp(-1.0j * np.pi / 2.0), np.exp(1.0j * np.pi / 2.0)])
        np.testing.assert_allclose(pair_matrices(alpha, beta), expected, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_unitary_and_matches_diagonalization(self, dim, seed):
        # Five steps of a dim-level operator that is block-diagonal on
        # SECTORS[dim], all from one call with leading (step, sector) axes.
        rng = np.random.default_rng(seed + 100)
        x, z = 50.0 * rng.standard_normal((2, 5, dim // 2))
        dt = float(rng.uniform(0.0, 2.0))
        u = pair_matrices(*smallmat.expm_unitary(x, z, dt))
        for k in range(5):
            h, full = np.zeros((2, dim, dim), dtype=complex)
            for i, idx in enumerate(SECTORS[dim]):
                h[np.ix_(idx, idx)] = x[k, i] * dense.SX + z[k, i] * dense.SZ
                full[np.ix_(idx, idx)] = u[k, i]
            np.testing.assert_allclose(full @ full.conj().T, np.eye(dim), atol=1e-12)
            np.testing.assert_allclose(full, dense.expm_hermitian(h, dt), atol=1e-12)

    def test_degenerate_spectrum_allowed(self):
        # r = 0: the generator vanishes and the step is the identity, also
        # beside nonzero entries of the same stack.
        alpha, beta = smallmat.expm_unitary(np.array([0.0, 3.0]), np.array([0.0, -4.0]), 0.7)
        assert alpha[0] == 1.0 and beta[0] == 0.0
        np.testing.assert_allclose(pair_matrices(alpha[1], beta[1]),
                                   dense.expm_hermitian(3.0 * dense.SX - 4.0 * dense.SZ, 0.7),
                                   atol=1e-14)

    def test_near_the_step_rotation_bound(self):
        # theta within a factor 1 - 1e-6 of MAX_STEP_ROTATION: both sides
        # round theta to about theta 2^-53, so they agree to a few of those.
        rng = np.random.default_rng(5)
        angle = rng.uniform(0.0, 2.0 * np.pi, 20)
        r = config.MAX_STEP_ROTATION * rng.uniform(1.0 - 1e-6, 1.0, 20)
        dt = 1e-3
        x, z = r * np.cos(angle) / dt, r * np.sin(angle) / dt
        u = pair_matrices(*smallmat.expm_unitary(x, z, dt))
        for k in range(20):
            h = x[k] * dense.SX + z[k] * dense.SZ
            np.testing.assert_allclose(u[k], dense.expm_hermitian(h, dt),
                                       atol=8.0 * config.MAX_STEP_ROTATION * 2.0**-53)

    @given(x=finite_floats(-1e4, 1e4), z=finite_floats(-1e4, 1e4),
           dt=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_unit_norm(self, x, z, dt):
        alpha, beta = smallmat.expm_unitary(x, z, dt)
        assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-15

    @given(vx=finite_floats(-50, 50), vz=finite_floats(-50, 50),
           dt=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_group_property(self, vx, vz, dt):
        u1 = pair_matrices(*smallmat.expm_unitary(vx, vz, dt))
        u2 = pair_matrices(*smallmat.expm_unitary(vx, vz, 0.5 * dt))
        np.testing.assert_allclose(u2 @ u2, u1, atol=1e-10)


class TestPrefixProducts:
    """The shared pair scan against sequential left-multiplication."""

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 1000])
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_sequential_products(self, length, seed):
        # Random complex Gaussian pairs (so non-unit quaternions), with
        # trailing (members, sectors) axes of (2, 3), passed once as
        # contiguous copies and once as strided views laid out as the oracle
        # passes its substeps: the scanned axis moved to the front of a
        # reshaped array, whose storage must receive the products.
        rng = np.random.default_rng(seed)
        shape = (length, 2, 3, 2)
        pairs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        m = pair_matrices(pairs[..., 0], pairs[..., 1])
        expected = np.empty_like(m)
        product = np.broadcast_to(np.eye(2, dtype=complex), m.shape[1:])
        for j in range(length):
            product = m[j] @ product
            expected[j] = product
        alpha, beta = (pairs[..., i].copy() for i in range(2))
        smallmat.prefix_products(alpha, beta)
        copies = pair_matrices(alpha, beta)
        storage = np.moveaxis(pairs, 0, 1).reshape((2 * length,) + shape[2:])
        view = np.moveaxis(storage.reshape((2, length) + shape[2:]), 1, 0)
        smallmat.prefix_products(view[..., 0], view[..., 1])
        view = np.moveaxis(storage.reshape((2, length) + shape[2:]), 1, 0)
        views = pair_matrices(view[..., 0], view[..., 1])
        # Relative to each prefix's largest entry: the products grow or decay.
        scale = np.abs(expected).max(axis=(-2, -1), keepdims=True)
        for got in (copies, views):
            assert (np.abs(got - expected) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("length", [2, 5, 1000])
    def test_passes_round_as_the_doubling_formula(self, length):
        # The four-entry doubling formula, composed out of place on the
        # matrices [[alpha, -conj(beta)], [beta, conj(alpha)]], keeps that
        # form bit for bit; the pair scan takes the same products and sums,
        # in the same order, as its first column: the bits agree.
        rng = np.random.default_rng(length)
        alpha, beta = (rng.standard_normal((length, 3)) + 1j * rng.standard_normal((length, 3))
                       for _ in range(2))
        ea, eb, ec, ed = alpha.copy(), -beta.conj(), beta.copy(), alpha.conj()
        span = 1
        while span < length:
            a2, b2, c2, d2 = ea[span:], eb[span:], ec[span:], ed[span:]
            a1, b1, c1, d1 = ea[:-span], eb[:-span], ec[:-span], ed[:-span]
            ea[span:], eb[span:], ec[span:], ed[span:] = (a2 * a1 + b2 * c1, a2 * b1 + b2 * d1,
                                                          c2 * a1 + d2 * c1, c2 * b1 + d2 * d1)
            span *= 2
        assert ed.tobytes() == ea.conj().tobytes() and eb.tobytes() == (-ec.conj()).tobytes()
        smallmat.prefix_products(alpha, beta)
        assert alpha.tobytes() == ea.tobytes()
        assert beta.tobytes() == ec.tobytes()
