"""Schedules, noise synthesis, spectra, and convention mapping."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import h_pair, h_spectator
from nia_sim import model, smallmat
from nia_sim.model import (FrequencyConvention, NoiseNormalization, NoiseSpec,
                           SingleQubitSchedule, SpectatorSchedule,
                           TwoQubitSchedule, h_sectors, h_single,
                           noise_values, realize_noise)
from noise_reference import exact_noise, psd_estimate

ANG = FrequencyConvention.ANGULAR_DIRECT


def single(j0=4000.0, total_time=5e-4):
    return SingleQubitSchedule(j0=j0, total_time=total_time, convention=ANG)


class TestHSingle:
    def test_endpoints(self):
        s = single()
        np.testing.assert_allclose(h_single(s, 0.0), s.j0_rad * smallmat.SIGMA_Z, atol=1e-12)
        np.testing.assert_allclose(h_single(s, s.total_time),
                                   s.j0_rad * smallmat.SIGMA_X, atol=1e-12)

    def test_midpoint_with_noise_equal_j0(self):
        s = single()
        h = h_single(s, 0.5 * s.total_time, c=s.j0_rad)
        expected = s.j0_rad * (smallmat.SIGMA_X + smallmat.SIGMA_Z)
        np.testing.assert_allclose(h, expected, atol=1e-9)

    def test_hertz_convention_scales_by_two_pi(self):
        s_ang = single()
        s_hz = SingleQubitSchedule(j0=4000.0, total_time=5e-4,
                                   convention=FrequencyConvention.HERTZ)
        np.testing.assert_allclose(h_single(s_hz, 1e-4),
                                   2.0 * np.pi * h_single(s_ang, 1e-4), atol=1e-9)

    def test_out_of_range(self):
        s = single()
        with pytest.raises(ValueError):
            h_single(s, -1e-9)
        with pytest.raises(ValueError):
            h_single(s, 2.0 * s.total_time)

    @given(t=st.floats(min_value=0.0, max_value=5e-4),
           c=st.floats(min_value=-1e4, max_value=1e4))
    @settings(max_examples=100, deadline=None)
    def test_hermitian(self, t, c):
        h = h_single(single(), t, c)
        assert np.abs(h - h.conj().T).max() < 1e-12

    @given(t=st.floats(min_value=0.0, max_value=5e-4),
           c=st.floats(min_value=-3999.0, max_value=1e4))
    @settings(max_examples=60, deadline=None)
    def test_noise_leaves_eigenvectors(self, t, c):
        # The noise prefactor rescales eigenvalues without touching eigenvectors.
        s = single()
        clean = smallmat.eigh(h_single(s, t, 0.0))
        noisy = smallmat.eigh(h_single(s, t, c))
        np.testing.assert_allclose(noisy.vectors, clean.vectors, atol=1e-10)
        np.testing.assert_allclose(noisy.values, (1.0 + c / s.j0_rad) * clean.values,
                                   rtol=1e-9, atol=1e-9)


class TestHPair:
    """The dense 4x4 pair Hamiltonian and its one sector, the {|01>, |10>} block."""

    def setup_method(self):
        self.s = TwoQubitSchedule(j0=100.0, total_time=0.01, convention=ANG)

    def test_t0_is_z_difference(self):
        h = h_pair(self.s, 0.0)
        np.testing.assert_allclose(h, self.s.j0_rad * np.diag([0.0, 0.5, -0.5, 0.0]),
                                   atol=1e-12)

    def test_tT_pure_exchange_eigenvectors(self):
        h = h_pair(self.s, self.s.total_time)
        expected = np.zeros((4, 4))
        expected[1, 2] = expected[2, 1] = self.s.j0_rad
        np.testing.assert_allclose(h, expected, atol=1e-12)
        bell = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(h @ bell, self.s.j0_rad * bell, atol=1e-9)

    def test_block_extremes_are_invariant(self):
        for t in np.linspace(0.0, self.s.total_time, 7):
            h = h_pair(self.s, t, c=17.0)
            assert np.abs(h[0, :]).max() == 0.0
            assert np.abs(h[3, :]).max() == 0.0

    def test_block_matches_dim2_operator(self):
        # |01> -> |0>, |10> -> |1> mapping against J0 [a sx + (omega/2) sz],
        # which is also the engine's one sector.
        assert [sec.indices for sec in self.s.sectors] == [(1, 2)]
        for t in np.linspace(0.0, self.s.total_time, 11):
            h = h_pair(self.s, t, c=17.0)
            block = h[1:3, 1:3]
            a, b = self.s.ab(t)
            expected = (self.s.j0_rad + 17.0) * (a * smallmat.SIGMA_X + b * smallmat.SIGMA_Z)
            np.testing.assert_allclose(block, expected, atol=1e-12)
            np.testing.assert_allclose(h_sectors(self.s, t, 17.0), [block], atol=1e-12)


class TestHSpectator:
    """The dense 4x4 spectator Hamiltonian and its two sectors."""

    def test_decoupled_limit(self):
        base = single()
        s = SpectatorSchedule(base=base, j12=0.0)
        t = 2e-4
        np.testing.assert_allclose(h_spectator(s, t, 5.0),
                                   np.kron(h_single(base, t, 5.0), np.eye(2)),
                                   atol=1e-12)

    def test_t0_decoupled(self):
        s = SpectatorSchedule(base=single(), j12=0.0)
        np.testing.assert_allclose(h_spectator(s, 0.0),
                                   s.base.j0_rad * np.kron(smallmat.SIGMA_Z, np.eye(2)),
                                   atol=1e-12)

    def test_coupling_traceless_on_spectator(self):
        s = SpectatorSchedule(base=single(), j12=215.0)
        h = h_spectator(s, 1e-4, 3.0)
        coupling = h - np.kron(h_single(s.base, 1e-4, 3.0), np.eye(2))
        # Partial trace over the spectator of the z-z term vanishes.
        reduced = coupling[0::2, 0::2] + coupling[1::2, 1::2]
        np.testing.assert_allclose(reduced, 0.0, atol=1e-12)

    @pytest.mark.parametrize("convention", list(FrequencyConvention))
    def test_sectors_are_the_dense_blocks(self, convention):
        # The spectator's sz levels |0>, |1> pick indices (0, 2) and (1, 3).
        base = SingleQubitSchedule(j0=4000.0, total_time=5e-4, convention=convention)
        s = SpectatorSchedule(base=base, j12=215.0, omega_spec=37.0)
        for t in np.linspace(0.0, s.total_time, 7):
            h = h_spectator(s, t, 3.0)
            blocks = [h[np.ix_(idx, idx)] for idx in ([0, 2], [1, 3])]
            np.testing.assert_allclose(h_sectors(s, t, 3.0), blocks, atol=1e-9)
            # Nothing couples the two sectors.
            np.testing.assert_array_equal(h[np.ix_([0, 2], [1, 3])], 0.0)

    def test_negative_j12_rejected(self):
        with pytest.raises(ValueError):
            SpectatorSchedule(base=single(), j12=-1.0)


class TestNoise:
    def test_single_component_closed_form(self):
        spec = NoiseSpec(amplitude=3.0, omega0=10.0, omega_cut=10.0, convention=ANG)
        r = model.NoiseRealization(spec=spec, index=0, phases=np.zeros(1))
        assert noise_values(r, 0.0, 0.0, 1)[0] == pytest.approx(0.0, abs=1e-12)
        t = 0.0123
        assert noise_values(r, t, 0.0, 1)[0] == pytest.approx(3.0 * np.sin(10.0 * t), rel=1e-12)

    def test_component_count(self):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, omega_cut=5000.0, convention=ANG)
        assert spec.n_components == 5000

    def test_deterministic_and_reproducible(self):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, omega_cut=100.0, seed=42,
                         convention=ANG)
        a = realize_noise(spec, 3)
        b = realize_noise(spec, 3)
        np.testing.assert_array_equal(a.phases, b.phases)
        np.testing.assert_array_equal(noise_values(a, 0.0, 1.0 / 49, 50),
                                      noise_values(b, 0.0, 1.0 / 49, 50))

    def test_realizations_differ(self):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, omega_cut=100.0, seed=42,
                         convention=ANG)
        assert not np.array_equal(realize_noise(spec, 0).phases,
                                  realize_noise(spec, 1).phases)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_rejected(self):
        # Both the engines and the memory solver sample noise only through here.
        spec = NoiseSpec(amplitude=1e308, omega0=1.0, omega_cut=5000.0, convention=ANG)
        with pytest.raises(FloatingPointError, match="non-finite noise value"):
            noise_values(realize_noise(spec, 0), 0.0, 1e-6, 100)

    def test_seeds_above_2_63_stay_distinct(self):
        # Negative seeds are taken modulo 2^64, so they land there too.
        phases = [realize_noise(NoiseSpec(amplitude=1.0, omega0=1.0, omega_cut=10.0,
                                          seed=seed, convention=ANG)).phases
                  for seed in (-5, -6, 2**63 + 1, 2**63 + 2)]
        for i in range(4):
            for j in range(i):
                assert not np.array_equal(phases[i], phases[j])

    def test_negative_time_rejected(self):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, omega_cut=10.0, convention=ANG)
        with pytest.raises(ValueError):
            noise_values(realize_noise(spec, 0), -1.0, 0.0, 1)[0]

    @pytest.mark.parametrize("h, count", [(-1e-6, 4), (1e-6, 0)])
    def test_bad_spacing_or_count_rejected(self, h, count):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, omega_cut=10.0, convention=ANG)
        with pytest.raises(ValueError):
            noise_values(realize_noise(spec, 0), 0.0, h, count)

    def test_literal_rms(self):
        # RMS of N equal-amplitude independent-phase sinusoids: alpha sqrt(N/2).
        spec = NoiseSpec(amplitude=2.0, omega0=1.0, omega_cut=200.0, seed=5,
                         convention=ANG)
        h = 1000.0 / spec.omega0 / 200000
        acc = 0.0
        for i in range(5):
            c = noise_values(realize_noise(spec, i), 0.0, h, 200001)
            acc += np.mean(c ** 2)
        rms = np.sqrt(acc / 5)
        assert rms == pytest.approx(2.0 * np.sqrt(spec.n_components / 2.0), rel=0.02)

    def test_unit_rms(self):
        spec = NoiseSpec(amplitude=2.0, omega0=1.0, omega_cut=200.0, seed=5,
                         normalization=NoiseNormalization.UNIT_RMS, convention=ANG)
        h = 1000.0 / spec.omega0 / 200000
        acc = 0.0
        for i in range(5):
            c = noise_values(realize_noise(spec, i), 0.0, h, 200001)
            acc += np.mean(c ** 2)
        assert np.sqrt(acc / 5) == pytest.approx(2.0, rel=0.02)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(amplitude=1.0, omega0=0.0, omega_cut=10.0)
        with pytest.raises(ValueError):
            NoiseSpec(amplitude=1.0, omega0=10.0, omega_cut=5.0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 6000), count=st.integers(2, 6000),
           omega0=st.floats(0.1, 100.0), t0_units=st.integers(0, 2 ** 20),
           h_units=st.integers(1, 2 ** 12), exponent=st.integers(4, 20),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(3000, 3649, 37.3, 0, 1, 7, 6)           # large omega0 t: t up to 28.5 s
    @example(9000, 9001, 3.0, 2 ** 13, 1, 14, 6)     # tiles join in both directions
    @example(200, 200001, 1.0, 2 ** 6, 1, 8, 6)      # K >> N
    @example(50000, 5, 2.0, 3 * 2 ** 10, 1, 10, 6)   # N >> K
    def test_uniform_grid_matches_exact_reference(self, n, count, omega0, t0_units,
                                                  h_units, exponent, seed):
        # Dyadic t0 and h put every t0 + k h exactly on a double.
        spec = NoiseSpec(amplitude=1.0, omega0=omega0, omega_cut=omega0 * (n + 0.5),
                         seed=seed, convention=ANG)
        t0, h = t0_units * 2.0 ** -exponent, h_units * 2.0 ** -exponent
        tile = model._CHIRP_TILE
        edges = [k for e in range(tile, count, tile) for k in (e - 1, e)]
        ks = np.unique(np.concatenate([[0, 1, count - 1], edges,
                                       np.linspace(0, count - 1, 25)]).astype(int))
        r = realize_noise(spec, 2)
        got = noise_values(r, t0, h, count)[ks]
        rms = spec.component_scale * np.sqrt(n / 2.0)
        assert np.max(np.abs(got - exact_noise(r, t0, h, ks))) / rms < 1e-12


class TestPsdEstimate:
    def test_single_line(self):
        spec = NoiseSpec(amplitude=1.0, omega0=50.0, omega_cut=50.0, seed=0,
                         convention=ANG)
        omega, psd = psd_estimate(spec, n_realizations=20, duration=4.0, dt=0.01)
        peak = omega[np.argmax(psd)]
        assert peak == pytest.approx(50.0, rel=0.05)
        off_band = psd[(omega > 100.0)]
        assert off_band.max() < 1e-3 * psd.max()

    def test_flat_in_band_and_parseval(self):
        # Scaled-down white spec: same construction, fewer components.
        spec = NoiseSpec(amplitude=1.0, omega0=5.0, omega_cut=500.0, seed=3,
                         convention=ANG)
        # Duration an integer number of base periods: harmonics sit on bins.
        duration = 8.0 * 2.0 * np.pi / spec.omega0_rad
        omega, psd = psd_estimate(spec, n_realizations=100,
                                  duration=duration, dt=duration / 8192.0)
        band = (omega >= 10.0 * spec.omega0_rad) & (omega <= 0.9 * spec.omega_cut_rad)
        # Average over one harmonic spacing per window before the band check.
        win = int(round(spec.omega0_rad / (omega[1] - omega[0])))
        smooth = np.convolve(psd[band], np.ones(win) / win, mode="valid")[::win]
        assert smooth.max() / smooth.min() < 2.0  # flat within 3 dB
        domega = omega[1] - omega[0]
        total_power = psd.sum() * domega / (2.0 * np.pi)
        rms_sq = spec.amplitude ** 2 * spec.n_components / 2.0
        assert total_power == pytest.approx(rms_sq, rel=0.05)

    def test_aliasing_precondition(self):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, omega_cut=1000.0, convention=ANG)
        with pytest.raises(ValueError):
            psd_estimate(spec, 1, 1.0, dt=0.1)
