"""Schedules, noise synthesis, spectra, and the convention mapping of their configs."""
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import SX, SZ, h_pair, h_spectator
from nia_sim import model, smallmat
from nia_sim.config import CONVENTIONS, build_config, load_config
from nia_sim.model import (NoiseNormalization, NoiseSpec, SingleQubitSchedule,
                           SpectatorSchedule, TwoQubitSchedule, noise_values, realize_noise)
from noise_reference import exact_noise, psd_estimate
from oracle_reference import h_sectors, h_single


def single(j0=4000.0, total_time=5e-4):
    return SingleQubitSchedule(j0=j0, total_time=total_time)


class TestHSingle:
    def test_endpoints(self):
        s = single()
        np.testing.assert_allclose(h_single(s, 0.0), s.j0 * SZ, atol=1e-12)
        np.testing.assert_allclose(h_single(s, s.total_time),
                                   s.j0 * SX, atol=1e-12)

    def test_midpoint_with_noise_equal_j0(self):
        s = single()
        h = h_single(s, 0.5 * s.total_time, c=s.j0)
        expected = s.j0 * (SX + SZ)
        np.testing.assert_allclose(h, expected, atol=1e-9)

    def test_hertz_convention_scales_by_two_pi(self):
        # fig3b's schedule is single(), J0 = 4000 and T = 5e-4, read in both conventions.
        s_ang, s_hz = (load_config("fig3b", {"convention": c}).schedule()
                       for c in ("angular", "hertz"))
        assert s_ang == single()
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
        np.testing.assert_allclose(noisy.values, (1.0 + c / s.j0) * clean.values,
                                   rtol=1e-9, atol=1e-9)


class TestHPair:
    """The dense 4x4 pair Hamiltonian and its one sector, the {|01>, |10>} block."""

    def setup_method(self):
        self.s = TwoQubitSchedule(j0=100.0, total_time=0.01)

    def test_t0_is_z_difference(self):
        h = h_pair(self.s, 0.0)
        np.testing.assert_allclose(h, self.s.j0 * np.diag([0.0, 0.5, -0.5, 0.0]),
                                   atol=1e-12)

    def test_tT_pure_exchange_eigenvectors(self):
        h = h_pair(self.s, self.s.total_time)
        expected = np.zeros((4, 4))
        expected[1, 2] = expected[2, 1] = self.s.j0
        np.testing.assert_allclose(h, expected, atol=1e-12)
        bell = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(h @ bell, self.s.j0 * bell, atol=1e-9)

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
            expected = (self.s.j0 + 17.0) * (a * SX + b * SZ)
            np.testing.assert_allclose(block, expected, atol=1e-12)
            np.testing.assert_allclose(h_sectors(self.s, t, 17.0), [block], atol=1e-12)


class TestHSpectator:
    """The dense 4x4 spectator Hamiltonian and its two sectors."""

    def test_decoupled_limit(self):
        s = SpectatorSchedule(4000.0, 5e-4, j12=0.0)
        t = 2e-4
        np.testing.assert_allclose(h_spectator(s, t, 5.0),
                                   np.kron(h_single(single(), t, 5.0), np.eye(2)),
                                   atol=1e-12)

    def test_t0_decoupled(self):
        s = SpectatorSchedule(4000.0, 5e-4, j12=0.0)
        np.testing.assert_allclose(h_spectator(s, 0.0),
                                   s.j0 * np.kron(SZ, np.eye(2)),
                                   atol=1e-12)

    def test_coupling_traceless_on_spectator(self):
        s = SpectatorSchedule(4000.0, 5e-4, j12=215.0)
        h = h_spectator(s, 1e-4, 3.0)
        coupling = h - np.kron(h_single(single(), 1e-4, 3.0), np.eye(2))
        # Partial trace over the spectator of the z-z term vanishes.
        reduced = coupling[0::2, 0::2] + coupling[1::2, 1::2]
        np.testing.assert_allclose(reduced, 0.0, atol=1e-12)

    @pytest.mark.parametrize("convention", list(CONVENTIONS))
    def test_sectors_are_the_dense_blocks(self, convention):
        # The spectator's sz levels |0>, |1> pick indices (0, 2) and (1, 3);
        # the config reads J0 = 4000 and J12 = 215 in either convention.
        s = load_config("fig3b", {"system": "spectator", "J12": "215",
                                  "convention": convention}).schedule()
        for t in np.linspace(0.0, s.total_time, 7):
            h = h_spectator(s, t, 3.0)
            blocks = [h[np.ix_(idx, idx)] for idx in ([0, 2], [1, 3])]
            np.testing.assert_allclose(h_sectors(s, t, 3.0), blocks, atol=1e-9)
            # Nothing couples the two sectors.
            np.testing.assert_array_equal(h[np.ix_([0, 2], [1, 3])], 0.0)

    def test_negative_j12_rejected(self):
        with pytest.raises(ValueError):
            SpectatorSchedule(4000.0, 5e-4, j12=-1.0)


def test_models_with_equal_parameters_differ():
    # The pair and spectator schedules subclass the single sweep; dataclass
    # equality still compares the classes.
    schedules = [cls(4000.0, 5e-4)
                 for cls in (SingleQubitSchedule, TwoQubitSchedule, SpectatorSchedule)]
    for s in schedules:
        assert [s == t for t in schedules] == [s is t for t in schedules]


class TestNoise:
    def test_single_component_closed_form(self):
        spec = NoiseSpec(amplitude=3.0, omega0=10.0, n_components=1)
        r = model.NoiseRealization(spec=spec, index=0, phases=np.zeros(1))
        assert noise_values(r, 0.0, 0.0, 1)[0] == pytest.approx(0.0, abs=1e-12)
        t = 0.0123
        assert noise_values(r, t, 0.0, 1)[0] == pytest.approx(3.0 * np.sin(10.0 * t), rel=1e-12)

    def test_component_count(self):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, omega_cut=5000.0)
        assert spec.n_components == 5000

    @pytest.mark.parametrize("normalization", list(NoiseNormalization))
    def test_cutoff_form_is_the_configs_spec(self, normalization):
        # The benchmark's memory check builds its spec from the cutoff.
        spec = NoiseSpec(amplitude=20000.0, omega0=1.0, omega_cut=5000.0, seed=4,
                         normalization=normalization)
        cfg = build_config({"noise.amplitude": "20000", "noise.omega_cut": "5000",
                            "noise.seed": "4", "noise.normalization": normalization.value})
        assert spec == cfg.noise_spec()
        assert spec.amplitude == (20000.0 * np.sqrt(2.0 / 5000)
                                  if normalization is NoiseNormalization.UNIT_RMS else 20000.0)

    def test_deterministic_and_reproducible(self):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, n_components=100, seed=42)
        a = realize_noise(spec, 3)
        b = realize_noise(spec, 3)
        np.testing.assert_array_equal(a.phases, b.phases)
        np.testing.assert_array_equal(noise_values(a, 0.0, 1.0 / 49, 50),
                                      noise_values(b, 0.0, 1.0 / 49, 50))

    def test_realizations_differ(self):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, n_components=100, seed=42)
        assert not np.array_equal(realize_noise(spec, 0).phases,
                                  realize_noise(spec, 1).phases)

    def test_phases_in_turns_name_the_radian_draw(self):
        # 2 pi times the phases is the generator's uniform(0, 2 pi) draw bit
        # for bit, so a seed names the same noise path in either unit.
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, n_components=5000, seed=42)
        for i in (0, 7):
            phases = realize_noise(spec, i).phases
            assert phases.min() >= 0.0 and phases.max() < 1.0
            rng = np.random.Generator(np.random.Philox(key=[42, i]))
            radians = rng.uniform(0.0, 2.0 * np.pi, spec.n_components)
            np.testing.assert_array_equal(2.0 * np.pi * phases, radians)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_rejected(self):
        # Both the engines and the memory solver sample noise only through here.
        spec = NoiseSpec(amplitude=1e308, omega0=1.0, n_components=5000)
        with pytest.raises(FloatingPointError, match="non-finite noise value"):
            noise_values(realize_noise(spec, 0), 0.0, 1e-6, 100)

    def test_seeds_above_2_63_stay_distinct(self):
        # Negative seeds are taken modulo 2^64, so they land there too.
        phases = [realize_noise(NoiseSpec(amplitude=1.0, omega0=1.0, n_components=10,
                                          seed=seed)).phases
                  for seed in (-5, -6, 2**63 + 1, 2**63 + 2)]
        for i in range(4):
            for j in range(i):
                assert not np.array_equal(phases[i], phases[j])

    def test_negative_time_rejected(self):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, n_components=10)
        with pytest.raises(ValueError):
            noise_values(realize_noise(spec, 0), -1.0, 0.0, 1)[0]

    @pytest.mark.parametrize("h, count", [(-1e-6, 4), (1e-6, 0)])
    def test_bad_spacing_or_count_rejected(self, h, count):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, n_components=10)
        with pytest.raises(ValueError):
            noise_values(realize_noise(spec, 0), 0.0, h, count)

    def test_literal_rms(self):
        # RMS of N equal-amplitude independent-phase sinusoids: alpha sqrt(N/2).
        spec = NoiseSpec(amplitude=2.0, omega0=1.0, n_components=200, seed=5)
        h = 1000.0 / spec.omega0 / 200000
        acc = 0.0
        for i in range(5):
            c = noise_values(realize_noise(spec, i), 0.0, h, 200001)
            acc += np.mean(c ** 2)
        rms = np.sqrt(acc / 5)
        assert rms == pytest.approx(2.0 * np.sqrt(spec.n_components / 2.0), rel=0.02)

    def test_unit_rms(self):
        spec = NoiseSpec(amplitude=2.0, omega0=1.0, omega_cut=200.0, seed=5,
                         normalization=NoiseNormalization.UNIT_RMS)
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
        with pytest.raises(ValueError):
            NoiseSpec(amplitude=1.0, omega0=10.0, n_components=0)
        with pytest.raises(ValueError, match="n_components or omega_cut"):
            NoiseSpec(amplitude=1.0, omega0=10.0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 6000), count=st.integers(2, 6000),
           omega0=st.floats(0.1, 100.0), t0_units=st.integers(0, 2 ** 20),
           h_units=st.integers(1, 2 ** 12), exponent=st.integers(4, 20),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(3000, 3649, 37.3, 0, 1, 7, 6)           # large omega0 t: t up to 28.5 s
    @example(model._TILE_COMPONENTS + 1, 5, 3.0, 2 ** 13, 1, 14, 6)  # past the column edge
    @example(20, model._TILE_SAMPLES + 1, 3.0, 2 ** 13, 1, 14, 6)     # past the row edge
    @example(20000, 9001, 3.0, 2 ** 13, 1, 14, 6)    # tiles join in both directions
    @example(200, 200001, 1.0, 2 ** 6, 1, 8, 6)      # K >> N
    @example(50000, 5, 2.0, 3 * 2 ** 10, 1, 10, 6)   # N >> K
    @example(2 ** 17, 5, 3.0, 2 ** 13, 1, 14, 6)     # j^2 to 2^34: turned whole, 4.2e-12 off
    @example(25000, 2001, 1.0, 0, 21, 22, 6)         # fig4b: 4 component tiles, h near 5e-6
    # Moment sums: fig3d's midpoint grid and the memory solver's grid (both
    # h = 5e-7 from t0 = 0, reach Z = 1.25), the reach 2.38 just under the
    # moment cap and 2.53 just over it, one sample, and h = 0.
    @example(5000, 1001, 1.0, 0, 5e-7 * 2 ** 20, 20, 6)
    @example(5000, 1001, 1.0, 3, 1, 20, 6)
    @example(5000, 1001, 1.0, 3, 17, 24, 6)
    @example(5000, 1, 1.0, 2 ** 13, 1, 14, 6)
    @example(5000, 1001, 1.0, 2 ** 13, 0, 14, 6)
    def test_uniform_grid_matches_exact_reference(self, n, count, omega0, t0_units,
                                                  h_units, exponent, seed):
        # Dyadic t0 and h put every t0 + k h exactly on a double.
        spec = NoiseSpec(amplitude=1.0, omega0=omega0, n_components=n, seed=seed)
        t0, h = t0_units * 2.0 ** -exponent, h_units * 2.0 ** -exponent
        tile = model._TILE_SAMPLES
        edges = [k for e in range(tile, count, tile) for k in (e - 1, e)]
        ks = np.unique(np.concatenate([[0, 1, count - 1], edges,
                                       np.linspace(0, count - 1, 25)]).astype(int))
        ks = ks[ks < count]
        r = realize_noise(spec, 2)
        got = noise_values(r, t0, h, count)[ks]
        rms = spec.amplitude * np.sqrt(n / 2.0)
        assert np.max(np.abs(got - exact_noise(r, t0, h, ks))) / rms < 1e-12


class TestExpi:
    """`_expi`, the synthesizer's exp(2 pi i turns): a table of roots of unity and a series."""

    # Largest |_expi - exp| against a long-double exp(2 pi i turns) on [0, 1):
    # 1.5e-16 measured over 10^6 random turns and every point below (np.exp:
    # 7.9e-17); the bound leaves a factor 2.
    BOUND = 3e-16

    @staticmethod
    def error(turns):
        turns = np.asarray(turns, dtype=float)
        n = len(turns)
        work = (*np.empty((3, n)), np.empty(n, dtype=np.intp), np.empty(n, dtype=complex))
        got = model._expi(turns, np.empty(n, dtype=complex), work)
        # Whole turns drop exactly; 2 pi comes from its 40 digits, since
        # np.longdouble(np.pi) is itself 2.4e-16 off.
        angle = (turns - np.round(turns)).astype(np.longdouble) * np.longdouble(model._TWO_PI)
        return np.abs(got - np.exp(1j * angle)).max()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                              st.floats(-2.0 ** 40, 2.0 ** 40)), min_size=1, max_size=64))
    @example([0.0])
    @example([np.nextafter(1.0, 0.0)])
    @example([-2.0 ** 40, np.nextafter(2.0 ** 40, 0.0), 2.0 ** 40])
    def test_matches_long_double_exp(self, turns):
        assert self.error(turns) <= self.BOUND

    def test_half_steps_around_table_points(self):
        # The residual is largest, +-pi/2^10 rad, where rounding to a table
        # point flips: at odd multiples of 2^-11 turn, in the first turn and
        # 2^30 turns out.
        for whole in (0.0, 2.0 ** 30, -2.0 ** 30):
            half = whole + np.arange(-1, 2 * model._ROOTS + 1) * 2.0 ** -11
            turns = np.concatenate([np.nextafter(half, -np.inf), half,
                                    np.nextafter(half, np.inf)])
            assert self.error(turns[(turns >= whole) & (turns < whole + 1.0)]) <= self.BOUND

    def test_table_is_built_on_first_use(self):
        # Importing the package builds no table: runs without noise never need one.
        code = ("import nia_sim; from nia_sim import model; "
                "print(model._unit_roots.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, check=True)
        assert result.stdout.strip() == "0"


class TestChirpPlan:
    """The grid plan is memoized for the latest grid and never changes a result."""

    @staticmethod
    def fresh(r, t0, h, count):
        model._grid_plan.cache_clear()
        return noise_values(r, t0, h, count)

    def test_reuse_is_bit_identical(self):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, n_components=20000, seed=3)
        a, b = realize_noise(spec, 0), realize_noise(spec, 1)
        # Grids B, C, D and E each differ from A in one of t0, h and count;
        # E is short enough for the moment sum.
        grid_a = (0.0, 5e-7, 4099)
        grids = [grid_a, (2.5e-4, 5e-7, 4099), (0.0, 1e-6, 4099), (0.0, 5e-7, 1001),
                 (0.0, 5e-7, 101)]
        want = {(r.index, g): self.fresh(r, *g) for r in (a, b) for g in grids}
        assert isinstance(model._grid_plan(1.0, 20000, *grids[-1]), model._MomentPlan)
        model._grid_plan.cache_clear()
        for g in grids[1:]:
            for r, grid in ((a, grid_a), (b, grid_a), (a, g), (b, g), (a, grid_a)):
                np.testing.assert_array_equal(noise_values(r, *grid), want[r.index, grid])

    def test_plan_is_read_only_and_within_budget(self):
        for count in (1001, 2001, 2 * 10 ** 6):
            plan = model._grid_plan(1.0, 25000, 0.0, 5e-7, count)
            assert isinstance(plan, model._ChirpPlan)
            arrays = [plan.half, plan.outof, *plan.kernels, *plan.offsets]
            assert sum(a.nbytes for a in arrays) <= model._PLAN_BUDGET
            assert not any(a.flags.writeable for a in arrays)
        # fig4b's grid: four tiles, of 3 x 8192 and 424 components, by 2001
        # samples, and reach Z = 125 rad: chirp-z.
        plan = model._grid_plan(1.0, 25000, 0.0, 5e-6, 2001)
        assert isinstance(plan, model._ChirpPlan)
        assert (plan.size, len(plan.kernels), len(plan.offsets)) == (10240, 4, 4)
        # fig3d's midpoint grid (0.5 tau with tau = T / 500) and the memory
        # solver's (linspace(0, T, 1001)), T = 5e-4: Z = 1.25 rad, degree 20.
        _, step = np.linspace(0.0, 5e-4, 1001, retstep=True)
        for h in (0.5 * (5e-4 / 500), step):
            plan = model._grid_plan(1.0, 5000, 0.0, h, 1001)
            assert isinstance(plan, model._MomentPlan)
            arrays = [plan.offset, plan.powers, plan.shift, plan.basis, plan.pick]
            assert plan.powers.shape == (21, 512) and plan.basis.shape == (1001, 21)
            assert sum(a.nbytes for a in arrays) <= model._PLAN_BUDGET
            assert not any(a.flags.writeable for a in arrays)

    def test_specs_differing_in_amplitude_share_one_plan(self):
        # Criterion 10's noise levels differ only in amplitude; a plan keyed
        # on the spec would be rebuilt for each of them.
        model._grid_plan.cache_clear()
        for amplitude in (4000.0, 20000.0, 80000.0, 4000.0):
            spec = NoiseSpec(amplitude=amplitude, omega0=1.0, n_components=5000, seed=7)
            noise_values(realize_noise(spec, 0), 0.0, 5e-7, 1001)
        info = model._grid_plan.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_past_budget_grid_keeps_kernels_first(self):
        # 2^19 components in 64 tiles by 5 samples overflow the budget.  The
        # plan keeps 29 kernel transforms and one offset; filled in tile
        # order it kept 20 of each.  Dropped ones are rebuilt bit for bit.
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, n_components=2 ** 19, seed=2)
        r = realize_noise(spec, 0)
        fresh = self.fresh(r, 0.0, 2.0 ** -14, 5)
        plan = model._grid_plan(1.0, 2 ** 19, 0.0, 2.0 ** -14, 5)
        assert isinstance(plan, model._ChirpPlan)
        assert len(plan.kernels) >= 20 and len(plan.kernels) > len(plan.offsets)
        np.testing.assert_array_equal(noise_values(r, 0.0, 2.0 ** -14, 5), fresh)
        last = 1 + (len(plan.kernels) - 1) * model._TILE_COMPONENTS
        np.testing.assert_array_equal(plan.kernels[-1], plan.kernel(last))

    def test_fft_lengths_are_5_smooth(self):
        assert [model._smooth_length(n) for n in (1, 6, 4595, 5095, 6000, 18384, 20479)] == [
            1, 6, 4608, 5120, 6000, 18432, 20480]

    def test_long_grid_peaks_within_budget(self):
        # 2 x 10^6 samples are 489 tiles; the plan keeps the leading ones and
        # the others are rebuilt, so the call holds its output, the plan and
        # one tile's temporaries (about 2 MB), never a factor per tile.
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, n_components=5000)
        r = realize_noise(spec, 0)
        model._grid_plan.cache_clear()
        tracemalloc.start()
        try:
            values = noise_values(r, 0.0, 5e-7, 2 * 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - values.nbytes <= model._PLAN_BUDGET + 3 * 2 ** 20


class TestPsdEstimate:
    def test_single_line(self):
        spec = NoiseSpec(amplitude=1.0, omega0=50.0, n_components=1, seed=0)
        omega, psd = psd_estimate(spec, n_realizations=20, duration=4.0, dt=0.01)
        peak = omega[np.argmax(psd)]
        assert peak == pytest.approx(50.0, rel=0.05)
        off_band = psd[(omega > 100.0)]
        assert off_band.max() < 1e-3 * psd.max()

    def test_flat_in_band_and_parseval(self):
        # Scaled-down white spec: same construction, fewer components.
        spec = NoiseSpec(amplitude=1.0, omega0=5.0, n_components=100, seed=3)
        # Duration an integer number of base periods: harmonics sit on bins.
        duration = 8.0 * 2.0 * np.pi / spec.omega0
        omega, psd = psd_estimate(spec, n_realizations=100,
                                  duration=duration, dt=duration / 8192.0)
        band = (omega >= 10.0 * spec.omega0) & (omega <= 0.9 * spec.n_components * spec.omega0)
        # Average over one harmonic spacing per window before the band check.
        win = int(round(spec.omega0 / (omega[1] - omega[0])))
        smooth = np.convolve(psd[band], np.ones(win) / win, mode="valid")[::win]
        assert smooth.max() / smooth.min() < 2.0  # flat within 3 dB
        domega = omega[1] - omega[0]
        total_power = psd.sum() * domega / (2.0 * np.pi)
        rms_sq = spec.amplitude ** 2 * spec.n_components / 2.0
        assert total_power == pytest.approx(rms_sq, rel=0.05)

    def test_aliasing_precondition(self):
        spec = NoiseSpec(amplitude=1.0, omega0=1.0, n_components=1000)
        with pytest.raises(ValueError):
            psd_estimate(spec, 1, 1.0, dt=0.1)
