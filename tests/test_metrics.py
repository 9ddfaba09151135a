"""Observables, aggregation, and the spectator comparison."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nia_sim import evolve, metrics, model
from nia_sim.evolve import EvolutionConfig
from nia_sim.model import (FrequencyConvention, NoiseSpec, SingleQubitSchedule,
                           SpectatorSchedule, TwoQubitSchedule, realize_noise)

ANG = FrequencyConvention.ANGULAR_DIRECT
ZERO = np.array([1.0, 0.0], dtype=complex)


def single(j0=4000.0, total_time=5e-4):
    return SingleQubitSchedule(j0=j0, total_time=total_time, convention=ANG)


def fig3_noise(index=0, seed=1):
    spec = NoiseSpec(amplitude=4000.0, omega0=1.0, omega_cut=5000.0, seed=seed,
                     convention=ANG)
    return realize_noise(spec, index)


def unit_states(dim):
    amp = st.tuples(*([st.floats(-1.0, 1.0)] * (2 * dim)))
    def build(parts):
        v = np.array([complex(parts[2 * i], parts[2 * i + 1]) for i in range(dim)])
        n = np.linalg.norm(v)
        return None if n < 1e-3 else v / n
    return amp.map(build).filter(lambda v: v is not None)


class TestBasisMetrics:
    def test_zero_state(self):
        assert metrics.basis_metrics(ZERO) == (1.0, 0.0, 0.0)

    def test_circular_state_sign(self):
        state = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        pop0, pop1, im = metrics.basis_metrics(state)
        assert pop0 == pytest.approx(0.5)
        assert pop1 == pytest.approx(0.5)
        assert im == pytest.approx(-0.5)

    def test_bell_block_state(self):
        # Read through the pair model's one sector, |01> -> |0>, |10> -> |1>.
        state = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        pair = TwoQubitSchedule(j0=100.0, total_time=0.01, convention=ANG)
        (block,) = model.sector_states(pair, state)
        pop0, pop1, im = metrics.basis_metrics(block)
        assert pop0 == pytest.approx(0.5)
        assert pop1 == pytest.approx(0.5)
        assert im == pytest.approx(0.0, abs=1e-15)

    def test_unknown_mapping(self):
        # A four-level state has no direct reading; it is split into sectors first.
        with pytest.raises(ValueError):
            metrics.basis_metrics(np.array([0.0, 1.0, 0.0, 0.0]))

    @given(state=unit_states(2))
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, state):
        pop0, pop1, im = metrics.basis_metrics(state)
        assert pop0 + pop1 == pytest.approx(1.0, abs=1e-9)
        assert abs(im) <= np.sqrt(pop0 * pop1) + 1e-9
        assert abs(im) <= 0.5 + 1e-12

    @given(state=unit_states(2), phi=st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=100, deadline=None)
    def test_global_phase_invariance(self, state, phi):
        a = metrics.basis_metrics(state)
        b = metrics.basis_metrics(np.exp(1.0j * phi) * state)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestReducedQubit:
    def test_partial_trace_over_spectator(self):
        rng = np.random.default_rng(4)
        state = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state /= np.linalg.norm(state)
        # Partial trace of |psi><psi| over the spectator, driven (x) spectator.
        m = state.reshape(2, 2)
        expected = m @ m.conj().T
        spec = SpectatorSchedule(base=single(), j12=215.0)
        sectors = model.sector_states(spec, state)
        np.testing.assert_allclose(metrics.reduced_density(sectors), expected, atol=1e-15)
        pop0, pop1, im = metrics.reduced_qubit_metrics(sectors)
        np.testing.assert_allclose((pop0, pop1, im),
                                   (expected[0, 0].real, expected[1, 1].real,
                                    expected[0, 1].imag), atol=1e-15)


class TestEigenstateFidelity:
    """The recorded fidelity_e0 column of the stepwise engine."""

    def test_population_consistency_at_t_end(self):
        s = single()
        traj = evolve.evolve_stepwise(s, None, EvolutionConfig(dt=1e-6), ZERO)
        # fidelity_e0(T) = |alpha + beta|^2 / 2 reconstructed from metrics.
        pop0, pop1, im = traj.pop0[-1], traj.pop1[-1], traj.im_coherence[-1]
        re = np.sqrt(max(pop0 * pop1 - im * im, 0.0))
        fid = 0.5 * (pop0 + pop1) + re  # sign of Re fixed by this run
        alt = 0.5 * (pop0 + pop1) - re
        assert (traj.fidelity_e0[-1] == pytest.approx(fid, abs=1e-9)
                or traj.fidelity_e0[-1] == pytest.approx(alt, abs=1e-9))


class TestAggregate:
    def make_traj(self, index, im=0.0):
        times = np.linspace(0.0, 1.0, 5)
        return metrics.Trajectory(
            times=times, pop0=np.full(5, 0.5 + 0.1 * index),
            pop1=np.full(5, 0.5 - 0.1 * index), im_coherence=np.full(5, im),
            fidelity_e0=np.ones(5), gap=np.ones(5), noise=np.zeros(5),
            meta={"schedule": ("single", 1.0, 1.0, "angular"),
                  "realization_index": index})

    def test_single_member(self):
        summary = metrics.aggregate([self.make_traj(0)])
        assert summary.m == 1
        np.testing.assert_array_equal(summary.mean["pop0"], 0.5)
        np.testing.assert_array_equal(summary.se["pop0"], 0.0)

    def test_identical_members_zero_variance(self):
        summary = metrics.aggregate([self.make_traj(0)] * 5)
        np.testing.assert_allclose(summary.se["pop0"], 0.0, atol=1e-15)

    def test_mean_and_se(self):
        summary = metrics.aggregate([self.make_traj(0), self.make_traj(1)])
        np.testing.assert_allclose(summary.mean["pop0"], 0.55, atol=1e-12)
        expected_se = np.std([0.5, 0.6], ddof=1) / np.sqrt(2.0)
        np.testing.assert_allclose(summary.se["pop0"], expected_se, atol=1e-12)
        assert summary.meta["seeds"] == [0, 1]

    def test_grid_mismatch(self):
        a = self.make_traj(0)
        b = metrics.Trajectory(
            times=a.times * 2.0, pop0=a.pop0, pop1=a.pop1,
            im_coherence=a.im_coherence, fidelity_e0=a.fidelity_e0, gap=a.gap,
            noise=a.noise, meta=a.meta)
        with pytest.raises(metrics.GridMismatchError):
            metrics.aggregate([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.aggregate([])

    def test_batched_run_matches_member_runs(self):
        s, cfg = single(total_time=1e-4), EvolutionConfig(dt=1e-6)
        noises = [fig3_noise(index=i) for i in range(3)]
        batched = metrics.aggregate(evolve.evolve_stepwise(s, noises, cfg, ZERO))
        members = metrics.aggregate([evolve.evolve_stepwise(s, n, cfg, ZERO) for n in noises])
        assert batched.m == members.m == 3
        assert batched.meta["seeds"] == members.meta["seeds"] == [0, 1, 2]
        for name in members.mean:
            np.testing.assert_allclose(batched.mean[name], members.mean[name],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(batched.se[name], members.se[name],
                                       rtol=1e-12, atol=1e-12)


class TestSpectatorError:
    def run_pair(self, j12, noise=None):
        base_s = single()
        spec_s = SpectatorSchedule(base=base_s, j12=j12)
        cfg = EvolutionConfig(dt=1e-6)
        base = evolve.evolve_stepwise(base_s, noise, cfg, ZERO)
        init4 = np.kron(ZERO, ZERO)
        embedded = evolve.evolve_stepwise(spec_s, noise, cfg, init4)
        return base, embedded

    def test_decoupled_limit(self):
        base, embedded = self.run_pair(0.0)
        assert metrics.spectator_error(base, embedded) < 1e-9

    def test_fig3d_under_one_percent(self):
        base, embedded = self.run_pair(215.0, noise=fig3_noise())
        assert metrics.spectator_error(base, embedded) < 0.01

    def test_monotone_in_j12(self):
        noise = fig3_noise()
        errs = []
        for j12 in (430.0, 215.0, 107.5):
            base, embedded = self.run_pair(j12, noise=noise)
            errs.append(metrics.spectator_error(base, embedded))
        assert errs[0] > errs[1] > errs[2]

    def test_purity_of_reduced_state(self):
        _, embedded = self.run_pair(215.0, noise=fig3_noise())
        # Reconstruct a final reduced state from a fresh run for the bound.
        spec_s = SpectatorSchedule(base=single(), j12=215.0)
        state = evolve.final_state_stepwise(spec_s, fig3_noise(),
                                            EvolutionConfig(dt=1e-6),
                                            np.kron(ZERO, ZERO))
        rho = metrics.reduced_density(model.sector_states(spec_s, state))
        purity = float(np.real(np.trace(rho @ rho)))
        assert 0.5 - 1e-12 <= purity <= 1.0 + 1e-12
