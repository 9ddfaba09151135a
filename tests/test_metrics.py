"""Observables, aggregation, and the spectator comparison."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference as oref
from dense_reference import SX, SZ
from nia_sim import evolve, metrics, model, smallmat
from nia_sim.evolve import EvolutionConfig
from nia_sim.model import (NoiseSpec, SingleQubitSchedule, SpectatorSchedule,
                           TwoQubitSchedule, realize_noise)

ZERO = np.array([1.0, 0.0], dtype=complex)


def single(j0=4000.0, total_time=5e-4):
    return SingleQubitSchedule(j0=j0, total_time=total_time)


def fig3_noise(index=0, seed=1):
    spec = NoiseSpec(amplitude=4000.0, omega0=1.0, n_components=5000, seed=seed)
    return realize_noise(spec, index)


def unit_states(dim):
    amp = st.tuples(*([st.floats(-1.0, 1.0)] * (2 * dim)))
    def build(parts):
        v = np.array([complex(parts[2 * i], parts[2 * i + 1]) for i in range(dim)])
        n = np.linalg.norm(v)
        return None if n < 1e-3 else v / n
    return amp.map(build).filter(lambda v: v is not None)


def density_matrix(sectors):
    """The (..., 2, 2) reduced density matrix from the entries `reduced_density` returns."""
    rho00, rho11, rho01 = metrics.reduced_density(sectors)
    return np.stack([np.stack([rho00, rho01], -1), np.stack([rho01.conj(), rho11], -1)], -2)


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
        pair = TwoQubitSchedule(j0=100.0, total_time=0.01)
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
        spec = SpectatorSchedule(4000.0, 5e-4, j12=215.0)
        sectors = model.sector_states(spec, state)
        np.testing.assert_allclose(metrics.reduced_density(sectors),
                                   (expected[0, 0], expected[1, 1], expected[0, 1]), atol=1e-15)
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

    # (schedule, initial state, noise paths): the upper level from zero and
    # pair01, the lower from one and from the tie at plus, and a noisy
    # spectator ensemble whose driven qubit starts at pop0 < pop1 and whose
    # reduced state is mixed.
    CASES = {
        "zero": (single(), ZERO, None),
        "one": (single(), np.array([0.0, 1.0], dtype=complex), None),
        "plus": (single(), np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0), None),
        "pair01": (TwoQubitSchedule(j0=100.0, total_time=0.01),
                   np.array([0.0, 1.0, 0.0, 0.0], dtype=complex), None),
        "spectator": (SpectatorSchedule(4000.0, 5e-4, j12=300.0),
                      np.kron([0.6, 0.8], [1.0, 1.0]) / np.sqrt(2.0),
                      [fig3_noise(index=i) for i in range(3)]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_column_matches_eigenvector_projection(self, case):
        # <v|rho|v> of every record, v from eigh of the direction operator:
        # the upper level when the initial pop0 > pop1, the lower otherwise.
        schedule, initial, noise = self.CASES[case]
        cfg = EvolutionConfig(dt=schedule.total_time / 500, store_every=5)
        traj = evolve.evolve_stepwise(schedule, noise, cfg, initial)
        noises = noise if noise is not None else [None]
        _, c, states = oref.gather(evolve._propagate(schedule, noises, cfg, initial,
                                                     evolve._midpoint_step, cfg.store_every))
        rho = density_matrix(states)
        fidelity = np.atleast_2d(traj.fidelity_e0)
        gap = np.atleast_2d(traj.gap)
        upper = rho[0, 0, 0, 0].real > rho[0, 0, 1, 1].real
        assert upper == (case in ("zero", "pair01"))
        a, b = schedule.ab(traj.times)
        for i in range(len(traj.times)):
            eig = smallmat.eigh(float(a[i]) * SX + float(b[i]) * SZ)
            v = eig.vectors[:, 1 if upper else 0]
            expected = np.einsum("i,mij,j->m", v.conj(), rho[:, i], v).real
            np.testing.assert_allclose(fidelity[:, i], expected, rtol=0.0, atol=1e-12)
            # E1 - E0 with the tracked level first, scaled by the noisy prefactor.
            split = (schedule.j0 + c[:, i]) * (eig.values[1] - eig.values[0])
            np.testing.assert_allclose(gap[:, i], -split if upper else split,
                                       rtol=1e-12, atol=0.0)


class TestAggregate:
    def make_traj(self, indices):
        """One batched trajectory of five records, member i at pop0 = 0.5 + 0.1 i."""
        times = np.linspace(0.0, 1.0, 5)
        shift = 0.1 * np.array(indices, dtype=float)[:, None]
        ones = np.ones((len(indices), 5))
        return metrics.Trajectory(
            times=times, pop0=0.5 + shift * ones, pop1=0.5 - shift * ones,
            im_coherence=np.zeros_like(ones), fidelity_e0=ones, gap=ones,
            noise=np.zeros_like(ones))

    def test_single_member(self):
        summary = metrics.aggregate(self.make_traj([0]))
        assert summary.m == 1
        np.testing.assert_array_equal(summary.mean["pop0"], 0.5)
        np.testing.assert_array_equal(summary.se["pop0"], 0.0)

    def test_identical_members_zero_variance(self):
        summary = metrics.aggregate(self.make_traj([0] * 5))
        np.testing.assert_allclose(summary.se["pop0"], 0.0, atol=1e-15)

    def test_mean_and_se(self):
        summary = metrics.aggregate(self.make_traj([0, 1]))
        np.testing.assert_allclose(summary.mean["pop0"], 0.55, atol=1e-12)
        expected_se = np.std([0.5, 0.6], ddof=1) / np.sqrt(2.0)
        np.testing.assert_allclose(summary.se["pop0"], expected_se, atol=1e-12)

    def test_unbatched_rejected(self):
        traj = evolve.evolve_stepwise(single(total_time=1e-5), None, EvolutionConfig(dt=1e-6), ZERO)
        with pytest.raises(ValueError):
            metrics.aggregate(traj)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evolve.evolve_stepwise(single(), [], EvolutionConfig(dt=1e-6), ZERO)

    def test_batched_run_matches_member_runs(self):
        s, cfg = single(total_time=1e-4), EvolutionConfig(dt=1e-6)
        noises = [fig3_noise(index=i) for i in range(3)]
        batched = metrics.aggregate(evolve.evolve_stepwise(s, noises, cfg, ZERO))
        runs = [evolve.evolve_stepwise(s, n, cfg, ZERO) for n in noises]
        assert batched.m == 3
        for name in metrics.METRIC_NAMES:
            stack = np.stack([getattr(run, name) for run in runs])
            np.testing.assert_allclose(batched.mean[name], np.mean(stack, axis=0),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(batched.se[name],
                                       np.std(stack, axis=0, ddof=1) / np.sqrt(3.0),
                                       rtol=1e-12, atol=1e-12)


class TestSpectatorError:
    def run_pair(self, j12, noise=None):
        base_s = single()
        spec_s = SpectatorSchedule(4000.0, 5e-4, j12=j12)
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
        spec_s = SpectatorSchedule(4000.0, 5e-4, j12=215.0)
        state = evolve.final_state_stepwise(spec_s, fig3_noise(),
                                            EvolutionConfig(dt=1e-6),
                                            np.kron(ZERO, ZERO))
        rho = density_matrix(model.sector_states(spec_s, state))
        purity = float(np.real(np.trace(rho @ rho)))
        assert 0.5 - 1e-12 <= purity <= 1.0 + 1e-12
