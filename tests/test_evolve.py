"""Evolution engines, batched members, convergence, pulse decomposition."""
import tracemalloc

import numpy as np
import pytest

import dense_reference as dense
from nia_sim import evolve, model, smallmat
from nia_sim.config import load_config
from nia_sim.evolve import EvolutionConfig
from nia_sim.model import (FrequencyConvention, NoiseSpec, SingleQubitSchedule,
                           SpectatorSchedule, TwoQubitSchedule, realize_noise)
from noise_reference import exact_noise

ANG = FrequencyConvention.ANGULAR_DIRECT

ZERO = np.array([1.0, 0.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
PAIR01 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)


def single(j0=4000.0, total_time=5e-4):
    return SingleQubitSchedule(j0=j0, total_time=total_time, convention=ANG)


def rms(noise):
    spec = noise.spec
    return spec.component_scale * np.sqrt(spec.n_components / 2.0)


def fig3_noise(seed=1, index=0):
    spec = NoiseSpec(amplitude=4000.0, omega0=1.0, omega_cut=5000.0, seed=seed,
                     convention=ANG)
    return realize_noise(spec, index)


class _FrozenSchedule(SingleQubitSchedule):
    """Sweep coefficients pinned at t = 0 (constant J0 sz)."""

    def ab(self, t):
        return np.zeros_like(np.asarray(t, dtype=float)), \
            np.ones_like(np.asarray(t, dtype=float))


class TestEvolveStepwise:
    def test_constant_hamiltonian_keeps_populations(self):
        s = _FrozenSchedule(j0=4000.0, total_time=5e-4, convention=ANG)
        traj = evolve.evolve_stepwise(s, None, EvolutionConfig(dt=1e-6), ZERO)
        np.testing.assert_allclose(traj.pop0, 1.0, atol=1e-10)
        np.testing.assert_allclose(traj.pop1, 0.0, atol=1e-10)

    def test_fig3b_non_adiabatic_endpoint(self):
        traj = evolve.evolve_stepwise(single(), None, EvolutionConfig(dt=1e-6), ZERO)
        assert abs(traj.pop0[-1] - 0.5) > 0.05
        assert np.abs(traj.im_coherence).max() > 0.1
        assert traj.fidelity_e0[-1] < 0.95

    def test_tracked_level_tie_goes_to_lower(self):
        # |+> overlaps both levels of J0 sz equally at t = 0; the lower level
        # (ascending index 0) is tracked, so the gap column is +2 J0 k.
        s = single()
        traj = evolve.evolve_stepwise(s, None, EvolutionConfig(dt=1e-6), PLUS)
        assert traj.fidelity_e0[0] == pytest.approx(0.5, abs=1e-15)
        a, b = s.ab(traj.times)
        np.testing.assert_allclose(traj.gap, 2.0 * s.j0_rad * np.hypot(a, b), rtol=1e-12)

    def test_record_grid_and_final_time(self):
        s = single()
        traj = evolve.evolve_stepwise(s, None, EvolutionConfig(dt=1e-6, store_every=10),
                                      ZERO)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(s.total_time, abs=1e-15)
        np.testing.assert_allclose(np.diff(traj.times)[:-1], 1e-5, rtol=1e-9)

    def test_truncated_last_step_lands_on_t(self):
        s = single(total_time=5.05e-4)
        traj = evolve.evolve_stepwise(s, None, EvolutionConfig(dt=1e-6), ZERO)
        assert traj.times[-1] == pytest.approx(s.total_time, abs=1e-15)

    def test_unnormalized_initial_rejected(self):
        with pytest.raises(ValueError):
            evolve.evolve_stepwise(single(), None, EvolutionConfig(dt=1e-6),
                                   np.array([1.0, 1.0]))

    def test_norm_preserved_without_renormalization(self):
        s = single(total_time=1e-2)  # 10^4 steps
        cfg = EvolutionConfig(dt=1e-6, renormalize=False, store_every=10000)
        traj = evolve.evolve_stepwise(s, None, cfg, ZERO)
        norm_sq = traj.pop0[-1] + traj.pop1[-1]
        assert abs(norm_sq - 1.0) < 1e-10

    def test_metadata_records_run_parameters(self):
        noise = fig3_noise(seed=9, index=4)
        traj = evolve.evolve_stepwise(single(), noise, EvolutionConfig(dt=1e-6), ZERO)
        assert traj.meta["seed"] == 9
        assert traj.meta["realization_index"] == 4
        assert traj.meta["dt"] == 1e-6
        assert traj.meta["system"] == "single"

    def test_two_qubit_block_invariance(self):
        # |00> and |11> sit at eigenvalue zero of the dense pair Hamiltonian,
        # and the engine keeps them as they are while it evolves the block.
        s = TwoQubitSchedule(j0=100.0, total_time=0.01, convention=ANG)
        initial = np.array([0.3, 0.8, 0.1, 0.5], dtype=complex)
        initial /= np.linalg.norm(initial)
        state = dense.midpoint_final(dense.h_pair, s, None, 1e-5, initial)
        assert abs(state[0] - initial[0]) < 1e-12
        assert abs(state[3] - initial[3]) < 1e-12
        final = evolve.final_state_stepwise(s, None, EvolutionConfig(dt=1e-5), initial)
        np.testing.assert_allclose(final, state, rtol=0.0, atol=1e-12)

    def test_long_t_adiabatic_limit(self):
        s = single(total_time=0.05)
        cfg = EvolutionConfig(dt=1e-6, store_every=500)
        traj = evolve.evolve_stepwise(s, None, cfg, ZERO)
        assert traj.fidelity_e0.min() > 0.998
        # Adiabatic-frame coefficient of the tracked (upper) level stays put.
        assert np.sqrt(traj.fidelity_e0.min()) > 0.999


class TestDenseReference:
    """Sector engine finals against the dense 4x4 midpoint product."""

    def test_fig4b_member(self):
        cfg = load_config("fig4b")
        s = cfg.schedule()
        noise = realize_noise(cfg.noise_spec(), 3)
        initial = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        ref = dense.midpoint_final(dense.h_pair, s, noise, cfg.dt, initial)
        final = evolve.final_state_stepwise(s, noise, EvolutionConfig(dt=cfg.dt), initial)
        np.testing.assert_allclose(final, ref, rtol=0.0, atol=1e-12)

    def test_spectator_both_sectors(self):
        s = SpectatorSchedule(base=single(), j12=215.0, omega_spec=37.0)
        noise = fig3_noise(seed=5, index=2)
        initial = np.array([0.6, 0.3j, -0.5, 0.2 + 0.4j])
        initial /= np.linalg.norm(initial)
        ref = dense.midpoint_final(dense.h_spectator, s, noise, 1e-6, initial)
        cfg = EvolutionConfig(dt=1e-6, store_every=1000)
        final = evolve.final_state_stepwise(s, noise, cfg, initial)
        np.testing.assert_allclose(final, ref, rtol=0.0, atol=1e-12)
        # The recorded driven-qubit metrics are the partial trace of the same state.
        traj = evolve.evolve_stepwise(s, noise, cfg, initial)
        m = ref.reshape(2, 2)
        rho = m @ m.conj().T
        np.testing.assert_allclose([traj.pop0[-1], traj.pop1[-1], traj.im_coherence[-1]],
                                   [rho[0, 0].real, rho[1, 1].real, rho[0, 1].imag],
                                   rtol=0.0, atol=1e-12)


class TestBatchedMembers:
    """An ensemble in one batched engine call keeps every member to itself.

    Each member's final state must match the dense product with its own
    noise path, and each member's noise column must be its own path: a
    swap of the member and sector axes, or a permutation of the noise
    paths, breaks one of the two.
    """

    def check(self, hamiltonian, s, noises, dt, initial):
        cfg = EvolutionConfig(dt=dt)
        finals = evolve.final_state_stepwise(s, noises, cfg, initial)
        assert finals.shape == (len(noises), s.dim)
        for noise, final in zip(noises, finals):
            ref = dense.midpoint_final(hamiltonian, s, noise, dt, initial)
            np.testing.assert_allclose(final, ref, rtol=0.0, atol=1e-12)
        traj = evolve.evolve_stepwise(s, noises, cfg, initial)
        assert traj.times.ndim == 1
        assert traj.noise.shape == traj.pop0.shape == (len(noises), len(traj.times))
        tau = s.total_time / (len(traj.times) - 1)
        ks = np.arange(len(traj.times))
        for i, column in enumerate(traj.noise):
            expected = exact_noise(realize_noise(noises[0].spec, i), 0.0, tau, ks)
            assert np.max(np.abs(column - expected)) / rms(noises[i]) < 1e-12

    def test_pair_members(self):
        cfg = load_config("fig4b", overrides={"T": "0.002", "noise.omega_cut": "300"})
        noises = [realize_noise(cfg.noise_spec(), i) for i in range(3)]
        self.check(dense.h_pair, cfg.schedule(), noises, cfg.dt, PAIR01)

    def test_spectator_members(self):
        s = SpectatorSchedule(base=single(total_time=2e-4), j12=215.0, omega_spec=37.0)
        noises = [fig3_noise(seed=5, index=i) for i in range(2)]
        initial = np.array([0.6, 0.3j, -0.5, 0.2 + 0.4j])
        initial /= np.linalg.norm(initial)
        self.check(dense.h_spectator, s, noises, 1e-6, initial)


class TestEqualSteps:
    """A run whose T/dt is not whole takes n = ceil(T/dt) equal steps of T/n.

    T = 1.05e-4 at dt = 1e-5 is 11 steps of T/11, with the noise sampled
    at their midpoints and recorded at their ends.
    """

    T, DT, N = 1.05e-4, 1e-5, 11

    def test_record_times_end_at_t(self):
        traj = evolve.evolve_stepwise(single(total_time=self.T), None,
                                      EvolutionConfig(dt=self.DT), ZERO)
        np.testing.assert_allclose(traj.times, np.linspace(0.0, self.T, self.N + 1),
                                   rtol=1e-15)
        assert traj.times[-1] == self.T

    def test_pulse_durations(self):
        steps = evolve.decompose_pulse(single(total_time=self.T), fig3_noise(),
                                       EvolutionConfig(dt=self.DT))
        assert len(steps) == self.N
        assert all(step.duration == self.T / self.N for step in steps)

    def test_pair_final_matches_dense(self):
        s = TwoQubitSchedule(j0=4000.0, total_time=self.T, convention=ANG)
        noise = fig3_noise(seed=3, index=1)
        ref = dense.midpoint_final(dense.h_pair, s, noise, self.DT, PAIR01)
        final = evolve.final_state_stepwise(s, noise, EvolutionConfig(dt=self.DT), PAIR01)
        np.testing.assert_allclose(final, ref, rtol=0.0, atol=1e-12)

    def test_spectator_final_matches_dense(self):
        s = SpectatorSchedule(base=single(total_time=self.T), j12=215.0, omega_spec=37.0)
        noise = fig3_noise(seed=5, index=2)
        initial = np.array([0.6, 0.3j, -0.5, 0.2 + 0.4j])
        initial /= np.linalg.norm(initial)
        ref = dense.midpoint_final(dense.h_spectator, s, noise, self.DT, initial)
        final = evolve.final_state_stepwise(s, noise, EvolutionConfig(dt=self.DT), initial)
        np.testing.assert_allclose(final, ref, rtol=0.0, atol=1e-12)

    def test_noise_column_at_step_ends(self):
        noise = fig3_noise(seed=4, index=1)
        cfg = EvolutionConfig(dt=self.DT, store_every=7)
        traj = evolve.evolve_stepwise(single(total_time=self.T), noise, cfg, ZERO)
        ks = np.array([0, 7, self.N])  # t = 0, the 7th step's end, and T
        np.testing.assert_allclose(traj.times, ks * self.T / self.N, rtol=1e-15)
        expected = exact_noise(noise, 0.0, self.T / self.N, ks)
        assert np.max(np.abs(traj.noise - expected)) / rms(noise) < 1e-12


class TestEvolveOracle:
    def test_larmor_closed_form(self):
        # Constant sz, initial |+>: Im(alpha beta*) = -sin(2 J0 t)/2.
        s = _FrozenSchedule(j0=500.0, total_time=2e-3, convention=ANG)
        traj = evolve.evolve_oracle(s, None, EvolutionConfig(dt=1e-6), PLUS)
        expected = -0.5 * np.sin(2.0 * s.j0_rad * traj.times)
        np.testing.assert_allclose(traj.im_coherence, expected, atol=1e-8)

    def test_matches_stepwise_noise_free(self):
        s = single()
        cfg = EvolutionConfig(dt=1e-6)
        a = evolve.final_state_stepwise(s, None, cfg, ZERO)
        b = evolve.final_state_oracle(s, None, cfg, ZERO)
        assert abs(1.0 - abs(np.vdot(a, b)) ** 2) < 1e-6

    def test_matches_stepwise_noisy_held(self):
        s = single()
        noise = fig3_noise()
        cfg = EvolutionConfig(dt=1e-6)
        a = evolve.final_state_stepwise(s, noise, cfg, ZERO)
        b = evolve.final_state_oracle(s, noise, cfg, ZERO)
        assert abs(1.0 - abs(np.vdot(a, b)) ** 2) < 1e-4

    def test_memory_does_not_grow_with_steps(self):
        # Traced peak of a 300-step spectator run: the oracle's was 0.19 times
        # the stepwise engine's once it built each step's node Hamiltonians in
        # that step; tabulating all of them up front made it 12 times.
        s = SpectatorSchedule(base=single(total_time=3e-4))
        cfg = EvolutionConfig(dt=1e-6)
        initial = np.kron(ZERO, ZERO)
        peaks = []
        for engine in (evolve.final_state_stepwise, evolve.final_state_oracle):
            tracemalloc.start()
            try:
                engine(s, None, cfg, initial)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0], peaks


class TestConvergence:
    def test_stepwise_second_order(self):
        s = single()
        ref = evolve.final_state_oracle(s, None, EvolutionConfig(dt=2.5e-7), ZERO)
        errs = []
        for dt in (4e-6, 2e-6, 1e-6):
            final = evolve.final_state_stepwise(s, None, EvolutionConfig(dt=dt), ZERO)
            errs.append(np.linalg.norm(final - ref * np.vdot(ref, final)
                                       / abs(np.vdot(ref, final))))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.8 <= order <= 2.2


class TestPulseDecomposition:
    def test_requires_two_level(self):
        s = TwoQubitSchedule(j0=100.0, total_time=0.01, convention=ANG)
        with pytest.raises(evolve.UnsupportedScheduleError):
            evolve.decompose_pulse(s, None, EvolutionConfig(dt=1e-5))

    def test_pure_x_drive(self):
        class PureX(SingleQubitSchedule):
            def ab(self, t):
                x = np.asarray(t) / self.total_time
                return x, np.zeros_like(x)

        s = PureX(j0=1000.0, total_time=1e-4, convention=ANG)
        steps = evolve.decompose_pulse(s, None, EvolutionConfig(dt=1e-5))
        for k, step in enumerate(steps):
            assert step.z_angle == pytest.approx(0.0, abs=1e-12)
            assert step.xy_phase == pytest.approx(0.0, abs=1e-9)
            mid = (k + 0.5) * 1e-5
            assert step.xy_amplitude == pytest.approx(s.j0_rad * mid / s.total_time,
                                                      rel=1e-9)

    def test_pure_z_drive(self):
        s = _FrozenSchedule(j0=1000.0, total_time=1e-4, convention=ANG)
        steps = evolve.decompose_pulse(s, None, EvolutionConfig(dt=1e-5))
        total_z = sum(step.z_angle for step in steps)
        for step in steps:
            assert step.xy_amplitude == pytest.approx(0.0, abs=1e-9)
        assert total_z == pytest.approx(s.j0_rad * s.total_time, rel=1e-9)

    def test_per_step_faithfulness(self):
        s = single()
        noise = fig3_noise()
        cfg = EvolutionConfig(dt=1e-6)
        steps = evolve.decompose_pulse(s, noise, cfg)
        n, tau = evolve._plan_steps(s.total_time, cfg.dt)
        mids = (np.arange(n) + 0.5) * tau
        c_mid = model.noise_values(noise, 0.5 * tau, tau, n)
        prefixes = evolve.prefix_propagators(steps)
        direct = np.eye(2, dtype=complex)
        for k in (0, 1, 9, 99, 499):
            direct = np.eye(2, dtype=complex)
            for j in range(k + 1):
                direct = smallmat.expm_unitary(
                    model.h_single(s, mids[j], c_mid[j]), tau) @ direct
            diff = prefixes[k] - direct
            inf = 1.0 - abs(np.trace(prefixes[k].conj().T @ direct) / 2.0) ** 2
            assert inf < 1e-10

    def test_whole_run_reconstruction(self):
        s = single()
        noise = fig3_noise()
        cfg = EvolutionConfig(dt=1e-6)
        steps = evolve.decompose_pulse(s, noise, cfg)
        u = evolve.reconstruct_propagator(steps)
        final_direct = evolve.final_state_stepwise(
            s, noise, EvolutionConfig(dt=1e-6, renormalize=False), ZERO)
        final_pulse = u @ ZERO
        assert abs(1.0 - abs(np.vdot(final_pulse, final_direct)) ** 2) < 1e-6

