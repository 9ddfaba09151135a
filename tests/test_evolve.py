"""Evolution engines, batched members, convergence, pulse decomposition."""
import tracemalloc

import numpy as np
import pytest

import dense_reference as dense
import oracle_reference as oref
from nia_sim import evolve, metrics, model, smallmat
from nia_sim.config import load_config
from nia_sim.evolve import EvolutionConfig
from nia_sim.model import (NoiseSpec, SingleQubitSchedule, SpectatorSchedule,
                           TwoQubitSchedule, realize_noise)
from noise_reference import exact_noise
from pulse_reference import prefix_propagators, reconstruct_propagator

ZERO = np.array([1.0, 0.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
PAIR01 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)


def single(j0=4000.0, total_time=5e-4):
    return SingleQubitSchedule(j0=j0, total_time=total_time)


def rms(noise):
    spec = noise.spec
    return spec.amplitude * np.sqrt(spec.n_components / 2.0)


def fig3_noise(seed=1, index=0):
    spec = NoiseSpec(amplitude=4000.0, omega0=1.0, n_components=5000, seed=seed)
    return realize_noise(spec, index)


class _FrozenSchedule(SingleQubitSchedule):
    """Sweep coefficients pinned at t = 0 (constant J0 sz)."""

    def ab(self, t):
        return np.zeros_like(np.asarray(t, dtype=float)), \
            np.ones_like(np.asarray(t, dtype=float))


class TestEvolveStepwise:
    def test_constant_hamiltonian_keeps_populations(self):
        s = _FrozenSchedule(j0=4000.0, total_time=5e-4)
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
        np.testing.assert_allclose(traj.gap, 2.0 * s.j0 * np.hypot(a, b), rtol=1e-12)

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

    @pytest.mark.parametrize("initial, message", [
        (np.array([1.0, 0.0, 0.0]), "must have dimension 2"),
        (np.array([1.0, 1.0]), "must be normalized")])
    @pytest.mark.parametrize("entry", ["trajectory", "summary", "stepwise", "oracle"])
    def test_every_entry_point_checks_the_initial_state(self, entry, initial, message):
        # The loop is a generator: its checks run as each engine takes its runs.
        run = {"trajectory": evolve.evolve_stepwise,
               "summary": lambda *args: evolve.evolve_stepwise(*args, reduce=metrics.aggregate),
               "stepwise": evolve.final_state_stepwise,
               "oracle": evolve.final_state_oracle}[entry]
        with pytest.raises(ValueError, match=message):
            run(single(), [None], EvolutionConfig(dt=1e-6), initial)

    def test_norm_preserved_without_renormalization(self):
        # 10^4 of the stepwise engine's own step matrices composed, none
        # renormalized; the last prefix's first column is the final state.
        s = single(total_time=1e-2)
        n, tau = evolve._plan_steps(s.total_time, 1e-6)
        advance = evolve._midpoint_step(s, (np.arange(n) + 0.5) * tau, tau, np.zeros((1, n)))
        alpha, beta = advance(0, n)
        smallmat.prefix_products(alpha, beta)
        final = np.array([alpha[-1], beta[-1]])
        assert n == 10000
        assert abs(np.linalg.norm(final) ** 2 - 1.0) < 1e-10

    def test_two_qubit_block_invariance(self):
        # |00> and |11> sit at eigenvalue zero of the dense pair Hamiltonian,
        # and the engine keeps them as they are while it evolves the block.
        s = TwoQubitSchedule(j0=100.0, total_time=0.01)
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

    def check_spectator(self, omega):
        # The spectator's own offset omega I(x)sz commutes with the whole
        # Hamiltonian: with it the dense state is the engine's, which runs in
        # the spectator's rotating frame, times exp(-+i omega T) on the
        # spectator's |0> and |1>.
        s = SpectatorSchedule(4000.0, 5e-4, j12=215.0)
        noise = fig3_noise(seed=5, index=2)
        initial = np.array([0.6, 0.3j, -0.5, 0.2 + 0.4j])
        initial /= np.linalg.norm(initial)
        ref = dense.midpoint_final(lambda *args: dense.h_spectator(*args, omega=omega),
                                   s, noise, 1e-6, initial)
        cfg = EvolutionConfig(dt=1e-6, store_every=1000)
        final = evolve.final_state_stepwise(s, noise, cfg, initial)
        turn = np.exp(-1.0j * omega * s.total_time * np.array([1.0, -1.0, 1.0, -1.0]))
        np.testing.assert_allclose(ref, final * turn, rtol=0.0, atol=1e-12)
        # The recorded driven-qubit metrics are the partial trace of the same state.
        traj = evolve.evolve_stepwise(s, noise, cfg, initial)
        m = ref.reshape(2, 2)
        rho = m @ m.conj().T
        np.testing.assert_allclose([traj.pop0[-1], traj.pop1[-1], traj.im_coherence[-1]],
                                   [rho[0, 0].real, rho[1, 1].real, rho[0, 1].imag],
                                   rtol=0.0, atol=1e-12)

    def test_spectator_both_sectors(self):
        self.check_spectator(0.0)

    @pytest.mark.parametrize("omega", [37.0, 1e4])
    def test_spectator_offset_only_turns_its_levels(self, omega):
        self.check_spectator(omega)

    def test_every_sector_step_is_su2(self):
        # Each step matrix of the stepwise engine is [[alpha, -beta*], [beta, alpha*]]
        # on every member and sector, held as its pair, with unit determinant.
        s = SpectatorSchedule(4000.0, 5e-4, j12=215.0)
        n, tau = evolve._plan_steps(s.total_time, 1e-6)
        mids = (np.arange(n) + 0.5) * tau
        c_mid = np.array([model.noise_values(fig3_noise(seed=5, index=i), 0.5 * tau, tau, n)
                          for i in range(3)])
        advance = evolve._midpoint_step(s, mids, tau, c_mid)
        for start in range(0, n, 128):
            stop = min(n, start + 128)
            alpha, beta = advance(start, stop)
            assert alpha.shape == beta.shape == (stop - start, 3, 2)
            assert np.abs(np.abs(alpha) ** 2 + np.abs(beta) ** 2 - 1.0).max() <= 1e-14


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
        s = SpectatorSchedule(4000.0, 2e-4, j12=215.0)
        noises = [fig3_noise(seed=5, index=i) for i in range(2)]
        initial = np.array([0.6, 0.3j, -0.5, 0.2 + 0.4j])
        initial /= np.linalg.norm(initial)
        self.check(dense.h_spectator, s, noises, 1e-6, initial)

    def test_generator_matches_list(self):
        # Members realized one at a time, from an iterable consumed once, run
        # exactly as the same realizations held in a list.
        s, cfg = single(total_time=2e-4), EvolutionConfig(dt=1e-6, store_every=5)
        listed = evolve.evolve_stepwise(s, [fig3_noise(seed=3, index=i) for i in range(4)],
                                        cfg, ZERO)
        generated = evolve.evolve_stepwise(s, (fig3_noise(seed=3, index=i) for i in range(4)),
                                           cfg, ZERO)
        np.testing.assert_array_equal(generated.times, listed.times)
        for name in metrics.METRIC_NAMES:
            np.testing.assert_array_equal(generated.metric(name), listed.metric(name))

    def test_empty_ensemble_refused(self):
        with pytest.raises(ValueError, match="at least one member"):
            evolve.evolve_stepwise(single(), iter([]), EvolutionConfig(dt=1e-6), ZERO)


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
        pulse = evolve.decompose_pulse(single(total_time=self.T), fig3_noise(),
                                       EvolutionConfig(dt=self.DT))
        assert len(pulse["duration"]) == self.N
        assert all(duration == self.T / self.N for duration in pulse["duration"])

    def test_pair_final_matches_dense(self):
        s = TwoQubitSchedule(j0=4000.0, total_time=self.T)
        noise = fig3_noise(seed=3, index=1)
        ref = dense.midpoint_final(dense.h_pair, s, noise, self.DT, PAIR01)
        final = evolve.final_state_stepwise(s, noise, EvolutionConfig(dt=self.DT), PAIR01)
        np.testing.assert_allclose(final, ref, rtol=0.0, atol=1e-12)

    def test_spectator_final_matches_dense(self):
        s = SpectatorSchedule(4000.0, self.T, j12=215.0)
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


class TestBlocks:
    """`_propagate` advances a run in blocks of steps; their size changes no result.

    A block of 17 matrices holds 5 steps of 3 pair members and 2 of 3
    spectator members: neither divides the 241 steps or aligns with
    store_every = 7.  The oracle counts 40 matrices per step, so it takes
    one step per block of 17, and 8 pair or 4 spectator steps per default
    block.  The default block splits the stepwise spectator run too.  The
    one-member pair run of 2300 steps fills two default blocks of 1024
    steps, each composed by a doubling scan of depth 10, before a partial
    one; it runs the stepwise engine only, the oracle taking its steps one
    block each at the smaller sizes.
    """

    T, DT, STORE_EVERY = 2.41e-3, 1e-5, 7
    ENGINES = {"stepwise": (evolve._midpoint_step, evolve.final_state_stepwise),
               "oracle": (evolve._rk4_step, evolve.final_state_oracle)}

    def system(self, name):
        """The run's dense Hamiltonian, schedule, initial state and member count."""
        if name == "pair":
            return dense.h_pair, TwoQubitSchedule(j0=4000.0, total_time=self.T), PAIR01, 3
        if name == "long pair":
            return dense.h_pair, TwoQubitSchedule(j0=4000.0, total_time=2300 * self.DT), PAIR01, 1
        initial = np.array([0.6, 0.3j, -0.5, 0.2 + 0.4j])
        initial /= np.linalg.norm(initial)
        s = SpectatorSchedule(4000.0, self.T, j12=215.0)
        return dense.h_spectator, s, initial, 3

    @pytest.mark.parametrize("name, engine", [
        ("pair", "oracle"), ("pair", "stepwise"), ("spectator", "oracle"),
        ("spectator", "stepwise"), ("long pair", "stepwise")])
    def test_block_size_changes_nothing(self, monkeypatch, name, engine):
        hamiltonian, s, initial, members = self.system(name)
        make_step, final_state = self.ENGINES[engine]
        noises = [fig3_noise(seed=6, index=i) for i in range(members)]
        cfg = EvolutionConfig(dt=self.DT, store_every=self.STORE_EVERY)
        runs = []
        for size in (evolve._BLOCK_MATRICES, 1, 17):
            monkeypatch.setattr(evolve, "_BLOCK_MATRICES", size)
            runs.append((oref.gather(evolve._propagate(s, noises, cfg, initial, make_step,
                                                       self.STORE_EVERY)),
                         final_state(s, noises, cfg, initial)))
        (times, c, states), finals = runs[0]
        n, _ = evolve._plan_steps(s.total_time, self.DT)
        assert len(times) == -(-n // self.STORE_EVERY) + 1
        for (other_times, other_c, other_states), other_finals in runs[1:]:
            np.testing.assert_array_equal(other_times, times)
            np.testing.assert_array_equal(other_c, c)
            np.testing.assert_allclose(other_states, states, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(other_finals, finals, rtol=0.0, atol=1e-12)
        if engine == "stepwise":
            for i, noise in enumerate(noises):
                ref = dense.midpoint_final(hamiltonian, s, noise, self.DT, initial)
                for _, run_finals in runs:
                    np.testing.assert_allclose(run_finals[i], ref, rtol=0.0, atol=1e-12)

    def test_non_finite_state_names_its_step(self, monkeypatch):
        # Three members in blocks of 33 steps; member 1 turns NaN at step
        # 257, the 27th step of the eighth block.
        bad_step = 257

        def make_step(schedule, mids, tau, c_mid):
            def advance(start, stop):
                alpha, beta = (np.full((stop - start, 3, 1), x, dtype=complex)
                               for x in (1.0, 0.0))
                alpha[np.arange(start, stop) >= bad_step, 1, 0] = np.nan
                return alpha, beta
            return advance

        monkeypatch.setattr(evolve, "_BLOCK_MATRICES", 100)
        with pytest.raises(evolve.NumericEvolutionError, match=r"after step 257$"):
            list(evolve._propagate(single(), [None] * 3, EvolutionConfig(dt=1e-6), ZERO,
                                   make_step, 1))

    @pytest.mark.parametrize("engine", ["stepwise", "oracle"])
    def test_non_finite_step_spoils_only_later_prefixes(self, monkeypatch, engine):
        # The engine itself, with member 1's noise NaN at step 257: the
        # doubling scan carries the NaN into every later prefix of the block
        # (the oracle's from the step's first substep on), and no earlier
        # one, so the check names step 257.
        engine_step = self.ENGINES[engine][0]

        def make_step(schedule, mids, tau, c_mid):
            c_mid = c_mid.copy()
            c_mid[1, 257] = np.nan
            return engine_step(schedule, mids, tau, c_mid)

        for size in (100, evolve._BLOCK_MATRICES):
            monkeypatch.setattr(evolve, "_BLOCK_MATRICES", size)
            with pytest.raises(evolve.NumericEvolutionError, match=r"after step 257$"):
                list(evolve._propagate(single(), [None] * 3, EvolutionConfig(dt=1e-6), ZERO,
                                       make_step, 1))

    def test_memory_does_not_grow_with_a_step_table(self):
        # Traced peak growth from 500 to 2000 steps of 100 noisy members.  The
        # (M, 2n + 1) noise takes 16 B per member-step; a table of every
        # step's Hamiltonians alone would add 64 B.
        noises = [fig3_noise(seed=2, index=i) for i in range(100)]
        cfg = EvolutionConfig(dt=1e-6)
        peaks = []
        for n in (500, 2000):
            tracemalloc.start()
            try:
                evolve.final_state_stepwise(single(total_time=n * 1e-6), noises, cfg, ZERO)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_member_step = (peaks[1] - peaks[0]) / (len(noises) * 1500)
        assert per_member_step < 32.0, per_member_step

    def test_noise_free_run_holds_little_per_step(self):
        # Traced peak growth of a one-member noise-free run from 2 * 10^4 to
        # 4 * 10^4 steps: 80.0 B per step, set inside `_samples` by the grid
        # (16 B) and `fromiter`'s first 4 rows (64 B).  A zero row kept
        # beside the noise rows (16 B) crosses the bound.
        peaks = []
        for n in (20000, 40000):
            tracemalloc.start()
            try:
                evolve.final_state_stepwise(single(total_time=n * 1e-6), None,
                                            EvolutionConfig(dt=1e-6), ZERO)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_step = (peaks[1] - peaks[0]) / 20000
        assert per_step < 88.0, per_step

    @pytest.mark.parametrize("sectors,bound", [(1, 65.0), (2, 63.8)])
    def test_bytes_per_member_record(self, sectors, bound):
        # Traced peak growth from 2 to 501 records of 100 noise-free members
        # over 500 steps: 54.2 B per member-record on one sector and 53.2 B
        # on two (the six columns, and one column's runs while they are
        # joined), bounded with a 20% margin.  Joining every run's states
        # before making the columns made it 84.9 and 117.0 B; building the
        # (M, records, 2, 2) density stack too, 133.0 and 179.7 B.
        n, members = 500, 100
        if sectors == 1:
            s, initial = single(total_time=n * 1e-6), ZERO
        else:
            s, initial = SpectatorSchedule(4000.0, n * 1e-6), np.kron(ZERO, ZERO)
        peaks = []
        for every in (n, 1):
            tracemalloc.start()
            try:
                evolve.evolve_stepwise(s, [None] * members,
                                       EvolutionConfig(dt=1e-6, store_every=every), initial)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_member_record = (peaks[1] - peaks[0]) / (members * (n - 1))
        assert per_member_record < bound, per_member_record


class TestStreamedSummary:
    """An ensemble summary reduced block by block, as `cli` runs one.

    `evolve_stepwise(..., reduce=metrics.aggregate)` reduces the records
    over the members as the loop yields them, and must give the bits of
    `metrics.aggregate` on the whole trajectory at the same block size; a
    trajectory, made run by run alike, the bits of the joined runs'.
    241 steps recorded every 7th (and the last), 36 records: at a block of
    one matrix, and at 17 for 7 or 20 members, each block records one step
    at most, so records wait to be yielded in runs of 16 or more, the
    last run taking what is left; at the default block the run is one.
    numpy sums 20 members of a one-record column pairwise, and of a longer
    one in turn or pairwise as the column is laid out: at 20 members a run
    of one record would change the bits, at 7 or fewer it would not.
    """

    T, DT, STORE_EVERY = 2.41e-4, 1e-6, 7

    def system(self, name):
        if name == "single":
            return single(total_time=self.T), ZERO
        if name == "pair":
            return TwoQubitSchedule(j0=4000.0, total_time=self.T), PAIR01
        initial = np.array([0.6, 0.3j, -0.5, 0.2 + 0.4j])
        return (SpectatorSchedule(4000.0, self.T, j12=215.0),
                initial / np.linalg.norm(initial))

    @pytest.mark.parametrize("size", [1, 17, evolve._BLOCK_MATRICES])
    @pytest.mark.parametrize("members", [1, 2, 7, 20])
    @pytest.mark.parametrize("name", ["single", "pair", "spectator"])
    def test_matches_the_gathered_aggregate(self, monkeypatch, name, members, size):
        monkeypatch.setattr(evolve, "_BLOCK_MATRICES", size)
        s, initial = self.system(name)
        noises = [fig3_noise(seed=4, index=i) for i in range(members)]
        cfg = EvolutionConfig(dt=self.DT, store_every=self.STORE_EVERY)
        streamed = evolve.evolve_stepwise(s, noises, cfg, initial, reduce=metrics.aggregate)
        gathered = metrics.aggregate(evolve.evolve_stepwise(s, noises, cfg, initial))
        assert streamed.m == gathered.m == members
        assert len(streamed.times) == -(-241 // self.STORE_EVERY) + 1
        np.testing.assert_array_equal(streamed.times, gathered.times)
        for metric in metrics.METRIC_NAMES:
            np.testing.assert_array_equal(streamed.mean[metric], gathered.mean[metric])
            np.testing.assert_array_equal(streamed.se[metric], gathered.se[metric])

    @pytest.mark.parametrize("size", [1, 17, evolve._BLOCK_MATRICES])
    @pytest.mark.parametrize("members", [1, 20])
    @pytest.mark.parametrize("name", ["single", "pair", "spectator"])
    def test_trajectory_matches_the_joined_runs(self, monkeypatch, name, members, size):
        # A trajectory is made run by run too, and must give the bits of
        # `_trajectory` on every run's records joined.  One realization, not
        # a list of one, gives the same columns without the member axis.
        monkeypatch.setattr(evolve, "_BLOCK_MATRICES", size)
        s, initial = self.system(name)
        noises = [fig3_noise(seed=4, index=i) for i in range(members)]
        cfg = EvolutionConfig(dt=self.DT, store_every=self.STORE_EVERY)
        streamed = evolve.evolve_stepwise(s, noises, cfg, initial)
        times, c, states = oref.gather(evolve._propagate(s, noises, cfg, initial,
                                                         evolve._midpoint_step,
                                                         self.STORE_EVERY))
        joined = evolve._trajectory(s, times, c, states, True, evolve._tracked_level(states))
        results = [(streamed, joined)]
        if members == 1:
            results.append((evolve.evolve_stepwise(s, noises[0], cfg, initial),
                            evolve._trajectory(s, times, c, states, False,
                                               evolve._tracked_level(states))))
        for result, expected in results:
            assert result.times.tobytes() == times.tobytes()
            for metric in metrics.METRIC_NAMES:
                assert result.metric(metric).shape == expected.metric(metric).shape
                assert result.metric(metric).tobytes() == expected.metric(metric).tobytes(), metric

    def test_records_are_handed_on_in_order_in_runs_of_two_or_more(self, monkeypatch):
        # One step per block: the records at steps 6, 13, ..., 237 and 240
        # arrive one per block, and the last alone in its block.
        monkeypatch.setattr(evolve, "_BLOCK_MATRICES", 1)
        s, initial = self.system("spectator")
        noises = [fig3_noise(seed=4, index=i) for i in range(2)]
        cfg = EvolutionConfig(dt=self.DT, store_every=self.STORE_EVERY)
        runs = list(evolve._propagate(s, noises, cfg, initial, evolve._midpoint_step,
                                      self.STORE_EVERY))
        for run_times, run_c, run_states in runs:
            assert run_states.flags.c_contiguous
            assert run_c.shape == run_states.shape[:2] == (2, len(run_times))
            assert run_states.shape[2:] == (len(s.sectors), 2)
        assert min(len(times) for times, _, _ in runs) >= 2
        times, c, states = oref.gather(evolve._propagate(s, noises, cfg, initial,
                                                         evolve._midpoint_step,
                                                         self.STORE_EVERY))
        np.testing.assert_array_equal(np.concatenate([run[0] for run in runs]), times)
        np.testing.assert_array_equal(np.concatenate([run[1] for run in runs], axis=1), c)
        np.testing.assert_array_equal(np.concatenate([run[2] for run in runs], axis=1), states)

    @pytest.mark.parametrize("sectors", [1, 2])
    def test_peak_does_not_grow_per_member_record(self, sectors):
        # What recording every step adds to the traced peak over recording
        # the last alone, for 100 noise-free members, from 500 to 2000 steps:
        # measured -3.2 B per member-record on one sector and -2.8 B on two,
        # as a summary holds one run of records at a time.  A trajectory's
        # columns (`test_bytes_per_member_record`) grow it by about 54 B.
        members = 100
        added = []
        for n in (500, 2000):
            if sectors == 1:
                s, initial = single(total_time=n * 1e-6), ZERO
            else:
                s, initial = SpectatorSchedule(4000.0, n * 1e-6), np.kron(ZERO, ZERO)
            peaks = []
            for every in (n, 1):
                tracemalloc.start()
                try:
                    evolve.evolve_stepwise(s, [None] * members,
                                           EvolutionConfig(dt=1e-6, store_every=every), initial,
                                           reduce=metrics.aggregate)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            added.append(peaks[1] - peaks[0])
        per_member_record = (added[1] - added[0]) / (members * 1500)
        assert per_member_record < 2.0, per_member_record


class TestEvolveOracle:
    def test_larmor_closed_form(self):
        # Constant sz, initial |+>: Im(alpha beta*) = -sin(2 J0 t)/2.
        s = _FrozenSchedule(j0=500.0, total_time=2e-3)
        traj = oref.evolve_oracle(s, None, EvolutionConfig(dt=1e-6), PLUS)
        expected = -0.5 * np.sin(2.0 * s.j0 * traj.times)
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
        # Traced peak of a 300-step spectator run: the oracle's is 0.96 times
        # the stepwise engine's (116.2 against 121.0 KB, in a fresh process)
        # with its blocks counted at five matrices per substep, and 3.4 times
        # at one; tabulating every step's node Hamiltonians up front once made
        # it 12 times.
        s = SpectatorSchedule(4000.0, 3e-4)
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


class TestOracleReference:
    """The oracle's composed transfer matrices against its substep loop.

    `oracle_reference.sequential_rk4_step` takes the same Runge-Kutta
    stages one substep at a time on the states; the oracle composes them as
    matrices, so the two agree to rounding.  Noisy runs take two members.
    """

    @pytest.mark.parametrize("case", ["fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b",
                                      "spectator"])
    def test_matches_the_sequential_loop(self, case):
        if case == "spectator":
            s = SpectatorSchedule(4000.0, 5e-4, j12=215.0)
            noises = [fig3_noise(seed=5, index=i) for i in range(2)]
            initial = np.array([0.6, 0.3j, -0.5, 0.2 + 0.4j])
            initial /= np.linalg.norm(initial)
            cfg = EvolutionConfig(dt=1e-6, store_every=7)
        else:
            run = load_config(case)
            s = run.schedule()
            noises = ([realize_noise(run.noise_spec(), i) for i in range(2)] if run.has_noise
                      else [None])
            initial = run.initial_vector()
            cfg = EvolutionConfig(dt=run.dt, store_every=run.store_every)
        times, c, states = oref.gather(evolve._propagate(s, noises, cfg, initial,
                                                         oref.sequential_rk4_step,
                                                         cfg.store_every))
        loop = evolve._trajectory(s, times, c, states, True, evolve._tracked_level(states))
        traj = oref.evolve_oracle(s, noises, cfg, initial)
        np.testing.assert_array_equal(traj.times, loop.times)
        for name in metrics.METRIC_NAMES:
            np.testing.assert_allclose(traj.metric(name), loop.metric(name), rtol=0.0,
                                       atol=1e-12, err_msg=name)
        final = evolve.final_state_oracle(s, noises, cfg, initial)
        indices = np.array([sec.indices for sec in s.sectors])
        np.testing.assert_allclose(final[:, indices], states[:, -1], rtol=0.0, atol=1e-12)


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
    @pytest.mark.parametrize("cls", [TwoQubitSchedule, SpectatorSchedule])
    def test_requires_two_level(self, cls):
        # The spectator subclasses the single sweep, so the refusal is by dimension.
        s = cls(j0=100.0, total_time=0.01)
        with pytest.raises(evolve.UnsupportedScheduleError):
            evolve.decompose_pulse(s, None, EvolutionConfig(dt=1e-5))

    @pytest.mark.parametrize("noisy", [False, True])
    def test_rows_are_the_engine_steps(self, noisy):
        # Each row, rebuilt as exp(-i delta sz) exp(-i gamma (cos phi sx + sin phi sy))
        # with phi taken back out of the accumulated frame, is that step's pair
        # from `_midpoint_step` on the loop's own grid and noise.  Recovering
        # phi adds 2 theta, which costs an ulp of it: the bound is
        # eps (1 + 2 max |theta|), of which the rows reach 0.17 noise-free
        # (1.1e-16) and 0.07 noisy (7.4e-16); fig3a-c and 40 fig3d members
        # reach at most 0.23.
        s, noise, cfg = single(), fig3_noise() if noisy else None, EvolutionConfig(dt=1e-6)
        pulse = evolve.decompose_pulse(s, noise, cfg)
        n, tau, grid, c = evolve._samples(s, [noise], cfg.dt)
        alpha, beta = evolve._midpoint_step(s, grid[1::2], tau, c[:, 1::2])(0, n)
        delta = pulse["z_angle"]
        theta = np.concatenate([[0.0], np.cumsum(delta)[:-1]])
        phi = pulse["xy_phase"] + 2.0 * theta
        gamma = pulse["xy_amplitude"] * pulse["duration"]
        # The first column of the product: the z rotation of exp(-i gamma n.s)|0>.
        rebuilt = np.stack([np.exp(-1.0j * delta) * np.cos(gamma),
                            -1.0j * np.exp(1.0j * (delta + phi)) * np.sin(gamma)])
        err = np.abs(rebuilt - np.stack([alpha[:, 0, 0], beta[:, 0, 0]])).max()
        assert err <= np.finfo(float).eps * (1.0 + 2.0 * np.abs(theta).max())

    def test_names_the_first_non_finite_step(self):
        class Broken(SingleQubitSchedule):
            def ab(self, t):
                a, b = super().ab(t)
                # From the midpoint of step 257, (257 + 1/2) us, on.
                return np.where(np.asarray(t) > 257e-6, np.nan, a), b

        s = Broken(j0=4000.0, total_time=5e-4)
        with pytest.raises(evolve.NumericEvolutionError, match=r"step 257$"):
            evolve.decompose_pulse(s, None, EvolutionConfig(dt=1e-6))

    def test_pure_x_drive(self):
        class PureX(SingleQubitSchedule):
            def ab(self, t):
                x = np.asarray(t) / self.total_time
                return x, np.zeros_like(x)

        s = PureX(j0=1000.0, total_time=1e-4)
        pulse = evolve.decompose_pulse(s, None, EvolutionConfig(dt=1e-5))
        for k in range(len(pulse["duration"])):
            assert pulse["z_angle"][k] == pytest.approx(0.0, abs=1e-12)
            assert pulse["xy_phase"][k] == pytest.approx(0.0, abs=1e-9)
            mid = (k + 0.5) * 1e-5
            assert pulse["xy_amplitude"][k] == pytest.approx(s.j0 * mid / s.total_time,
                                                             rel=1e-9)

    def test_pure_z_drive(self):
        s = _FrozenSchedule(j0=1000.0, total_time=1e-4)
        pulse = evolve.decompose_pulse(s, None, EvolutionConfig(dt=1e-5))
        total_z = sum(pulse["z_angle"])
        for amplitude in pulse["xy_amplitude"]:
            assert amplitude == pytest.approx(0.0, abs=1e-9)
        assert total_z == pytest.approx(s.j0 * s.total_time, rel=1e-9)

    def test_per_step_faithfulness(self):
        s = single()
        noise = fig3_noise()
        cfg = EvolutionConfig(dt=1e-6)
        pulse = evolve.decompose_pulse(s, noise, cfg)
        n, tau = evolve._plan_steps(s.total_time, cfg.dt)
        mids = (np.arange(n) + 0.5) * tau
        c_mid = model.noise_values(noise, 0.5 * tau, tau, n)
        prefixes = prefix_propagators(pulse)
        direct = np.eye(2, dtype=complex)
        for k in (0, 1, 9, 99, 499):
            direct = np.eye(2, dtype=complex)
            for j in range(k + 1):
                direct = dense.expm_hermitian(
                    oref.h_single(s, mids[j], c_mid[j]), tau) @ direct
            diff = prefixes[k] - direct
            inf = 1.0 - abs(np.trace(prefixes[k].conj().T @ direct) / 2.0) ** 2
            assert inf < 1e-10

    def test_whole_run_reconstruction(self):
        s = single()
        noise = fig3_noise()
        cfg = EvolutionConfig(dt=1e-6)
        u = reconstruct_propagator(evolve.decompose_pulse(s, noise, cfg))
        final_direct = evolve.final_state_stepwise(s, noise, cfg, ZERO)
        final_pulse = u @ ZERO
        assert abs(1.0 - abs(np.vdot(final_pulse, final_direct)) ** 2) < 1e-6

