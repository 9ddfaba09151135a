"""Memory kernel: couplings, modulus, phase, Volterra solve, defect."""
import numpy as np
import pytest
from scipy import integrate

import kernel_reference as kref
from dense_reference import SX, SZ
from nia_sim import config, kernel, smallmat
from nia_sim.config import load_config
from nia_sim.evolve import EvolutionConfig
from nia_sim.model import (NoiseNormalization, NoiseSpec, SingleQubitSchedule,
                           SpectatorSchedule, TwoQubitSchedule, realize_noise)
from oracle_reference import evolve_oracle

ZERO = np.array([1.0, 0.0], dtype=complex)


def single(j0=4000.0, total_time=5e-4):
    return SingleQubitSchedule(j0=j0, total_time=total_time)


def pair(j0=100.0, total_time=0.01):
    return TwoQubitSchedule(j0=j0, total_time=total_time)


def fd_coupling(schedule, t, delta=None):
    """<E0(t)|dE1/dt> by central differences of gauge-fixed eigenvectors.

    The tracked level E0 is the one connected to the initial state, the
    upper eigenvalue throughout these sweeps (ascending index 1).
    """
    if delta is None:
        delta = 1e-7 * schedule.total_time
    j0 = schedule.j0

    def direction(u):
        a, b = schedule.ab(u)
        return float(a) * SX + float(b) * SZ

    lo = max(t - delta, 0.0)
    hi = min(t + delta, schedule.total_time)
    es_lo = smallmat.eigh(direction(lo))
    es_hi = smallmat.eigh(direction(hi))
    es_mid = smallmat.eigh(direction(0.5 * (lo + hi)))
    de1 = (es_hi.vectors[:, 0] - es_lo.vectors[:, 0]) / (hi - lo)
    return complex(np.vdot(es_mid.vectors[:, 1], de1))


class TestCouplingElements:
    def test_endpoint_value(self):
        s = single()
        ce = kernel.coupling_elements(s, 0.0)
        assert ce.c01 == pytest.approx(-1.0 / (2.0 * s.total_time), rel=1e-12)
        assert ce.gap == pytest.approx(-2.0 * s.j0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_finite_difference_oracle(self, seed):
        rng = np.random.default_rng(seed)
        s = single()
        for t in rng.uniform(0.0, s.total_time, 25):
            ce = kernel.coupling_elements(s, float(t))
            fd = fd_coupling(s, float(t)).real
            assert ce.c01 == pytest.approx(fd, rel=1e-5)

    def test_finite_difference_oracle_pair_block(self):
        s = pair()
        rng = np.random.default_rng(11)
        for t in rng.uniform(0.0, s.total_time, 25):
            ce = kernel.coupling_elements(s, float(t))
            fd = fd_coupling(s, float(t)).real
            assert ce.c01 == pytest.approx(fd, rel=1e-5)

    def test_eta00_vanishes_in_real_gauge(self):
        # The memory equation drops -<E0|dE0/dt> psi0: in the real gauge the
        # tracked level's own coupling is zero.  Central differences of the
        # gauge-fixed eigenvector on fig3d's kernel grid leave only rounding.
        cfg = load_config("fig3d")
        s = cfg.schedule()
        total_time = s.total_time
        delta = 1e-7 * total_time

        def tracked(u):
            a, b = s.ab(u)
            return smallmat.eigh(float(a) * SX + float(b) * SZ).vectors[:, 1]

        worst = 0.0
        for t in np.linspace(0.0, total_time, cfg.kernel_points):
            lo, hi = max(t - delta, 0.0), min(t + delta, total_time)
            v_lo, v_hi = tracked(lo), tracked(hi)
            mid = (v_lo + v_hi) / np.linalg.norm(v_lo + v_hi)
            worst = max(worst, abs(np.vdot(mid, v_hi - v_lo)) / (hi - lo))
        assert worst * total_time < 1e-8

    def test_inverse_gap_form(self):
        # c01 = J0 / (T k E) with E = -2 J0 k for the single-qubit sweep.
        s = single()
        for t in np.linspace(0.0, s.total_time, 13):
            a, b = s.ab(float(t))
            k = np.hypot(float(a), float(b))
            ce = kernel.coupling_elements(s, float(t))
            assert ce.c01 == pytest.approx(
                s.j0 / (s.total_time * k * ce.gap), rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kernel.coupling_elements(single(), -1e-9)


class TestKernelValue:
    def test_midpoint_modulus(self):
        s = single()
        t = 0.5 * s.total_time
        g = kref.kernel_value(s, None, t, t)
        assert abs(g) == pytest.approx(1.0 / s.total_time ** 2, rel=1e-10)

    def test_diagonal_real_positive(self):
        for s in (single(), pair()):
            for t in np.linspace(0.0, s.total_time, 9):
                g = kref.kernel_value(s, None, float(t), float(t))
                assert g.imag == pytest.approx(0.0, abs=1e-12 * abs(g))
                a, b = s.ab(float(t))
                k4 = (float(a) ** 2 + float(b) ** 2) ** 2
                assert g.real == pytest.approx(s.b0 ** 2 / (4.0 * s.total_time ** 2 * k4),
                                               rel=1e-10)

    def test_modulus_factorization_with_noise(self):
        # Noise alters only the phase of g, never the modulus.
        s = single()
        spec = NoiseSpec(amplitude=4000.0, omega0=1.0, n_components=5000, seed=2)
        noise = realize_noise(spec, 0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            t = float(rng.uniform(0.0, s.total_time))
            sv = float(rng.uniform(0.0, t))
            g = kref.kernel_value(s, noise, t, sv)

            def ksq(u):
                a, b = s.ab(u)
                return float(a) ** 2 + float(b) ** 2

            expected = 1.0 / (4.0 * s.total_time ** 2 * ksq(t) * ksq(sv))
            assert abs(g) == pytest.approx(expected, rel=1e-10)

    def test_conjugate_symmetry(self):
        s = single()
        t, sv = 4e-4, 1e-4
        g = kref.kernel_value(s, None, t, sv)
        phase_rev = kref.gap_integral(s, None, t, sv)
        g_rev = (kernel.coupling_elements(s, sv).c01
                 * kernel.coupling_elements(s, t).c01 * np.exp(1.0j * phase_rev))
        assert g_rev == pytest.approx(np.conj(g), rel=1e-10)

    def test_noisy_phase_reverses_with_the_interval(self):
        s = single()
        spec = NoiseSpec(amplitude=400.0, omega0=10.0, n_components=200, seed=7)
        noise = realize_noise(spec, 0)
        forward = kref.gap_integral(s, noise, 1.0e-4, 4.0e-4)
        assert kref.gap_integral(s, noise, 4.0e-4, 1.0e-4) == -forward

    def test_ordering_enforced(self):
        s = single()
        with pytest.raises(ValueError):
            kref.kernel_value(s, None, 1e-4, 2e-4)

    def test_phase_against_fine_quadrature(self):
        s = single()
        t, sv = 4.5e-4, 0.7e-4
        closed = kref.gap_integral(s, None, sv, t)
        grid = np.linspace(sv, t, 200001)
        a, b = s.ab(grid)
        e = -2.0 * s.j0 * np.hypot(a, b)
        ref = np.trapezoid(e, grid)
        assert closed == pytest.approx(ref, rel=1e-8)

    def test_noisy_phase_against_fine_quadrature(self):
        s = single()
        spec = NoiseSpec(amplitude=400.0, omega0=10.0, n_components=200, seed=7)
        noise = realize_noise(spec, 0)
        t, sv = 4.0e-4, 1.0e-4
        got = kref.gap_integral(s, noise, sv, t)
        grid = np.linspace(sv, t, 200001)
        a, b = s.ab(grid)
        from nia_sim.model import noise_values
        c = noise_values(noise, sv, (t - sv) / 200000, 200001)
        e = -2.0 * (s.j0 + c) * np.hypot(a, b)
        ref = np.trapezoid(e, grid)
        assert got == pytest.approx(ref, rel=1e-6)


class TestSolveMemoryEquation:
    def test_resolution_floor(self):
        with pytest.raises(kernel.ResolutionError):
            kernel.solve_memory_equation(single(), None, 300)

    @pytest.mark.parametrize("margin, refused", [(1.0 - 1e-9, False), (1.0 + 1e-9, True)])
    def test_validate_and_solver_share_the_cutoff(self, margin, refused):
        # omega_cut / omega0 = 5000.5 synthesizes N = 5000 components, whose
        # top frequency, 5000 rad/s, is the cutoff that both the solver and
        # `validate` resolve: a step of margin * pi / (2 * 5000) passes below
        # margin 1 and is refused above it, by both.
        points = 1001
        cfg = load_config("fig3d", {
            "mode": "kernel", "kernel.points": str(points), "J0": "100",
            "T": repr(margin * 0.5 * np.pi / 5000.0 * (points - 1)),
            "noise.amplitude": "1e-4", "noise.omega_cut": "5000.5"})
        bad = config.blocking(config.validate(cfg))
        assert ["does not resolve noise.omega_cut" in v for v in bad] == [True] * refused
        noise = realize_noise(cfg.noise_spec(), 0)
        if refused:
            with pytest.raises(kernel.ResolutionError):
                kernel.solve_memory_equation(cfg.schedule(), noise, points)
        else:
            kernel.solve_memory_equation(cfg.schedule(), noise, points)

    def test_refuses_the_spectator(self):
        # Two sectors with offsets: the one-component equation does not describe them.
        with pytest.raises(ValueError, match="one-sector"):
            kernel.solve_memory_equation(SpectatorSchedule(4000.0, 5e-4), None, 1000)

    def test_initial_condition_and_bound(self):
        mem = kernel.solve_memory_equation(single(), None, 800)
        assert abs(mem.psi0[0]) == 1.0
        assert np.abs(mem.psi0).max() <= 1.0 + 1e-9

    def test_matches_oracle_fidelity(self):
        s = single()
        traj = evolve_oracle(s, None, EvolutionConfig(dt=1e-6), ZERO)
        mem = kernel.solve_memory_equation(s, None, 2001)
        fid = np.interp(mem.times, traj.times, traj.fidelity_e0)
        assert np.abs(np.abs(mem.psi0) ** 2 - fid).max() < 1e-2

    def test_grid_refinement_convergence(self):
        s = single()
        ref = kernel.solve_memory_equation(s, None, 16001)
        errs = []
        for n in (501, 1001, 2001):
            mem = kernel.solve_memory_equation(s, None, n)
            stride = (len(ref.times) - 1) // (n - 1)
            errs.append(np.abs(np.abs(mem.psi0) ** 2
                               - np.abs(ref.psi0[::stride]) ** 2).max())
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_long_t_limit(self):
        mem = kernel.solve_memory_equation(single(total_time=0.05), None, 4001)
        assert np.abs(mem.psi0).min() >= 0.999

    def test_two_qubit_block(self):
        s = pair()
        traj = evolve_oracle(s, None, EvolutionConfig(dt=1e-5),
                                    np.array([0.0, 1.0, 0.0, 0.0], dtype=complex))
        mem = kernel.solve_memory_equation(s, None, 2001)
        fid = np.interp(mem.times, traj.times, traj.fidelity_e0)
        assert np.abs(np.abs(mem.psi0) ** 2 - fid).max() < 1e-2


def _unit_rms_noise(amplitude):
    spec = NoiseSpec(amplitude=amplitude, omega0=1.0, omega_cut=5000.0, seed=3,
                     normalization=NoiseNormalization.UNIT_RMS)
    return realize_noise(spec, 0)


# Over these cases the prefix product deviates from the sequential recurrence
# by at most 8.4e-14 in psi0 and 6.5e-14 of the largest defect, both on the
# 20 001-point grid; the bound leaves a margin of about 12.
PREFIX_TOL = 1e-12


class TestPrefixProduct:
    @pytest.mark.parametrize("case, n_points", [
        ("fig3b", 1001), ("unit-rms 80000", 1001), ("unit-rms 80000", 20001), ("fig4b", 4001)])
    def test_matches_the_sequential_recurrence(self, case, n_points):
        if case.startswith("fig"):
            cfg = load_config(case)
            schedule = cfg.schedule()
            noise = realize_noise(cfg.noise_spec(), 0) if cfg.has_noise else None
        else:
            schedule, noise = single(), _unit_rms_noise(80000.0)
        mem = kernel.solve_memory_equation(schedule, noise, n_points)
        p, _ = kernel._split_kernel(schedule, noise, mem.times)
        psi, hist = kref.sequential_memory(p, p.conj(), mem.times[1] - mem.times[0])
        defect = np.abs(p * hist)
        assert np.abs(mem.psi0 - psi).max() < PREFIX_TOL
        assert np.abs(mem.defect - defect).max() < PREFIX_TOL * defect.max()


    @pytest.mark.parametrize("case", ["fig3b", "unit-rms 4000", "unit-rms 80000"])
    def test_step_is_the_pair_of_its_first_column(self, case):
        # The trapezoid step [[a, b], [c, d]] has b = -conj(c) and d = conj(a),
        # since q = conj(p) and 1 - gain hh^2 |p_i|^2 = gain, so the solver
        # builds only (a, c).  Evaluated as written, b and d stay within
        # 2.0 and 1.0 ulp of them (measured on these grids, on 15 noisy
        # members at three levels and on fig4a); the bound is 4 ulp of each.
        if case == "fig3b":
            schedule, noise = load_config(case).schedule(), None
        else:
            schedule, noise = single(), _unit_rms_noise(float(case.split()[1]))
        times = np.linspace(0.0, schedule.total_time, 1001)
        p, _ = kernel._split_kernel(schedule, noise, times)
        q, hh = p.conj(), 0.5 * (times[1] - times[0])
        gain = 1.0 / (1.0 + hh * hh * (p[1:] * q[1:]).real)
        a = gain * (1.0 - hh * hh * p[1:] * q[:-1])
        b = -gain * hh * (p[:-1] + p[1:])
        c = hh * q[:-1] + hh * q[1:] * a
        d = 1.0 + hh * q[1:] * b
        ulp = np.finfo(float).eps
        assert (np.abs(b + c.conj()) <= 4.0 * ulp * np.abs(c)).all()
        assert (np.abs(d - a.conj()) <= 4.0 * ulp * np.abs(a)).all()


class TestAdiabaticDefect:
    def test_zero_at_origin(self):
        s = single()
        mem = kernel.solve_memory_equation(s, None, 800)
        assert mem.defect[0] == 0.0

    def test_defect_is_the_memory_integral(self):
        # |int_0^t g(t, s) psi0(s) ds| by the trapezoid rule on the solver's
        # grid, with g from the pointwise reference `kref.kernel_value`.
        s = single()
        mem = kernel.solve_memory_equation(s, None, 800)
        for i in (1, 250, 799):
            g = [kref.kernel_value(s, None, mem.times[i], t) for t in mem.times[:i + 1]]
            direct = abs(np.trapezoid(np.array(g) * mem.psi0[:i + 1], mem.times[:i + 1]))
            assert mem.defect[i] == pytest.approx(direct, rel=1e-12)

    def test_long_t_much_smaller(self):
        short = kernel.solve_memory_equation(single(), None, 2001)
        long_run = kernel.solve_memory_equation(single(total_time=0.05), None, 4001)
        assert kernel.max_defect(long_run) < 0.1 * kernel.max_defect(short)

    def test_noise_shrinks_defect(self):
        # fig3d preset parameters: frozen regression factor, at least 3x reduction.
        s = single()
        clean = kernel.max_defect(kernel.solve_memory_equation(s, None, 2001))
        spec = NoiseSpec(amplitude=4000.0, omega0=1.0, n_components=5000, seed=1)
        noisy = []
        for i in range(10):
            mem = kernel.solve_memory_equation(s, realize_noise(spec, i), 2001)
            noisy.append(kernel.max_defect(mem))
        assert np.mean(noisy) < clean / 3.0



class TestPhaseOnGrid:
    @pytest.mark.parametrize("s", [single(), pair()])
    def test_noise_free_phase_matches_quadrature(self, s):
        # The closed form against adaptive quadrature of E = -2 J0 k(t),
        # sharing only the schedule's ab.  The worst relative error at these
        # points was 1.8e-16; the bound leaves a factor of about 50.  Nearer
        # t = 0 the difference anti - anti[0] cancels more digits.
        def gap(t):
            a, b = s.ab(t)
            return -2.0 * s.j0 * float(np.hypot(a, b))

        times = np.linspace(0.0, s.total_time, 1001)
        phi = kernel._phase_on_grid(s, None, times)
        for i in (100, 250, 500, 750, 1000):
            ref, _ = integrate.quad(gap, 0.0, float(times[i]), epsabs=0.0, epsrel=1e-13)
            assert phi[i] == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_noisy_phase_matches_gap_integral(self):
        # The solver's cumulative gap phase, with noise, against the pointwise
        # reference quadrature.
        s = single()
        spec = NoiseSpec(amplitude=400.0, omega0=1.0, n_components=300, seed=3)
        noise = realize_noise(spec, 2)
        times = np.linspace(0.0, s.total_time, 1001)
        phi = kernel._phase_on_grid(s, noise, times)
        for i in (250, 500, 1000):
            ref = kref.gap_integral(s, noise, 0.0, float(times[i]))
            assert phi[i] == pytest.approx(ref, rel=1e-6)
