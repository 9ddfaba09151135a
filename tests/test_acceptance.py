"""Acceptance gate: the ten calibration and reproduction criteria.

Each test prints exactly one PASS/FAIL line (through the capture-disabled
console) and then asserts.  Heavy ensembles are shared as module fixtures.
"""
import numpy as np
import pytest

import dense_reference as dense
import kernel_reference
import oracle_reference as oref
from nia_sim import config, evolve, kernel, metrics, model, smallmat
from nia_sim.cli import _evolution_config, _run_ensemble, _simulate
from nia_sim.config import load_config
from nia_sim.evolve import EvolutionConfig
from nia_sim.model import (FrequencyConvention, NoiseNormalization, NoiseSpec,
                           SingleQubitSchedule, realize_noise)
from pulse_reference import reconstruct_propagator

ANG = FrequencyConvention.ANGULAR_DIRECT
ZERO = np.array([1.0, 0.0], dtype=complex)

NOISE_FREE_PRESETS = ("fig3a", "fig3b", "fig3c", "fig4a")
ALL_PRESETS = NOISE_FREE_PRESETS + ("fig3d", "fig4b")


def announce(capsys, n, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {n:2d} {name}: {verdict} ({detail})")
    return ok


def run_ensemble(preset):
    """The preset's ensemble through the entry point `nia-sim ensemble` uses."""
    return _run_ensemble(load_config(preset))


@pytest.fixture(scope="module")
def fig3d_summary():
    return run_ensemble("fig3d")


@pytest.fixture(scope="module")
def fig4b_summary():
    return run_ensemble("fig4b")


def test_criterion_01_convention_calibration(capsys):
    """Exactly one frequency convention lands fig4a on pop0 = 0.32 +- 0.05."""
    finals = {}
    for conv in ("angular", "hertz"):
        cfg = load_config("fig4a", overrides={"convention": conv})
        traj = _simulate(cfg)
        finals[conv] = (traj.pop0[-1], traj.pop1[-1])
    in_band = {conv: abs(p0 - 0.32) <= 0.05 and abs(p1 - 0.68) <= 0.05
               for conv, (p0, p1) in finals.items()}
    ok = sum(in_band.values()) == 1
    detail = ", ".join(f"{conv}: pop0={p0:.3f}" for conv, (p0, _) in finals.items())
    announce(capsys, 1, "convention calibration", ok, detail)
    assert ok, ("neither convention reproduces the quoted 0.32/0.68 endpoint; "
                f"{detail}; the frozen default remains 'angular', which matches "
                "all other reference behavior")


def test_criterion_02_noise_induced_adiabaticity(capsys, fig3d_summary):
    final_pop0 = fig3d_summary.mean["pop0"][-1]
    max_im = np.abs(fig3d_summary.mean["im_coherence"]).max()
    ok = 0.45 <= final_pop0 <= 0.55 and max_im <= 0.05
    announce(capsys, 2, "noise-induced adiabaticity", ok,
             f"final mean pop0={final_pop0:.3f}, max |mean Im|={max_im:.3f}")
    assert ok


def test_criterion_03_noise_free_non_adiabaticity(capsys):
    """Noise-free sweeps leave the eigenstate, less so as T grows.

    fig3a and fig3b (fig3b is the noise-free counterpart of fig3d) must end
    non-adiabatic.  fig3c is slow enough that the adiabatic theorem predicts
    a near-adiabatic end (worst coupling-to-gap ratio 1/(sqrt(2) J0 T) is
    0.12), so it is checked through the trend instead: the final fidelity
    rises strictly from fig3a to fig3b to fig3c.
    """
    results = []
    for preset in ("fig3a", "fig3b", "fig3c"):
        cfg = load_config(preset)
        traj = _simulate(cfg)
        results.append((cfg.total_time, traj.fidelity_e0[-1],
                        np.abs(traj.im_coherence).max()))
    fids = [fid for _, fid, _ in results]
    fast_ok = all(fid < 0.95 for fid in fids[:2])
    trend_ok = fids[0] < fids[1] < fids[2]
    im_ok = all(im > 0.1 for _, _, im in results)
    ok = fast_ok and trend_ok and im_ok
    detail = ("; ".join(f"T={t * 1e3:g}ms fid={fid:.3f} max|Im|={im:.3f}"
                        for t, fid, im in results)
              + f"; fast fid<0.95: {fast_ok}, fid rising with T: {trend_ok}")
    announce(capsys, 3, "noise-free non-adiabaticity", ok, detail)
    assert ok, ("expected final fidelity < 0.95 at T=0.3 and 0.5 ms, fidelity "
                "rising strictly with T up to 1.5 ms, and max|Im| > 0.1 on "
                "every sweep; " + detail)


def test_criterion_04_entangled_state(capsys, fig4b_summary):
    final_pop0 = fig4b_summary.mean["pop0"][-1]
    final_pop1 = fig4b_summary.mean["pop1"][-1]
    max_im = np.abs(fig4b_summary.mean["im_coherence"]).max()
    ok = (0.45 <= final_pop0 <= 0.55 and 0.45 <= final_pop1 <= 0.55
          and max_im <= 0.05)
    announce(capsys, 4, "entangled-state criterion", ok,
             f"pop0={final_pop0:.3f}, pop1={final_pop1:.3f}, "
             f"max |mean Im|={max_im:.3f}")
    assert ok


def test_criterion_05_memory_equation_exactness(capsys):
    worst = 0.0
    for preset in NOISE_FREE_PRESETS:
        cfg = load_config(preset)
        schedule = cfg.schedule()
        traj = oref.evolve_oracle(schedule, None, _evolution_config(cfg),
                                    cfg.initial_vector())
        mem = kernel.solve_memory_equation(schedule, None, 2001)
        fid = np.interp(mem.times, traj.times, traj.fidelity_e0)
        worst = max(worst, float(np.abs(np.abs(mem.psi0) ** 2 - fid).max()))
    # Convergence order under grid doubling on the fig3b configuration.
    cfg = load_config("fig3b")
    schedule = cfg.schedule()
    ref = kernel.solve_memory_equation(schedule, None, 16001)
    errs = []
    for n in (501, 1001, 2001):
        mem = kernel.solve_memory_equation(schedule, None, n)
        stride = (len(ref.times) - 1) // (n - 1)
        errs.append(np.abs(np.abs(mem.psi0) ** 2
                           - np.abs(ref.psi0[::stride]) ** 2).max())
    order = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))
    ok = worst < 1e-2 and order >= 1.8
    announce(capsys, 5, "memory-equation exactness", ok,
             f"max deviation={worst:.2e}, convergence order={order:.2f}")
    assert ok


def test_criterion_06_oracle_equivalence(capsys):
    details = []
    ok = True
    for preset in ALL_PRESETS:
        cfg = load_config(preset)
        schedule = cfg.schedule()
        noise = None
        if cfg.has_noise:
            noise = realize_noise(cfg.noise_spec(), 0)
        ecfg = _evolution_config(cfg)
        initial = cfg.initial_vector()
        a = evolve.final_state_stepwise(schedule, noise, ecfg, initial)
        b = evolve.final_state_oracle(schedule, noise, ecfg, initial)
        inf = abs(1.0 - abs(np.vdot(a, b)) ** 2)
        bound = 1e-6 if noise is None else 1e-4
        ok = ok and inf < bound
        details.append(f"{preset}:{inf:.1e}")
    announce(capsys, 6, "oracle equivalence", ok, ", ".join(details))
    assert ok


def test_criterion_07_spectator_reproduction(capsys):
    cfg = load_config("fig3d")
    noise = realize_noise(cfg.noise_spec(), 0)
    ecfg = _evolution_config(cfg)
    base_s = cfg.schedule()
    base = evolve.evolve_stepwise(base_s, noise, ecfg, ZERO)
    errs = {}
    for j12 in (215.0, 0.0):
        spec_s = model.SpectatorSchedule(base_s.j0, base_s.total_time, base_s.convention, j12=j12)
        embedded = evolve.evolve_stepwise(spec_s, noise, ecfg, np.kron(ZERO, ZERO))
        errs[j12] = metrics.spectator_error(base, embedded)
    ok = errs[215.0] < 0.01 and errs[0.0] < 1e-9
    announce(capsys, 7, "spectator reproduction", ok,
             f"J12=215: {errs[215.0]:.4%}, J12=0: {errs[0.0]:.1e}")
    assert ok


def test_criterion_08_analytic_coupling_checks(capsys):
    schedule = SingleQubitSchedule(j0=4000.0, total_time=5e-4, convention=ANG)
    rng = np.random.default_rng(12345)
    delta = 1e-7 * schedule.total_time
    worst_rel = 0.0
    for t in rng.uniform(delta, schedule.total_time - delta, 100):
        t = float(t)
        ce = kernel.coupling_elements(schedule, t)

        def direction(u):
            a, b = schedule.ab(u)
            return float(a) * dense.SX + float(b) * dense.SZ

        es_lo = smallmat.eigh(direction(t - delta))
        es_hi = smallmat.eigh(direction(t + delta))
        es = smallmat.eigh(direction(t))
        # Tracked level E0 is the upper eigenvalue (ascending index 1).
        de1 = (es_hi.vectors[:, 0] - es_lo.vectors[:, 0]) / (2.0 * delta)
        fd_c01 = float(np.real(np.vdot(es.vectors[:, 1], de1)))
        # <E0|dE0/dt>, zero for the real eigenvectors.
        de0 = (es_hi.vectors[:, 1] - es_lo.vectors[:, 1]) / (2.0 * delta)
        fd_c00 = float(np.real(np.vdot(es.vectors[:, 1], de0)))
        gap_eigh = schedule.j0_rad * (es.values[0] - es.values[1])
        worst_rel = max(worst_rel,
                        abs(ce.c01 - fd_c01) / abs(fd_c01),
                        abs(ce.gap - gap_eigh) / abs(gap_eigh),
                        abs(fd_c00))
    modulus_worst = 0.0
    for t in rng.uniform(0.0, schedule.total_time, 40):
        for s in rng.uniform(0.0, float(t), 3):
            g = kernel_reference.kernel_value(schedule, None, float(t), float(s))

            def ksq(u):
                a, b = schedule.ab(u)
                return float(a) ** 2 + float(b) ** 2

            closed = 1.0 / (4.0 * schedule.total_time ** 2 * ksq(t) * ksq(s))
            modulus_worst = max(modulus_worst, abs(abs(g) - closed) / closed)
    ok = worst_rel < 1e-5 and modulus_worst < 1e-10
    announce(capsys, 8, "analytic coupling checks", ok,
             f"couplings rel err={worst_rel:.1e}, modulus rel err={modulus_worst:.1e}")
    assert ok


def test_criterion_09_pulse_faithfulness(capsys):
    cfg = load_config("fig3d")
    schedule = cfg.schedule()
    noise = realize_noise(cfg.noise_spec(), 0)
    ecfg = _evolution_config(cfg)
    u = reconstruct_propagator(evolve.decompose_pulse(schedule, noise, ecfg))
    n, tau = evolve._plan_steps(schedule.total_time, ecfg.dt)
    mids = (np.arange(n) + 0.5) * tau
    c_mid = model.noise_values(noise, 0.5 * tau, tau, n)
    direct = np.eye(2, dtype=complex)
    for k in range(n):
        direct = dense.expm_hermitian(
            oref.h_single(schedule, mids[k], c_mid[k]), tau) @ direct
    inf = abs(1.0 - abs(np.trace(u.conj().T @ direct) / 2.0) ** 2)
    ok = inf < 1e-6
    announce(capsys, 9, "pulse decomposition faithfulness", ok,
             f"whole-run infidelity={inf:.1e}")
    assert ok


def test_criterion_10_defect_monotonicity(capsys):
    schedule = SingleQubitSchedule(j0=4000.0, total_time=5e-4, convention=ANG)
    m = 200
    levels = [0.0, 4000.0, 20000.0, 80000.0]  # RMS 0, J0, 5 J0, 20 J0
    samples = []
    for amp in levels:
        if amp == 0.0:
            mem = kernel.solve_memory_equation(schedule, None, 1001)
            samples.append(np.full(m, kernel.max_defect(mem)))
            continue
        spec = NoiseSpec(amplitude=amp, omega0=1.0, omega_cut=5000.0, seed=3,
                         normalization=NoiseNormalization.UNIT_RMS, convention=ANG)
        vals = [kernel.max_defect(
                    kernel.solve_memory_equation(schedule, realize_noise(spec, i),
                                                 1001))
                for i in range(m)]
        samples.append(np.array(vals))
    rng = np.random.default_rng(777)
    ok = True
    bounds = []
    for lo, hi in zip(samples, samples[1:]):
        boot = np.array([hi[rng.integers(0, m, m)].mean()
                         - lo[rng.integers(0, m, m)].mean()
                         for _ in range(5000)])
        upper = float(np.percentile(boot, 95))
        bounds.append(upper)
        ok = ok and upper <= 0.0
    means = ", ".join(f"{s.mean():.0f}" for s in samples)
    announce(capsys, 10, "defect monotonicity", ok,
             f"means [{means}], pairwise 95% upper bounds "
             + ", ".join(f"{b:.1f}" for b in bounds))
    assert ok
