"""The stepwise engine against the exact finite-time Landau-Zener solution.

`lz_reference` solves every noise-free sector in closed form, so these
tests measure the engine's absolute error rather than its agreement with
another discretization.
"""
import numpy as np
import pytest

import lz_reference as lz
from nia_sim import evolve
from nia_sim.config import load_config
from nia_sim.evolve import EvolutionConfig
from nia_sim.model import SpectatorSchedule

# Each noise-free preset's exact final pop0, to the 10 digits of the
# ROADMAP's table, and a bound on the engine's infidelity against the exact
# state at the preset's dt.  Measured: 4.7e-12, 2.1e-12, 1.9e-13 and 5.3e-15;
# each bound is 2.1-3.8 times that, the widest where rounding is near.
PRESETS = {"fig3a": (0.6982504322, 1e-11), "fig3b": (0.3884802558, 5e-12),
           "fig3c": (0.4900793065, 5e-13), "fig4a": (0.7723594930, 2e-14)}


def infidelity(a, b) -> float:
    return 1.0 - abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real)


def engine_sectors(schedule, initial, dt) -> np.ndarray:
    """The stepwise engine's noise-free sector states at T, shape (n_sectors, 2)."""
    final = evolve.final_state_stepwise(schedule, None, EvolutionConfig(dt=dt), initial)
    return final[np.array([sec.indices for sec in schedule.sectors])]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_at_its_dt(name):
    pop0, bound = PRESETS[name]
    cfg = load_config(name)
    schedule, initial = cfg.schedule(), cfg.initial_vector()
    [exact] = lz.final_sector_states(schedule, initial)
    assert abs(abs(exact[0]) ** 2 - pop0) < 5e-11
    [final] = engine_sectors(schedule, initial, cfg.dt)
    assert infidelity(exact, final) <= bound


def test_second_order_rate():
    # fig3a, the largest error of the four: the state error falls from
    # 2.3e-6 to 5.9e-7 and 1.5e-7 as dt halves twice, orders 2.0000007 and
    # 2.0000002; the bound allows 1e-3.
    cfg = load_config("fig3a")
    schedule, initial = cfg.schedule(), cfg.initial_vector()
    [exact] = lz.final_sector_states(schedule, initial)
    errors = [np.linalg.norm(engine_sectors(schedule, initial, cfg.dt / k)[0] - exact)
              for k in (1, 2, 4)]
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert (np.abs(orders - 2.0) < 1e-3).all(), orders


def test_spectator_sectors():
    # Both sectors, with offsets +-53.75 rad/s, from a state that weights
    # them unequally.  Measured infidelities 2.6e-12 and 4.4e-12; bound 1e-11.
    schedule = SpectatorSchedule(4000.0, 3e-4, j12=215.0)
    initial = np.array([0.6, 0.3j, -0.5, 0.2 + 0.4j])
    initial /= np.linalg.norm(initial)
    exact = lz.final_sector_states(schedule, initial)
    for sector, final in zip(exact, engine_sectors(schedule, initial, 1e-6)):
        assert infidelity(sector, final) <= 1e-11
