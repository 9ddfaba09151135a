"""Fuzzed front end: `validate` refuses exactly the configs a run cannot take.

Every key of the config table is drawn from valid, boundary, zero, negative,
non-finite and garbage values, and the initial state from the named states
and from lists of random amplitudes.
"""
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nia_sim import cli, config, evolve
from nia_sim.config import ConfigError, blocking, load_config, validate

# Zero, negative, non-finite, overflowing and garbage values, tried on every key.
_BAD = ("0", "-1", "-1e-6", "nan", "inf", "-inf", "1e400", "", "abc")

# Valid and boundary values per key: dt = T is the step boundary, 5e-324 the
# least double, 10^7 the component cap.
_VALUES = {
    "mode": config.MODES,
    "system": config.SYSTEMS,
    "T": ("0.0003", "0.0005", "2e-5", "1e-6", "1e300"),
    "dt": ("1e-6", "1e-5", "3e-7", "0.0005", "1e-15", "5e-324"),
    "J0": ("4000", "100", "1e-300", "1e300"),
    "convention": ("angular", "hertz"),
    "realizations": ("1", "2", "4", "2000", "2001", "1000000", str(10**30)),
    "store_every": ("1", "7", "1000000"),
    "timestamps": ("true", "false"),
    "out": ("results",),
    "noise.amplitude": ("4000", "1", "1e300", "1e-300"),
    "noise.omega0": ("1", "37.3", "5000", "1e-300"),
    "noise.omega_cut": ("5000", "100", "1", "10000000", "1e12"),
    "noise.normalization": ("literal", "unit-rms"),
    "noise.seed": ("1", "7", "-5", str(2**70)),
    "J12": ("215", "0", "1e6"),
    "omega_spec": ("0", "100", "-100"),
    "sweep.parameter": config.SWEEPABLE + ("dt",),
    "sweep.values": ("0.0003", "0.0003,0.0005", "4e-7", "5000,-1", "1,nan"),
    "kernel.points": ("500", "1000", "499", str(config.MAX_KERNEL_POINTS + 1)),
}

# Valid values of the keys that size a run, and of the sweep keys, which
# property 2 always sets so that sweeps run too (see _small).
_SMALL = {
    "T": ("0.0003", "0.0005", "2e-5", "1e-6"),
    "dt": ("1e-6", "1e-5", "3e-7", "0.0005"),
    "realizations": ("1", "2", "4"),
    "noise.omega0": ("1", "37.3", "5000"),
    "noise.omega_cut": ("5000", "100", "1"),
    "kernel.points": ("500", "1000", "499"),
    "sweep.parameter": config.SWEEPABLE,
    "sweep.values": ("0.0003", "0.0003,0.0005", "100,4000"),
}

_amplitude = st.one_of(st.floats().map(repr), st.complex_numbers().map(str),
                       st.sampled_from(("0", "1", "-1j", "x")))
_initial_state = st.one_of(
    st.sampled_from(("", "zero", "one", "plus", "pair01", "minus")),
    st.lists(_amplitude, min_size=1, max_size=5).map(",".join))


def _overrides(table, required=()):
    """Overrides for a random subset of keys (and every `required` key).

    Values come from `table`, else `_VALUES`; up to two keys then take a
    value from `_BAD`, so that most configs carry one or two faults.
    """
    values = {key: st.sampled_from(table.get(key) or _VALUES[key])
              for key in config._KEY_TO_FIELD if key != "initial_state"}
    values["initial_state"] = _initial_state
    base = st.fixed_dictionaries(
        {key: values[key] for key in required},
        optional={key: s for key, s in values.items() if key not in required})
    faults = st.dictionaries(st.sampled_from(tuple(config._KEY_TO_FIELD)),
                             st.sampled_from(_BAD), max_size=2)
    return st.tuples(base, faults).map(lambda pair: pair[0] | pair[1])


def _load(preset, overrides):
    try:
        return load_config(preset, overrides)
    except ConfigError:
        return None


@given(preset=st.sampled_from(config.PRESET_NAMES), overrides=_overrides({}))
@settings(max_examples=600, deadline=None)
def test_validate_refuses_every_underivable_run(preset, overrides):
    """validate never raises, and what it lets through every run can derive."""
    cfg = _load(preset, overrides)
    if cfg is None:
        return
    violations = validate(cfg)
    assert isinstance(violations, list)
    if blocking(violations):
        return
    for run in config.runs(cfg):
        run.schedule()
        spec = run.noise_spec()
        run.initial_vector()
        evolve.EvolutionConfig(run.dt, store_every=run.store_every)
        n, _ = evolve._plan_steps(run.total_time, run.dt)
        assert run.members * n <= config.MAX_MEMBER_STEPS
        assert spec is None or spec.n_components <= config.MAX_NOISE_COMPONENTS


def _small(cfg) -> bool:
    """At most 2 000 steps, 4 members and 5 000 noise components per run.

    The limit only keeps this test within the time of the tier-1 suite; the
    property itself holds for any config.
    """
    for run in config.runs(cfg):
        if run.total_time / run.dt > 2000 or run.members > 4:
            return False
        if run.has_noise and run.noise_spec().n_components > 5000:
            return False
    return True


# Extreme finite inputs (J0 or a noise amplitude of 1e300) overflow inside
# numpy on their way to exit 2.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@given(mode=st.sampled_from(config.MODES),
       preset=st.sampled_from(config.PRESET_NAMES),
       overrides=_overrides(_SMALL, required=tuple(_SMALL)))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_cli_exits_with_a_code_and_finite_csvs(mode, preset, overrides):
    """Exit 1 exactly when validate refuses, before any output; finite CSVs otherwise."""
    cfg = _load(preset, overrides | {"mode": mode})
    refused = cfg is None or bool(blocking(validate(cfg)))
    if not refused:
        assume(_small(cfg))
    argv = [mode, "--config", preset]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = cli.main(argv + ["--out", str(out)])
        assert code in (0, 1, 2, 3)
        assert (code == 1) == refused
        if refused:
            assert not out.exists()
        for csv in out.glob("*.csv"):
            rows = [line for line in csv.read_text("utf-8").splitlines()
                    if not line.startswith("#")][1:]
            values = [float(x) for row in rows for x in row.split(",")]
            assert all(math.isfinite(x) for x in values), csv
