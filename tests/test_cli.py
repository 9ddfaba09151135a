"""Config parsing, validation, presets, CSV reproducibility, exit codes."""
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from nia_sim import cli, config, evolve, metrics, model
from nia_sim.config import (ConfigError, build_config, load_config, parse_pairs,
                            validate)

# Caption parameter blocks the shipped presets must match field-for-field.
PRESET_EXPECTATIONS = {
    "fig3a": {"system": "single", "total_time": 3e-4, "dt": 1e-6, "j0": 4000.0,
              "noise_amplitude": None},
    "fig3b": {"system": "single", "total_time": 5e-4, "dt": 1e-6, "j0": 4000.0,
              "noise_amplitude": None},
    "fig3c": {"system": "single", "total_time": 1.5e-3, "dt": 1e-6, "j0": 4000.0,
              "noise_amplitude": None},
    "fig3d": {"system": "single", "total_time": 5e-4, "dt": 1e-6, "j0": 4000.0,
              "noise_amplitude": 4000.0, "noise_omega0": 1.0,
              "noise_omega_cut": 5000.0, "realizations": 100},
    "fig4a": {"system": "pair", "total_time": 1e-2, "dt": 1e-5, "j0": 100.0,
              "noise_amplitude": None},
    "fig4b": {"system": "pair", "total_time": 1e-2, "dt": 1e-5, "j0": 100.0,
              "noise_amplitude": 1000.0, "noise_omega0": 1.0,
              "noise_omega_cut": 25000.0, "realizations": 100},
}


# Inputs a run cannot take, each with the refusal it gets: initial states
# the system has no room for, and modes the system does not support.
UNRUNNABLE = [
    ("simulate", "fig3a", {"initial_state": "0,0"}, "must be nonzero"),
    ("simulate", "fig3a", {"initial_state": "1,0,0"}, "needs 2 amplitudes"),
    ("simulate", "fig3a", {"initial_state": "pair01"}, "needs system = pair"),
    ("simulate", "fig4a", {"initial_state": "one"}, "needs a two-level system"),
    ("simulate", "fig4a", {"initial_state": "1,0,0,0"}, "{|01>, |10>} block"),
    # The check also runs the driven qubit alone, which takes two amplitudes.
    ("spectator-check", "fig3b", {"system": "spectator", "initial_state": "0.6,0,0,0.8"},
     "needs 2 amplitudes"),
    ("pulse-export", "fig3b", {"system": "spectator"}, "requires system = single"),
    # Finite inputs that no step resolves, refused alike in every mode.
    ("simulate", "fig3b", {"J0": "1e300"}, "may turn the state by"),
    ("oracle-check", "fig3b", {"J0": "1e300"}, "may turn the state by"),
    ("ensemble", "fig3d", {"noise.amplitude": "1e300"}, "may turn the state by"),
    ("kernel", "fig3b", {"J0": "1e300"}, "may turn the state by"),
    # The memory solver's own limits on its grid step h = T / (kernel.points - 1):
    # a noise-free kernel phase step 2 J0 h of 2 rad, and omega_cut h = 2 rad.
    ("kernel", "fig3b", {"J0": "2e6"}, "may turn the kernel phase by"),
    ("kernel", "fig3d", {"T": "0.4", "dt": "1e-5"}, "does not resolve noise.omega_cut"),
    # The oracle's Runge-Kutta substep dt/10 turning the state by 10 rad,
    # beyond RK4's stability limit of 2 sqrt(2) rad.
    ("oracle-check", "fig3b", {"J0": "1e8"}, "at which Runge-Kutta turns unstable"),
    # The memory equation covers the one-sector reductions only.
    ("kernel", "fig3b", {"system": "spectator", "J12": "2000"},
     "requires system = single or pair"),
    # J12 couples only the spectator: on another system every value is the same run.
    ("sweep", "fig3b", {"sweep.parameter": "J12", "sweep.values": "0,1000,5000"},
     "sweeping J12 requires system = spectator"),
    # The memory equation solves the level that starts in the sector's |0>.
    ("kernel", "fig3b", {"initial_state": "one"}, "level that starts in |0>"),
    ("kernel", "fig3b", {"initial_state": "plus"}, "level that starts in |0>"),
    ("kernel", "fig4a", {"initial_state": "0,0,1,0"}, "level that starts in |0>"),
    # Amplitude 0 is the noise-free point, which the noise-free solver runs.
    ("kernel", "fig3d", {"noise.amplitude": "0", "J0": "2e6"}, "may turn the kernel phase by"),
    # Noise does not lift the drive's share of that bound.
    ("kernel", "fig3d", {"noise.amplitude": "1", "J0": "2e6"}, "may turn the kernel phase by"),
    # Finite quoted inputs whose hertz reading, 2 pi times them, overflows to inf.
    ("ensemble", "fig3d", {"convention": "hertz", "noise.amplitude": "1e308"},
     "may turn the state by"),
    ("simulate", "fig3b", {"convention": "hertz", "J0": "1e308"}, "may turn the state by"),
    ("simulate", "fig3b", {"system": "spectator", "convention": "hertz", "J12": "1e308"},
     "may turn the state by"),
]


# The public config keys in field order: what files, `--set` and every CSV
# preamble name.  Renaming one breaks every saved config that uses it.
PUBLIC_KEYS = ("mode", "system", "T", "dt", "J0", "convention", "realizations",
               "initial_state", "store_every", "timestamps", "out", "noise.amplitude",
               "noise.omega0", "noise.omega_cut", "noise.normalization", "noise.seed",
               "J12", "sweep.parameter", "sweep.values", "kernel.points")


def read_csv(path):
    lines = [l for l in Path(path).read_text("utf-8").splitlines() if not l.startswith("#")]
    header = lines[0].strip().split(",")
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    return header, {name: data[:, i] for i, name in enumerate(header)}


# Preamble lines that say how many members an ensemble ran.
RUN_KEYS = ("# realizations", "# members", "# seeds")


def body_bytes(path):
    with open(path, "rb") as fh:
        return b"".join(l for l in fh if not l.startswith(b"#"))


class TestConfigParsing:
    def test_roundtrip(self):
        pairs = parse_pairs(["T = 0.001", "# comment", "", "J0 = 500  # inline"])
        cfg = build_config(pairs)
        assert cfg.total_time == 0.001
        assert cfg.j0 == 500.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_pairs(["T = 0.001", "bogus = 1"])

    def test_bad_syntax(self):
        with pytest.raises(ConfigError):
            parse_pairs(["just a line"])

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            build_config({"dt": "fast"})

    def test_overrides_win(self):
        cfg = build_config({"T": "0.001"}, overrides={"T": "0.002"})
        assert cfg.total_time == 0.002

    def test_missing_preset(self):
        with pytest.raises(ConfigError):
            load_config("fig9z")

    def test_spectator_offset_key_is_gone(self):
        # The spectator runs in its own rotating frame, so no key sets its offset.
        with pytest.raises(ConfigError, match="unknown config key 'omega_spec'"):
            load_config("fig3b", {"system": "spectator", "omega_spec": "0"})

    def test_public_key_list(self):
        assert tuple(config._KEY_TO_FIELD) == PUBLIC_KEYS
        # A config that sets every optional key reports every key.
        cfg = build_config({"noise.amplitude": "10", "noise.omega_cut": "100",
                            "noise.seed": "1", "sweep.values": "1,2"})
        assert sorted(key for key, _ in config.effective_items(cfg)) == sorted(PUBLIC_KEYS)


class TestUnitConversion:
    """The config reads the convention and the noise normalization; the model is in rad/s."""

    def test_hertz_takes_n_from_the_quoted_ratio(self):
        # omega_cut = 11 and omega0 = 1 quoted in Hz: the ratio in rad/s floors to 10.
        cfg = load_config("fig3d", {"convention": "hertz", "noise.omega0": "1",
                                    "noise.omega_cut": "11"})
        assert np.floor((2.0 * np.pi * 11.0) / (2.0 * np.pi * 1.0)) == 10
        assert cfg.noise_spec().n_components == 11

    @pytest.mark.parametrize("convention", ["angular", "hertz"])
    @pytest.mark.parametrize("normalization", ["literal", "unit-rms"])
    def test_model_values_are_the_quoted_ones_converted(self, normalization, convention):
        # Bit for bit the conversion written out, operation for operation:
        # f A (times sqrt(2/N) under unit-rms), f omega0, f J0 and the
        # spectator's sector offsets +-(f J12) / 4.
        f = 1.0 if convention == "angular" else 2.0 * np.pi
        for j0, j12, amplitude, omega0, omega_cut in [(4000.0, 215.0, 4000.0, 1.0, 5000.0),
                                                      (123.456, 0.3, 0.1, 37.3, 5000.0),
                                                      (1e-3, 1e5, 7e-9, 0.7, 11.0)]:
            cfg = load_config("fig3d", {
                "system": "spectator", "convention": convention, "J0": repr(j0),
                "J12": repr(j12), "noise.amplitude": repr(amplitude),
                "noise.omega0": repr(omega0), "noise.omega_cut": repr(omega_cut),
                "noise.normalization": normalization})
            n = int(np.floor(omega_cut / omega0))
            scale = f * amplitude
            if normalization == "unit-rms":
                scale *= np.sqrt(2.0 / n)
            spec, schedule = cfg.noise_spec(), cfg.schedule()
            assert (spec.amplitude, spec.omega0, spec.n_components) == (scale, f * omega0, n)
            assert schedule.j0 == f * j0
            z = f * j12 / 4.0
            assert [sec.z_offset for sec in schedule.sectors] == [z, -z]


class TestValidate:
    def test_presets_clean(self):
        for name in ("fig3a", "fig3b", "fig3c", "fig3d", "fig4a"):
            assert config.blocking(validate(load_config(name))) == []

    def test_fig3a_empty(self):
        assert validate(load_config("fig3a")) == []

    def test_worst_case_rotation_per_step(self):
        for name in config.PRESET_NAMES:
            assert config.blocking(validate(load_config(name))) == []

        def refused(preset, **overrides):
            bad = config.blocking(validate(load_config(preset, overrides)))
            return any("may turn the state by" in v for v in bad)

        # fig4b: dt (J0 + amplitude x 25 000 components) is 250 rad as shipped
        # and crosses 2^13 rad near amplitude 32 768.
        assert not refused("fig4b", **{"noise.amplitude": "32000"})
        assert refused("fig4b", **{"noise.amplitude": "32800"})
        # The spectator's z offset J12 / 4 counts too.
        assert refused("fig3b", system="spectator", J12="4e10")
        # The memory solver's step is T / (kernel.points - 1), 0.5 us on fig3b.
        assert refused("fig3b", J0="1e10")
        assert not refused("fig3b", mode="kernel", J0="1e10")
        assert refused("fig3b", mode="kernel", J0="1e10", **{"kernel.points": "500"})

    def test_midpoints_that_alias_the_noise_warn(self):
        # fig3b's dt is 1 us, so omega_cut = 10^7 puts omega_cut dt at 10 rad.
        aliased = {"noise.amplitude": "1", "noise.omega_cut": "1e7", "noise.seed": "1"}
        violations = validate(load_config("fig3b", aliased))
        assert config.blocking(violations) == []
        assert [v for v in violations if "alias" in v] == [
            "warning: noise.omega_cut times dt is 10 rad, more than pi;"
            " the step midpoints alias the noise"]
        # The noise-free point draws no noise; the memory solver has its own limit.
        for overrides in ({"noise.amplitude": "0"}, {"mode": "kernel"}):
            assert not any("alias" in v
                           for v in validate(load_config("fig3b", aliased | overrides)))
        # Shipped: omega_cut dt is 0.005 rad on fig3d and 0.25 rad on fig4b.
        for name in config.PRESET_NAMES:
            assert not any("alias" in v for v in validate(load_config(name)))

    def test_sweep_values_pass_their_warnings_on(self):
        # The 1e7 value aliases the noise, as the run alone would warn; the
        # base value 1e3 (omega_cut dt = 0.001 rad) does not.
        swept = {"mode": "sweep", "sweep.parameter": "noise.omega_cut",
                 "sweep.values": "1e3,1e7", "noise.amplitude": "1", "noise.omega0": "1000",
                 "noise.omega_cut": "1e3", "noise.seed": "1"}
        violations = validate(load_config("fig3b", swept))
        assert config.blocking(violations) == []
        assert violations == [
            "warning: sweep value 1e+07: noise.omega_cut times dt is 10 rad, more than pi;"
            " the step midpoints alias the noise"]

    def test_dt_zero(self):
        bad = validate(build_config({"dt": "0"}))
        assert any("dt must be positive" in v for v in bad)

    def test_dt_above_t_blocked(self):
        bad = config.blocking(validate(load_config("fig3a", {"dt": "0.001"})))
        assert "dt must not exceed T" in bad
        assert config.blocking(validate(load_config("fig3a", {"dt": "0.0003"}))) == []

    def test_noise_invariant_named(self):
        cfg = build_config({"noise.amplitude": "10", "noise.omega0": "100",
                            "noise.omega_cut": "5"})
        bad = validate(cfg)
        assert "noise.omega_cut must be >= noise.omega0 > 0" in bad

    def test_ensemble_needs_seed(self):
        cfg = build_config({"mode": "ensemble", "noise.amplitude": "10",
                            "noise.omega_cut": "100"})
        bad = validate(cfg)
        assert any("noise.seed" in v for v in bad)

    @pytest.mark.parametrize("overrides, message", [
        ({"T": "nan"}, "T must be finite"),
        ({"T": "inf"}, "T must be finite"),
        ({"dt": "inf"}, "dt must be finite"),
        ({"J0": "nan"}, "J0 must be finite"),
        ({"system": "spectator", "J12": "nan"}, "J12 must be finite"),
        ({"system": "spectator", "J12": "-inf"}, "J12 must be finite"),
        ({"noise.amplitude": "nan", "noise.omega_cut": "100"},
         "noise.amplitude must be finite"),
        ({"noise.amplitude": "1", "noise.omega0": "inf", "noise.omega_cut": "100"},
         "noise.omega0 must be finite"),
        ({"noise.amplitude": "1", "noise.omega_cut": "inf"}, "noise.omega_cut must be finite"),
        ({"initial_state": "nan,1"}, "initial_state amplitudes must be finite"),
        ({"initial_state": "1,infj"}, "initial_state amplitudes must be finite"),
        # N = 10^12 components: refused here, never allocated.
        ({"noise.amplitude": "1", "noise.omega_cut": "1e12"}, "noise components"),
    ])
    def test_non_finite_or_unbounded_blocked(self, overrides, message):
        bad = config.blocking(validate(load_config("fig3b", overrides)))
        assert any(message in v for v in bad), bad

    def test_component_cap_is_inclusive(self):
        at_cap = {"noise.amplitude": "1", "noise.omega0": "1",
                  "noise.omega_cut": str(config.MAX_NOISE_COMPONENTS)}
        assert config.blocking(validate(load_config("fig3b", at_cap))) == []

    def test_step_cap_counts_members(self):
        # fig3b takes 500 steps, so `most` members fit under the cap.
        most = config.MAX_MEMBER_STEPS // 500
        ensemble = {"mode": "ensemble", "noise.amplitude": "1", "noise.omega_cut": "100",
                    "noise.seed": "1"}
        assert config.blocking(validate(load_config("fig3b", ensemble | {
            "realizations": str(most)}))) == []
        for mode in ("ensemble", "sweep"):
            bad = config.blocking(validate(load_config("fig3b", ensemble | {
                "mode": mode, "realizations": str(most + 1)})))
            assert any("member-steps" in v for v in bad), bad
        # Outside ensemble and sweep modes a run has one member.
        assert config.blocking(validate(load_config("fig3b", {
            "realizations": str(most + 1)}))) == []

    def test_noise_free_sweep_has_one_member(self):
        # Each of these runs takes 500 steps, however many realizations are set.
        sweep = {"mode": "sweep", "sweep.parameter": "T", "sweep.values": "0.0005",
                 "realizations": "2001"}
        cfg = load_config("fig3b", sweep)
        assert cfg.members == 1
        assert config.blocking(validate(cfg)) == []
        noisy = load_config("fig3b", sweep | {"noise.amplitude": "1", "noise.omega_cut": "100"})
        assert noisy.members == 2001

    @pytest.mark.parametrize("mode, preset, overrides, message", UNRUNNABLE)
    def test_unrunnable_blocked(self, mode, preset, overrides, message):
        bad = config.blocking(validate(load_config(preset, overrides | {"mode": mode})))
        assert any(message in v for v in bad), bad

    def test_initial_vector_normalizes_extreme_amplitudes(self):
        for text in ("1e308,1e308", "5e-324,0", "1e-170,-1e-170j"):
            vec = load_config("fig3a", {"initial_state": text}).initial_vector()
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)
        spectator = load_config("fig3a", {"system": "spectator", "initial_state": "plus"})
        np.testing.assert_array_equal(spectator.initial_vector(),
                                      np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0))

    @pytest.mark.parametrize("dt", ["1e-15", "1e-320"])
    def test_step_count_blocked(self, dt):
        bad = config.blocking(validate(load_config("fig3a", {"dt": dt})))
        assert any("member-steps" in v for v in bad), bad

    def test_kernel_points_capped(self):
        top = {"mode": "kernel", "kernel.points": str(config.MAX_KERNEL_POINTS)}
        assert config.blocking(validate(load_config("fig3b", top))) == []
        bad = config.blocking(validate(load_config("fig3b", top | {
            "kernel.points": str(config.MAX_KERNEL_POINTS + 1)})))
        assert bad == [f"kernel.points must be <= {config.MAX_KERNEL_POINTS}"]

    def test_never_throws(self):
        cfg = build_config({"mode": "simulate", "T": "-1", "dt": "-1", "J0": "-1",
                            "convention": "imperial"})
        assert isinstance(validate(cfg), list)


class TestPresetFidelity:
    @pytest.mark.parametrize("name", sorted(PRESET_EXPECTATIONS))
    def test_preset_matches_caption(self, name):
        cfg = load_config(name)
        for field, expected in PRESET_EXPECTATIONS[name].items():
            assert getattr(cfg, field) == expected, (name, field)
        assert cfg.convention == "angular"

    def test_noisy_presets_fix_seeds(self):
        for name in ("fig3d", "fig4b"):
            assert load_config(name).noise_seed is not None


class TestWriteRows:
    # Signed zero, the smallest subnormal, a whole number past 2^53, whole
    # numbers, and values that need all twelve significant digits.
    EDGE = [-0.0, 5e-324, 1e16, 2.0, -7.0, 0.1, 1.0 / 3.0, -2.5e-300,
            123456789012.0, 1e-5, 1e21, -1.0]

    def test_rows_match_per_value_format(self, tmp_path):
        table = np.array(self.EDGE).reshape(-1, 3)
        path = tmp_path / "t.csv"
        cli._write_rows(str(path), ["# pre"], ["a", "b", "c"], table)
        rows = "".join(",".join(f"{x:.12g}" for x in row) + "\n" for row in table.tolist())
        assert path.read_text("utf-8") == "# pre\na,b,c\n" + rows

    def test_non_finite_refused_before_open(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(FloatingPointError, match="non-finite b in row 1"):
            cli._write_rows(str(path), [], ["a", "b"], [[1.0, 2.0], [3.0, np.inf]])
        assert not path.exists()


class TestCliRuns:
    def test_simulate_writes_csv(self, tmp_path):
        code = cli.main(["simulate", "--config", "fig3b", "--out", str(tmp_path)])
        assert code == 0
        header, col = read_csv(tmp_path / "trajectory.csv")
        assert header == ["t", "pop0", "pop1", "im_coherence", "fidelity_e0",
                          "gap", "noise"]
        np.testing.assert_allclose(col["pop0"] + col["pop1"], 1.0, atol=1e-9)
        assert col["t"][-1] == pytest.approx(5e-4)

    def test_reproducible_bodies(self, tmp_path):
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = cli.main(["simulate", "--config", "fig3d",
                             "--set", "realizations=1", "--set", "timestamps=false",
                             "--out", str(out)])
            assert code == 0
        assert body_bytes(tmp_path / "a/trajectory.csv") == \
            body_bytes(tmp_path / "b/trajectory.csv")

    def test_ensemble_csv(self, tmp_path):
        code = cli.main(["ensemble", "--config", "fig3d",
                         "--set", "realizations=3", "--out", str(tmp_path)])
        assert code == 0
        header, col = read_csv(tmp_path / "ensemble.csv")
        assert "mean_pop0" in header and "se_pop0" in header
        assert (col["se_pop0"][1:] > 0.0).any()
        # The requested realizations once, the members that ran, and the
        # realization indices they were drawn with, 0 .. M - 1.
        lines = (tmp_path / "ensemble.csv").read_text("utf-8").splitlines()
        assert [l for l in lines if l.startswith(RUN_KEYS)] == [
            "# realizations = 3", "# members = 3", "# seeds = 0 1 2"]

    def test_zero_amplitude_ensemble_is_the_noise_free_run(self, tmp_path, monkeypatch):
        # No realization is drawn and no noise synthesized: the ensemble is
        # its one noise-free trajectory, every standard error exactly 0 and
        # every mean the simulate run's column, bit for bit.
        def refuse(*args):
            raise AssertionError("noise drawn at zero amplitude")

        monkeypatch.setattr(cli.model, "realize_noise", refuse)
        monkeypatch.setattr(evolve, "noise_values", refuse)
        cfg = load_config("fig3d", {"mode": "ensemble", "noise.amplitude": "0",
                                    "realizations": "10"})
        assert cfg.has_noise and validate(cfg) == []
        summary, traj = cli._run_ensemble(cfg), cli._simulate(cfg)
        assert summary.m == 1
        for name in metrics.METRIC_NAMES:
            np.testing.assert_array_equal(summary.mean[name], traj.metric(name))
            assert not summary.se[name].any(), name
        # The preamble lists the one member that ran and no seeds.
        assert cli.main(["ensemble", "--config", "fig3d", "--set", "noise.amplitude=0",
                         "--set", "realizations=10", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "ensemble.csv").read_text("utf-8").splitlines()
        assert [l for l in lines if l.startswith(RUN_KEYS)] == [
            "# realizations = 10", "# members = 1"]

    def test_ensemble_builds_its_noise_spec_once(self, monkeypatch):
        # One spec serves every member; each member is still realized through
        # model.realize_noise, with its own index.
        specs, indices = [], []
        noise_spec, realize = config.RunConfig.noise_spec, model.realize_noise
        monkeypatch.setattr(config.RunConfig, "noise_spec",
                            lambda cfg: specs.append(noise_spec(cfg)) or specs[-1])
        monkeypatch.setattr(cli.model, "realize_noise",
                            lambda spec, index: indices.append(index) or realize(spec, index))
        cfg = load_config("fig3d", {"mode": "ensemble", "realizations": "5", "T": "2e-5"})
        assert cli._run_ensemble(cfg).m == 5
        assert (len(specs), indices) == (1, [0, 1, 2, 3, 4])

    def test_ensemble_memory_does_not_grow_with_components(self):
        # Traced peak growth of a 50-member, 50-step fig3d ensemble from
        # omega_cut 5000 to 50 000 components: 0.74 MiB, within the plan
        # budget and one member's synthesis (its 0.4 MB of phases and the
        # plan's scratch, under 1 MB).  Realizing every member up front
        # added 8 B per member and component, 17.2 MiB.
        peaks = []
        for cut in ("5000", "50000"):
            cfg = load_config("fig3d", {"mode": "ensemble", "realizations": "50",
                                        "T": "5e-5", "noise.omega_cut": cut})
            model._grid_plan.cache_clear()
            tracemalloc.start()
            try:
                cli._run_ensemble(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < model._PLAN_BUDGET + 2 * 2 ** 20, peaks

    def test_seed_flag_changes_output(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            cli.main(["simulate", "--config", "fig3d", "--seed", seed,
                      "--set", "timestamps=false", "--out", str(out)])
            outs.append(body_bytes(out / "trajectory.csv"))
        assert outs[0] != outs[1]

    def test_sweep_isolation_and_summary(self, tmp_path):
        code = cli.main(["sweep", "--config", "fig3b",
                         "--set", "sweep.parameter=T",
                         "--set", "sweep.values=0.0003,0.0005",
                         "--out", str(tmp_path)])
        assert code == 0
        header, col = read_csv(tmp_path / "sweep_summary.csv")
        assert header[0] == "T"
        assert len(col["T"]) == 2
        # A noise-free sweep runs one member per value: no standard error.
        assert not any(col[name].any() for name in header if name.startswith("final_se_"))
        # Non-swept remainder identical: both members carry the same base hash.
        preambles = []
        for i in range(2):
            text = (tmp_path / f"sweep_{i:03d}.csv").read_text("utf-8")
            lines = dict(l[2:].split(" = ") for l in text.splitlines()
                         if l.startswith("# ") and " = " in l)
            preambles.append({k: v for k, v in lines.items()
                              if k not in ("T", "config_hash", "generated")})
        assert preambles[0] == preambles[1]

    def test_sweep_summary_standard_errors(self, tmp_path):
        # Amplitude 0 is the noise-free point, whose standard errors are
        # exactly 0; at 4000 the members differ.
        code = cli.main(["sweep", "--config", "fig3d", "--set", "sweep.parameter=noise.amplitude",
                         "--set", "sweep.values=0,4000", "--set", "realizations=4",
                         "--set", "T=5e-5", "--out", str(tmp_path)])
        assert code == 0
        header, col = read_csv(tmp_path / "sweep_summary.csv")
        names = ["pop0", "pop1", "im_coherence", "fidelity_e0"]
        assert header == ["noise_amplitude", *(f"final_{name}" for name in names),
                          *(f"final_se_{name}" for name in names)]
        se = np.array([col[f"final_se_{name}"] for name in names])
        assert (se[:, 0] == 0.0).all() and (se[:, 1] > 0.0).all(), se

    def test_config_hash_ignores_output_directory(self, tmp_path):
        stamps = []
        for sub, extra in (("h1", []), ("h2", ["--set", "timestamps=false"])):
            out = tmp_path / sub
            assert cli.main(["simulate", "--config", "fig3a", *extra, "--out", str(out)]) == 0
            text = (out / "trajectory.csv").read_text("utf-8")
            stamps.append([l for l in text.splitlines() if l.startswith("# config_hash")])
        assert stamps[0] == stamps[1] and len(stamps[0]) == 1

    def test_kernel_mode(self, tmp_path):
        code = cli.main(["kernel", "--config", "fig3b", "--out", str(tmp_path)])
        assert code == 0
        header, col = read_csv(tmp_path / "kernel.csv")
        assert col["psi0_abs2"][0] == pytest.approx(1.0)
        assert col["defect"][0] == 0.0
        # |0> spelled as amplitudes is the same run.
        explicit = tmp_path / "explicit"
        assert cli.main(["kernel", "--config", "fig3b", "--set", "initial_state=1,0",
                         "--out", str(explicit)]) == 0
        assert body_bytes(explicit / "kernel.csv") == body_bytes(tmp_path / "kernel.csv")

    def test_noise_free_kernel_needs_no_noise_grid(self, tmp_path):
        # Amplitude 0 runs the noise-free solver, so a memory grid that does
        # not resolve omega_cut (omega_cut h = 2 rad here) refuses only a
        # noisy run; the noise-free one is fig3b's, byte for byte.
        sets = ["--set", "T=0.4", "--set", "J0=100"]
        for name, preset, extra in (("zero", "fig3d", ["--set", "noise.amplitude=0"]),
                                    ("free", "fig3b", [])):
            argv = ["kernel", "--config", preset, *extra, *sets, "--out", str(tmp_path / name)]
            assert cli.main(argv) == 0
        assert body_bytes(tmp_path / "zero/kernel.csv") == body_bytes(tmp_path / "free/kernel.csv")
        noisy = load_config("fig3d", {"mode": "kernel", "noise.amplitude": "1", "T": "0.4",
                                      "J0": "100"})
        assert any("does not resolve noise.omega_cut" in v
                   for v in config.blocking(validate(noisy)))

    def test_pulse_export(self, tmp_path):
        code = cli.main(["pulse-export", "--config", "fig3b", "--out", str(tmp_path)])
        assert code == 0
        lines = [l for l in (tmp_path / "pulses.txt").read_text("utf-8").splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 500
        fields = lines[0].split("\t")
        assert len(fields) == 5
        assert float(fields[0]) == 0.0
        assert float(fields[1]) == pytest.approx(1e-6)

    # Ten steps of fig3b (T = 1e-5) as the per-step pulse export wrote them;
    # the file separates its columns by tabs.
    PULSES_FIG3B_10 = """\
0 1e-06 199.999518667 -0.00380000005067 0.00380000005067
1e-06 1e-06 599.998844001 -0.0110000005093 0.003400000408
2e-06 1e-06 999.9985 -0.0174000019173 0.003000001
3e-06 1e-06 1399.99842267 -0.023000004616 0.00260000169867
4e-06 1e-06 1799.998548 -0.0278000086907 0.002200002376
5e-06 1e-06 2199.998812 -0.0318000139707 0.001800002904
6e-06 1e-06 2599.99915066 -0.0350000200293 0.00140000315467
7e-06 1e-06 2999.9995 -0.037400026184 0.00100000300001
8e-06 1e-06 3399.999796 -0.039000031496 0.000600002312011
9e-06 1e-06 3799.99997467 -0.0398000347707 0.000200000962672
"""

    def test_pulse_export_text_is_pinned(self, tmp_path):
        code = cli.main(["pulse-export", "--config", "fig3b", "--set", "T=1e-5",
                         "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "pulses.txt").read_text("utf-8")
        rows = "".join("\t".join(row.split()) + "\n" for row in self.PULSES_FIG3B_10.splitlines())
        assert text[text.index("# t_start"):] == (
            "# t_start\tduration\txy_amplitude\txy_phase\tz_angle\n" + rows)

    def test_pulse_start_times_are_the_trajectory_times(self, tmp_path):
        # 10^5 steps of fig3b: a cumulative sum of the step durations drifts
        # off the step grid (0.0999990000001 for 0.099999), the grid does not.
        for mode in ("pulse-export", "simulate"):
            assert cli.main([mode, "--config", "fig3b", "--set", "T=0.1",
                             "--out", str(tmp_path)]) == 0
        t_start = [line.split("\t")[0] for line in
                   (tmp_path / "pulses.txt").read_text("utf-8").splitlines()
                   if not line.startswith("#")]
        t = [line.split(",")[0] for line in
             (tmp_path / "trajectory.csv").read_text("utf-8").splitlines()
             if not line.startswith("#")]
        assert len(t_start) == 10 ** 5
        assert t_start == t[1:-1]

    @pytest.mark.parametrize("mode, preset, extra, name", [
        ("simulate", "fig3b", [], "trajectory.csv"),
        ("ensemble", "fig3d", ["--set", "realizations=2"], "ensemble.csv"),
    ])
    def test_store_every_past_int64_records_the_last_step(self, tmp_path, mode, preset, extra,
                                                          name):
        # Every stride of n = 500 steps or more records t = 0 and the last step only.
        for stride in (500, 2 ** 63):
            code = cli.main([mode, "--config", preset, *extra, "--set", f"store_every={stride}",
                             "--out", str(tmp_path / str(stride))])
            assert code == 0
        assert body_bytes(tmp_path / str(2 ** 63) / name) == body_bytes(tmp_path / "500" / name)

    def test_oracle_check_passes(self, tmp_path):
        code = cli.main(["oracle-check", "--config", "fig3b", "--out", str(tmp_path)])
        assert code == 0

    def test_noise_free_sweep_ignores_realizations(self, tmp_path):
        code = cli.main(["sweep", "--config", "fig3b", "--set", "sweep.parameter=T",
                         "--set", "sweep.values=0.0005", "--set", "realizations=2001",
                         "--out", str(tmp_path)])
        assert code == 0
        header, _ = read_csv(tmp_path / "sweep_000.csv")
        assert header[1] == "pop0"

    def test_spectator_check_passes(self, tmp_path):
        code = cli.main(["spectator-check", "--config", "fig3d",
                         "--out", str(tmp_path)])
        assert code == 0


class TestExitCodes:
    def test_unknown_key_is_usage(self, tmp_path):
        code = cli.main(["simulate", "--config", "fig3b",
                         "--set", "bogus=1", "--out", str(tmp_path)])
        assert code == 1

    def test_removed_spectator_offset_is_usage(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", "fig3b", "--set", "system=spectator",
                         "--set", "omega_spec=0", "--out", str(tmp_path)])
        assert code == 1
        assert "unknown config key 'omega_spec'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_invalid_value_is_usage(self, tmp_path):
        code = cli.main(["simulate", "--config", "fig3b",
                         "--set", "dt=0", "--out", str(tmp_path)])
        assert code == 1

    def test_dt_above_t_is_usage(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", "fig3a",
                         "--set", "dt=0.001", "--out", str(tmp_path)])
        assert code == 1
        assert "dt must not exceed T" in capsys.readouterr().err

    def test_sweep_t_below_dt_is_usage(self, tmp_path, capsys):
        code = cli.main(["sweep", "--config", "fig3a", "--set", "sweep.parameter=T",
                         "--set", "sweep.values=0.0003,0.0000005", "--out", str(tmp_path)])
        assert code == 1
        assert "sweep value 5e-07: dt must not exceed T" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, preset, overrides, message", UNRUNNABLE)
    def test_unrunnable_is_usage_before_output(self, tmp_path, capsys, mode, preset,
                                               overrides, message):
        argv = [mode, "--config", preset, "--out", str(tmp_path / "out")]
        for key, value in overrides.items():
            argv += ["--set", f"{key}={value}"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_result_is_numeric(self, tmp_path, capsys):
        # Each step turns the state by 0.5 rad at most, but the noise, about
        # 5e199 rad/s over a 1e-200 s run, squares to inf in the members' variance.
        argv = ["ensemble", "--config", "fig3d", "--set", "realizations=2", "--set", "T=1e-200",
                "--set", "dt=1e-202", "--set", "noise.amplitude=1e198"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert "numeric failure" in capsys.readouterr().err
        assert not (tmp_path / "ensemble.csv").exists()

    def test_vanished_oracle_state_is_numeric(self, tmp_path, capsys):
        # 2 rad per Runge-Kutta substep is within RK4's stability limit, but
        # each substep shrinks the state by a factor 0.75 until its norm is
        # lost; the run names the recorded step instead of dividing by zero.
        argv = ["oracle-check", "--config", "fig3b", "--set", "J0=2e7", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        assert "numeric failure: state norm vanished after step 499" in capsys.readouterr().err
        assert not (tmp_path / "oracle_check.txt").exists()

    @pytest.mark.parametrize("case", ["config is a directory", "config is not UTF-8",
                                      "out is a file"])
    def test_unreadable_path_is_usage_before_output(self, tmp_path, capsys, case):
        (tmp_path / "latin1.cfg").write_bytes("T = 1e-4\n# \xb5s\n".encode("latin-1"))
        (tmp_path / "file").write_text("", "utf-8")
        config_arg, out = {"config is a directory": (str(tmp_path), tmp_path / "out"),
                           "config is not UTF-8": (str(tmp_path / "latin1.cfg"), tmp_path / "out"),
                           "out is a file": ("fig3a", tmp_path / "file")}[case]
        assert cli.main(["simulate", "--config", config_arg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("nia-sim: ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "latin1.cfg"]
        assert (tmp_path / "file").read_text("utf-8") == ""

    def test_every_mode_has_a_runner(self):
        # A mode that `validate` accepts but no runner serves would end in a KeyError.
        assert sorted(config.MODES) == sorted(cli._MODE_RUNNERS)

    def test_missing_config_is_usage(self, tmp_path):
        code = cli.main(["simulate", "--config", "nope.cfg", "--out", str(tmp_path)])
        assert code == 1

    def test_bad_mode_is_usage(self):
        assert cli.main(["contemplate", "--config", "fig3b"]) == 1

    def test_pair_state_outside_block_is_usage(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", "fig4a",
                         "--set", "initial_state=0.5,0.5,0.5,0.5", "--out", str(tmp_path)])
        assert code == 1
        assert "{|01>, |10>} block" in capsys.readouterr().err

    @pytest.mark.parametrize("sets", [["system=spectator", "J12=nan"],
                                      ["initial_state=nan,1"]])
    def test_non_finite_input_is_usage(self, tmp_path, sets):
        argv = ["simulate", "--config", "fig3b", "--out", str(tmp_path)]
        for item in sets:
            argv += ["--set", item]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1

    def test_step_count_cap_is_usage(self, tmp_path, capsys):
        # 3 x 10^11 steps: refused by validate, never allocated.
        code = cli.main(["simulate", "--config", "fig3a",
                         "--set", "dt=1e-15", "--out", str(tmp_path)])
        assert code == 1
        assert "member-steps" in capsys.readouterr().err

    def test_kernel_points_cap_is_usage(self, tmp_path, capsys):
        code = cli.main(["kernel", "--config", "fig3b",
                         "--set", "kernel.points=1000000000000", "--out", str(tmp_path)])
        assert code == 1
        assert "kernel.points must be <=" in capsys.readouterr().err

    def test_coarse_kernel_grid_is_usage(self, tmp_path):
        code = cli.main(["kernel", "--config", "fig3b",
                         "--set", "kernel.points=100", "--out", str(tmp_path)])
        assert code == 1
