"""Config parsing, validation, presets, CSV reproducibility, exit codes."""
import warnings
from pathlib import Path

import numpy as np
import pytest

from nia_sim import cli, config
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
]


def read_csv(path):
    lines = [l for l in Path(path).read_text("utf-8").splitlines() if not l.startswith("#")]
    header = lines[0].strip().split(",")
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    return header, {name: data[:, i] for i, name in enumerate(header)}


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


class TestValidate:
    def test_presets_clean(self):
        for name in ("fig3a", "fig3b", "fig3c", "fig3d", "fig4a"):
            assert config.blocking(validate(load_config(name))) == []

    def test_fig3a_empty(self):
        assert validate(load_config("fig3a")) == []

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
        assert any("NoiseSpec" in v for v in bad)

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
        ({"system": "spectator", "omega_spec": "-inf"}, "omega_spec must be finite"),
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
        # Non-swept remainder identical: both members carry the same base hash.
        preambles = []
        for i in range(2):
            text = (tmp_path / f"sweep_{i:03d}.csv").read_text("utf-8")
            lines = dict(l[2:].split(" = ") for l in text.splitlines()
                         if l.startswith("# ") and " = " in l)
            preambles.append({k: v for k, v in lines.items()
                              if k not in ("T", "config_hash", "generated")})
        assert preambles[0] == preambles[1]

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
    @pytest.mark.parametrize("argv, csv", [
        # The noise sum overflows.
        (["kernel", "--config", "fig3d", "--set", "noise.amplitude=1e308"], "kernel.csv"),
        # The noise is finite, but its variance over the members is not.
        (["ensemble", "--config", "fig3d", "--set", "realizations=2",
          "--set", "noise.amplitude=1e300"], "ensemble.csv"),
    ])
    def test_non_finite_result_is_numeric(self, tmp_path, capsys, argv, csv):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert "numeric failure" in capsys.readouterr().err
        assert not (tmp_path / csv).exists()

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
