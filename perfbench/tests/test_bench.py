"""Fast tests of the benchmark: result format, failure modes, and that every check can fail.

    python -m pytest perfbench/tests -q
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from nia_sim import cli, evolve, kernel, model

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_benchmark(cwd, trace):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "memory_kernel",
                           "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def cli_csv(tmp_path, argv, name):
    assert workloads.run_cli([*argv, "--out", str(tmp_path)]) == 0
    return checks.read_csv(os.path.join(tmp_path, name))[1]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, section):
    proc = run_benchmark(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3 and result["attempted"] % 3 == 0
    expected = {m["name"]: m["unit"] for m in benchmark_spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["kernel.points"] == 1001 and values["model.noise_calls"] == 1
        assert values["evolve.steps"] == 0 and values["cli.csv_rows"] == 0
        assert values["trace.accounted_pct"] == pytest.approx(100.0, abs=1e-6)
    else:
        assert all(value > 0 for value in values.values())


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_benchmark(tmp_path, 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_noise_free_check_fails_on_corruption(tmp_path):
    cols = cli_csv(tmp_path, ["simulate", "--config", "fig3a"], "trajectory.csv")
    states = checks.exact_states("single", 4000.0, 3e-4, cols["t"])
    assert checks.check_trajectory(cols, "single", 4000.0, 3e-4, states) == []
    flipped = dict(cols, im_coherence=-cols["im_coherence"])
    assert checks.check_trajectory(flipped, "single", 4000.0, 3e-4, states)
    noisy = dict(cols, noise=cols["noise"] + 1.0)
    assert checks.check_trajectory(noisy, "single", 4000.0, 3e-4, states)
    assert checks.check_time_column(cols, 3e-4, 301) == []
    assert checks.check_time_column(dict(cols, t=cols["t"][::-1]), 3e-4, 301)


@pytest.fixture(scope="module")
def pair_ensemble(tmp_path_factory):
    """A small fig4b-style ensemble: 2 members, 200 steps, 300 noise components."""
    out = tmp_path_factory.mktemp("pair")
    argv = ["ensemble", "--config", "fig4b", "--set", "realizations=2", "--set", "T=0.002",
            "--set", "noise.omega_cut=300", "--seed", "9"]
    return cli_csv(out, argv, "ensemble.csv")


def pair_checks(cols):
    return (checks.check_ensemble_properties(cols, "pair", 100.0, 0.002, 201),
            checks.check_mean_noise(cols, 9, 2, 300, 1000.0, 1.0, stride=10),
            checks.check_dense_members(cols, 9, 2, 100.0, 0.002, 1e-5, 300, 1000.0, 1.0))


def test_pair_ensemble_passes(pair_ensemble):
    assert pair_checks(pair_ensemble) == ([], [], [])


def test_flipped_sign_fails_the_properties(pair_ensemble):
    props, _, dense = pair_checks(dict(pair_ensemble, mean_pop1=-pair_ensemble["mean_pop1"]))
    assert props and dense
    props, noise, _ = pair_checks(dict(pair_ensemble, mean_noise=-pair_ensemble["mean_noise"]))
    assert props and noise


def test_perturbed_member_fails_the_dense_reference(pair_ensemble):
    # Move 1e-6 of one member's population from |01> to |10> at one record:
    # pop0 + pop1 still sums to 1, so only the member reference can see it.
    pop0, pop1 = pair_ensemble["mean_pop0"].copy(), pair_ensemble["mean_pop1"].copy()
    pop0[100] += 0.5e-6
    pop1[100] -= 0.5e-6
    props, _, dense = pair_checks(dict(pair_ensemble, mean_pop0=pop0, mean_pop1=pop1))
    assert props == [] and dense


def test_plateau_band():
    rows = 11
    cols = {"mean_pop0": np.full(rows, 0.5), "se_pop0": np.full(rows, 0.01),
            "mean_pop1": np.full(rows, 0.5), "se_pop1": np.full(rows, 0.01),
            "mean_im_coherence": np.full(rows, 0.02), "se_im_coherence": np.full(rows, 0.01)}
    assert checks.check_plateau(cols, "pair") == []
    off = cols["mean_pop1"].copy()
    off[-1] = 0.6
    assert checks.check_plateau(dict(cols, mean_pop1=off), "pair")
    assert checks.check_plateau(dict(cols, mean_pop1=off), "single") == []
    assert checks.check_plateau(dict(cols, mean_im_coherence=-5 * cols["mean_im_coherence"]),
                                "single")


def test_memory_check_fails_on_perturbed_state():
    schedule = model.SingleQubitSchedule(j0=4000.0, total_time=5e-4)
    spec = model.NoiseSpec(amplitude=20000.0, omega0=1.0, omega_cut=5000.0, seed=4,
                           normalization=model.NoiseNormalization.UNIT_RMS)
    memory = kernel.solve_memory_equation(schedule, model.realize_noise(spec, 2), 1001)
    noise = (checks.noise_phases(4, 2, 5000), 20000.0 * np.sqrt(2.0 / 5000), 1.0)
    assert checks.check_memory(memory.times, memory.psi0, 4000.0, 5e-4, noise) == []
    psi0 = memory.psi0.copy()
    psi0[500] *= 1.0 - 1e-4
    assert checks.check_memory(memory.times, psi0, 4000.0, 5e-4, noise)


class FakeWorkload:
    def __init__(self, problems):
        self.problems = problems

    def check(self, label):
        return self.problems


def ops(*digests):
    return [{"label": "x", "code": 0, "digest": d} for d in digests]


def test_judge_fails_operations_that_disagree_or_fail_a_check():
    same = ops("a", "a")
    assert run.judge(FakeWorkload([]), same) == [] and not any(op["failed"] for op in same)
    differ = ops("b", "a")
    assert run.judge(FakeWorkload([]), differ)
    assert [op["failed"] for op in differ] == [True, False]
    bad = ops("a", "a")
    assert run.judge(FakeWorkload(["wrong"]), bad) and all(op["failed"] for op in bad)


def test_tracer_counts_a_simulate_call_and_restores_bindings(tmp_path):
    tracer = tracing.Tracer()
    argv = ["simulate", "--config", "fig3a", "--out", str(tmp_path)]
    with tracer.patched(workloads):
        code, seconds = tracer.run_op(lambda: workloads.run_cli(argv))
    assert code == 0
    assert cli.evolve is evolve and evolve.noise_values is model.noise_values
    layers = tracing.layer_metrics(tracer.spans, [seconds])
    assert layers["evolve.steps"] == 300 and layers["smallmat.expm_calls"] == 300
    assert layers["smallmat.eigh_calls"] == 301 == layers["evolve.records"]
    assert layers["cli.csv_rows"] == 301 and layers["model.noise_calls"] == 0
    assert layers["trace.accounted_pct"] == pytest.approx(100.0, abs=1e-6)
