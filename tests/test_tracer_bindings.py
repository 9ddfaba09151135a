"""The benchmark tracer's hold on nia_sim's names.

`perfbench/tracing.py` replaces functions and module attributes in
nia_sim's modules for the length of a traced run, and restores them after
it.  A rename or deletion of any name it binds breaks `--trace 1` runs of
the benchmark; this test finds that in the tier-1 suite.
"""
import importlib.util
from pathlib import Path

from nia_sim import evolve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves_and_is_restored(tmp_path):
    tracing, workloads = load("tracing"), load("workloads")
    tracer = tracing.Tracer()
    originals = [(namespace, name, getattr(namespace, name))
                 for namespace, name, _ in tracer.bindings(workloads)]
    argv = ["ensemble", "--config", "fig3d", "--set", "realizations=2", "--set", "T=2e-5",
            "--out", str(tmp_path)]
    with tracer.patched(workloads):
        for namespace, name, original in originals:
            assert getattr(namespace, name) is not original, name
        code, _ = tracer.run_op(lambda: workloads.run_cli(argv))
    assert code == 0
    for namespace, name, original in originals:
        assert getattr(namespace, name) is original, name
    spans = {span["name"] for span in tracer.spans}
    assert {"evolve.stepwise", "model.noise", "metrics.aggregate", "cli.write"} <= spans


def test_traced_ensemble_folds_one_expm_per_block(tmp_path):
    # 1200 steps of 3 members run in blocks of 1024 // 3 = 341 steps: four
    # blocks, each with one call of the step exponential.  An engine that
    # bypassed `smallmat.expm_unitary` would fold no leaf, and its time would
    # count as evolve's own.
    tracing, workloads = load("tracing"), load("workloads")
    tracer = tracing.Tracer()
    argv = ["ensemble", "--config", "fig3d", "--set", "realizations=3", "--set", "T=1.2e-3",
            "--out", str(tmp_path)]
    with tracer.patched(workloads):
        code, _ = tracer.run_op(lambda: workloads.run_cli(argv))
    assert code == 0
    [span] = [span for span in tracer.spans if span["name"] == "evolve.stepwise"]
    block = evolve._BLOCK_MATRICES // 3
    assert span["attrs"]["steps"] == 1200
    assert span["folded"]["smallmat.expm"][0] == -(-1200 // block) == 4


def test_traced_memory_solve_keeps_its_layers(tmp_path):
    # One memory_kernel operation: the solve is one kernel span whose noise
    # synthesis is its only child span and whose couplings are one folded
    # vectorized call; it never enters the stepping engine.
    tracing, workloads = load("tracing"), load("workloads")
    tracer = tracing.Tracer()
    workload = workloads.MemoryKernelWorkload(1, str(tmp_path))
    _, solve = workload.round()[0]
    with tracer.patched(workloads):
        code, _ = tracer.run_op(solve)
    assert code == 0
    [span] = [span for span in tracer.spans if span["name"] == "kernel.solve"]
    children = [child["name"] for child in tracer.spans if child["parent"] == span["id"]]
    assert children == ["model.noise"]
    assert span["folded"]["kernel.coupling"][0] == 1
    assert span["attrs"]["points"] == workloads.MEMORY_POINTS
    assert "evolve.stepwise" not in {span["name"] for span in tracer.spans}
