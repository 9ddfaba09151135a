"""The benchmark tracer's hold on nia_sim's names.

`perfbench/tracing.py` replaces functions and module attributes in
nia_sim's modules for the length of a traced run, and restores them after
it.  A rename or deletion of any name it binds breaks `--trace 1` runs of
the benchmark; this test finds that in the tier-1 suite.
"""
import importlib.util
from pathlib import Path

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
