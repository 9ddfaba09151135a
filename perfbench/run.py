"""nia-sim benchmark: one workload per run, measured for a fixed time.

    python3 perfbench/run.py --workload fig3d_ensemble --seed 1 --seconds 25 --trace 0

Run from a source checkout: nia_sim is imported from its `src/` directory,
never from an installed copy.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics (setup_s, solve_s,
cpu_s, peak_rss_mib); with --trace 1 it holds the per-layer metrics of
`tracing.py` instead, and the spans are written under perfbench/out/.
The exit code is 0 only when every operation ran and passed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
# Set-up is sampled before and after the timed operations, so that its
# median spans the run rather than one moment of a shared machine.
SETUP_BEFORE, SETUP_AFTER = 3, 4

# Runs in a fresh interpreter: import nia_sim, load and validate the configs.
PROBE = """
import json, sys
from nia_sim import config
for source, overrides in json.loads(sys.argv[1]):
    if config.blocking(config.validate(config.load_config(source, overrides))):
        sys.exit(1)
print("ready", flush=True)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_time(jobs) -> float:
    """Seconds from starting a fresh interpreter until its configs are validated."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, json.dumps(jobs)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
    if code != 0 or line != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_round(workload, tracer, caller):
    """One whole round; per operation (label, exit code, wall s, cpu s, digest, traced)."""
    ops = []
    for label, fn in workload.round():
        cpu0 = cpu_seconds()
        try:
            if tracer is None:
                start = time.perf_counter()
                code = fn()
                wall = time.perf_counter() - start
            else:
                with tracer.patched(caller):
                    code, wall = tracer.run_op(fn)
        except Exception:  # one failed operation must not stop the run
            traceback.print_exc()
            code, wall = -1, float("nan")
        cpu = cpu_seconds() - cpu0
        digest = workload.digest(label) if code == 0 else None
        ops.append({"label": label, "code": code, "wall": wall, "cpu": cpu,
                    "digest": digest, "traced": tracer is not None})
    return ops


def measure(workload, seconds, tracer, caller):
    """Whole rounds until the next one would end past `seconds`.

    Traced runs alternate untraced and traced rounds, at least one of each.
    """
    ops = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        ops += run_round(workload, None, caller)
        if tracer is not None:
            ops += run_round(workload, tracer, caller)
        last = time.perf_counter() - begin
        if time.perf_counter() - start + last > seconds:
            return ops


def judge(workload, ops):
    """Mark failed operations; returns the problems found."""
    problems = []
    for label in dict.fromkeys(op["label"] for op in ops):
        mine = [op for op in ops if op["label"] == label]
        if mine[-1]["code"] != 0:
            found = [f"last operation exited with code {mine[-1]['code']}"]
        else:
            found = workload.check(label)
        final = mine[-1]["digest"] if not found else None
        for op in mine:
            op["failed"] = op["code"] != 0 or op["digest"] != final
        if any(op["failed"] for op in mine) and not found:
            found = ["output differs between repeated identical operations"]
        problems += [f"{label}: {problem}" for problem in found]
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nia_sim", "__init__.py")):
        print(f"benchmark: no nia_sim source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)

    def probe(samples):
        return [setup_time(workload.setup_jobs()) for _ in range(0 if args.trace else samples)]

    setup = probe(SETUP_BEFORE)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    ops = measure(workload, args.seconds, tracer, workloads)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += probe(SETUP_AFTER)
    problems = judge(workload, ops)
    for problem in problems:
        print(f"benchmark: {args.workload}: {problem}", file=sys.stderr)

    untraced = [op for op in ops if not op["traced"] and not op["failed"]]
    if not untraced:
        metrics = {}
    elif tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "solve_s": (statistics.median(op["wall"] for op in untraced), "s"),
            "cpu_s": (statistics.median(op["cpu"] for op in untraced), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        tracer.write(os.path.join(OUT, f"trace_{args.workload}_seed{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed})
        layers = tracing.layer_metrics(tracer.spans, [op["wall"] for op in untraced])
        metrics = {name: (layers[name], unit) for name, unit in tracing.PER_LAYER}
    failed = sum(op["failed"] for op in ops)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
