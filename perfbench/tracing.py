"""Per-layer tracing of nia-sim from the benchmark's own code.

Spans are recorded around calls into each module's public functions as the
calling module sees them: a name bound by `from .model import noise_values`
is replaced in the caller's namespace, and a module used as `smallmat.eigh`
is replaced in the caller by a copy whose public functions are wrapped.  The
package's source is left untouched, and `Tracer.patched()` restores every
binding on exit.

Hot leaf calls (one per step or per record) are folded into per-parent
totals instead of spans.  Spans are kept in memory and written out once.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time
import types

from nia_sim import cli, evolve, kernel

# Each span kind names the layer metric its exclusive time goes to.
SPAN_SELF_METRIC = {
    "op": "trace.glue_s",
    "cli.main": "cli.self_s",
    "config.load": "config.load_s",
    "config.validate": "config.load_s",
    "model.realize": "model.realize_s",
    "model.noise": "model.noise_s",
    "evolve.stepwise": "evolve.self_s",
    "metrics.aggregate": "metrics.aggregate_s",
    "kernel.solve": "kernel.self_s",
    "cli.write": "cli.write_s",
}
# Folded leaves: (time metric or None, call-count metric).  A leaf without a
# time metric belongs to its caller's layer and stays in the caller's self time.
LEAF_METRICS = {
    "smallmat.expm": ("smallmat.expm_s", "smallmat.expm_calls"),
    "smallmat.eigh": ("smallmat.eigh_s", "smallmat.eigh_calls"),
    "metrics.record": ("metrics.record_s", None),
    "kernel.coupling": (None, "kernel.coupling_calls"),
}
# Exclusive layer times; together they make up each traced operation.
EXCLUSIVE = ("trace.glue_s", "cli.self_s", "config.load_s", "model.realize_s",
             "model.noise_s", "smallmat.expm_s", "smallmat.eigh_s", "evolve.self_s",
             "metrics.record_s", "metrics.aggregate_s", "kernel.self_s", "cli.write_s")

PER_LAYER = (
    ("config.load_s", "s"), ("model.noise_s", "s"), ("model.noise_calls", "count"),
    ("model.noise_terms", "count"), ("model.noise_ns_per_term", "ns"),
    ("model.realize_s", "s"), ("smallmat.expm_s", "s"), ("smallmat.expm_calls", "count"),
    ("smallmat.eigh_s", "s"), ("smallmat.eigh_calls", "count"),
    ("evolve.stepwise_s", "s"), ("evolve.self_s", "s"), ("evolve.steps", "count"),
    ("evolve.records", "count"), ("evolve.us_per_step", "us"),
    ("metrics.record_s", "s"), ("metrics.aggregate_s", "s"),
    ("kernel.solve_s", "s"), ("kernel.self_s", "s"), ("kernel.points", "count"),
    ("kernel.coupling_calls", "count"),
    ("cli.write_s", "s"), ("cli.csv_rows", "count"), ("cli.csv_bytes", "B"),
    ("cli.self_s", "s"), ("trace.glue_s", "s"),
    ("trace.solve_s", "s"), ("trace.untraced_solve_s", "s"), ("trace.overhead_pct", "%"),
    ("trace.accounted_pct", "%"),
)


def _steps(args, kwargs, result):
    schedule, cfg = args[0], args[2]
    return {"steps": math.ceil(schedule.total_time / cfg.dt - 1e-9),
            "records": len(result.times)}


def _terms(args, kwargs, result):
    return {"samples": len(result), "terms": len(result) * args[0].spec.n_components}


def _points(args, kwargs, result):
    return {"points": len(result.times)}


def _csv(args, kwargs, result):
    return {"rows": len(args[2].times), "bytes": os.path.getsize(args[0])}


class Tracer:
    """Span recorder; wrappers append to `spans` and fold leaves into the open span."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._origin = time.perf_counter()

    def span(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1]["id"] if self._stack else None
            record = {"id": len(self.spans), "name": name, "parent": parent,
                      "start": time.perf_counter() - self._origin, "end": None,
                      "folded": {}, "attrs": {}}
            self.spans.append(record)
            self._stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter() - self._origin
                self._stack.pop()
            if attrs is not None:
                record["attrs"] = attrs(args, kwargs, result)
            return result
        return wrapper

    def leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals = self._stack[-1]["folded"].setdefault(name, [0, 0.0])
                totals[0] += 1
                totals[1] += elapsed
        return wrapper

    def _module_view(self, module, wrapped):
        view = types.ModuleType(module.__name__)
        view.__dict__.update(vars(module))
        view.__dict__.update(wrapped)
        return view

    def bindings(self, caller):
        """(namespace, name, replacement) for every traced call site.

        `caller` is the benchmark module that calls into nia_sim directly.
        """
        from nia_sim import config, metrics, model, smallmat

        return [
            (caller, "cli", self._module_view(cli, {"main": self.span("cli.main", cli.main)})),
            (caller, "load_config", self.span("config.load", config.load_config)),
            (caller, "validate", self.span("config.validate", config.validate)),
            (caller, "realize_noise", self.span("model.realize", model.realize_noise)),
            (caller, "solve_memory_equation",
             self.span("kernel.solve", kernel.solve_memory_equation, _points)),
            (cli, "load_config", self.span("config.load", config.load_config)),
            (cli, "validate", self.span("config.validate", config.validate)),
            (cli, "write_trajectory", self.span("cli.write", cli.write_trajectory, _csv)),
            (cli, "write_summary", self.span("cli.write", cli.write_summary, _csv)),
            (cli, "evolve", self._module_view(evolve, {
                "evolve_stepwise": self.span("evolve.stepwise", evolve.evolve_stepwise, _steps)})),
            (cli, "model", self._module_view(model, {
                "realize_noise": self.span("model.realize", model.realize_noise)})),
            (cli, "metrics", self._module_view(metrics, {
                "aggregate": self.span("metrics.aggregate", metrics.aggregate)})),
            (cli, "kernel", self._module_view(kernel, {
                "solve_memory_equation": self.span("kernel.solve", kernel.solve_memory_equation,
                                                   _points)})),
            (evolve, "noise_values", self.span("model.noise", model.noise_values, _terms)),
            (evolve, "smallmat", self._module_view(smallmat, {
                "expm_unitary": self.leaf("smallmat.expm", smallmat.expm_unitary),
                "eigh": self.leaf("smallmat.eigh", smallmat.eigh)})),
            (evolve, "metrics", self._module_view(metrics, {
                name: self.leaf("metrics.record", getattr(metrics, name))
                for name in ("basis_metrics", "reduced_qubit_metrics", "reduced_density")})),
            (kernel, "noise_values", self.span("model.noise", model.noise_values, _terms)),
            (kernel, "coupling_elements", self.leaf("kernel.coupling", kernel.coupling_elements)),
        ]

    @contextlib.contextmanager
    def patched(self, caller):
        """Install every binding for the duration of the block."""
        saved = []
        try:
            for namespace, name, replacement in self.bindings(caller):
                saved.append((namespace, name, getattr(namespace, name)))
                setattr(namespace, name, replacement)
            yield
        finally:
            for namespace, name, original in reversed(saved):
                setattr(namespace, name, original)

    def run_op(self, fn):
        """Run one operation under a root span; returns (result, seconds)."""
        root = self.span("op", fn)
        start = time.perf_counter()
        result = root()
        return result, time.perf_counter() - start

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans}, fh)


def layer_metrics(spans, untraced_times) -> dict:
    """Per-operation layer metrics from the spans of the traced operations."""
    totals = {name: 0.0 for name, _ in PER_LAYER}
    children = {}
    for record in spans:
        children.setdefault(record["parent"], []).append(record)
    roots = children.get(None, [])
    for record in spans:
        duration = record["end"] - record["start"]
        exclusive = duration - sum(c["end"] - c["start"] for c in children.get(record["id"], []))
        for leaf, (calls, seconds) in record["folded"].items():
            time_key, count_key = LEAF_METRICS[leaf]
            if time_key:
                totals[time_key] += seconds
                exclusive -= seconds
            if count_key:
                totals[count_key] += calls
        totals[SPAN_SELF_METRIC[record["name"]]] += exclusive
        attrs = record["attrs"]
        if record["name"] == "model.noise":
            totals["model.noise_calls"] += 1
            totals["model.noise_terms"] += attrs["terms"]
        elif record["name"] == "evolve.stepwise":
            totals["evolve.stepwise_s"] += duration
            totals["evolve.steps"] += attrs["steps"]
            totals["evolve.records"] += attrs["records"]
        elif record["name"] == "kernel.solve":
            totals["kernel.solve_s"] += duration
            totals["kernel.points"] += attrs["points"]
        elif record["name"] == "cli.write":
            totals["cli.csv_rows"] += attrs["rows"]
            totals["cli.csv_bytes"] += attrs["bytes"]
    n_ops = len(roots)
    out = {name: value / n_ops for name, value in totals.items()}
    traced = statistics.median(r["end"] - r["start"] for r in roots)
    untraced = statistics.median(untraced_times)
    out["model.noise_ns_per_term"] = (1e9 * totals["model.noise_s"] / totals["model.noise_terms"]
                                      if totals["model.noise_terms"] else 0.0)
    out["evolve.us_per_step"] = (1e6 * totals["evolve.stepwise_s"] / totals["evolve.steps"]
                                 if totals["evolve.steps"] else 0.0)
    out["trace.solve_s"] = traced
    out["trace.untraced_solve_s"] = untraced
    out["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    total_root = sum(r["end"] - r["start"] for r in roots)
    out["trace.accounted_pct"] = 100.0 * sum(totals[k] for k in EXCLUSIVE) / total_root
    return out
