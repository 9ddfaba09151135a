"""The four workloads: inputs made from the seed, one round of operations, checks.

A workload's round is the list of operations every run repeats whole.  Each
operation goes through a public entry point of nia-sim (`cli.main`, or
`config` + `model.realize_noise` + `kernel.solve_memory_equation`) and returns
an exit code.  Its output is fingerprinted after the timed call; the output
of the last round is checked against the independent references in
`checks.py`, and every earlier operation must have produced the same bytes.

The physical parameters below restate the shipped presets, so a check also
fails if the program ran something other than the documented inputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os

import numpy as np

from nia_sim import cli
from nia_sim.config import blocking, load_config, validate
from nia_sim.kernel import solve_memory_equation
from nia_sim.model import realize_noise

FIG4B_REALIZATIONS = 16
# Criterion-10 noise levels: RMS J0, 5 J0 and 20 J0 at J0 = 4000.
MEMORY_LEVELS = (4000.0, 20000.0, 80000.0)
MEMORY_POINTS = 1001


def derive(seed: int, stream: int) -> int:
    """A 32-bit program input drawn from the benchmark seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def body_digest(path: str) -> str:
    """Digest of a CSV below its '#' preamble (the preamble carries a timestamp)."""
    with open(path, "rb") as fh:
        return hashlib.sha256(b"".join(line for line in fh if not line.startswith(b"#"))).hexdigest()


def check_preamble(meta: dict, expected: dict) -> list[str]:
    problems = []
    for key, value in expected.items():
        if key not in meta or float(meta[key]) != float(value):
            problems.append(f"preamble {key} = {meta.get(key)!r}, expected {value!r}")
    return problems


class EnsembleWorkload:
    """`nia-sim ensemble` on a noisy preset; one operation per round."""

    def __init__(self, seed, out_dir, preset, params, realizations=None):
        self.noise_seed = derive(seed, 0)
        self.out_dir = out_dir
        self.preset = preset
        self.params = params
        self.overrides = {"noise.seed": str(self.noise_seed)}
        sets = []
        if realizations is not None:
            self.overrides["realizations"] = str(realizations)
            sets = ["--set", f"realizations={realizations}"]
        self.argv = ["ensemble", "--config", preset, *sets, "--seed", str(self.noise_seed),
                     "--out", out_dir]

    @property
    def csv(self):
        return os.path.join(self.out_dir, "ensemble.csv")

    def setup_jobs(self):
        return [(self.preset, self.overrides)]

    def round(self):
        return [(self.preset, lambda: run_cli(self.argv))]

    def digest(self, label):
        return body_digest(self.csv)

    def check(self, label):
        import checks

        p = self.params
        meta, cols = checks.read_csv(self.csv)
        m = p["M"]
        steps = math.ceil(p["T"] / p["dt"] - 1e-9)
        problems = check_preamble(meta, {"J0": p["J0"], "T": p["T"], "dt": p["dt"],
                                         "noise.amplitude": p["amplitude"],
                                         "noise.omega_cut": p["omega_cut"],
                                         "noise.seed": self.noise_seed,
                                         "realizations": m})
        if meta.get("noise.normalization") != "literal" or meta.get("system") != p["system"]:
            problems.append("preamble normalization or system differs from the preset")
        if problems:
            return problems
        n = int(p["omega_cut"])
        problems += checks.check_ensemble_properties(cols, p["system"], p["J0"], p["T"], steps + 1)
        problems += checks.check_plateau(cols, p["system"])
        problems += checks.check_mean_noise(cols, self.noise_seed, m, n, p["amplitude"], 1.0,
                                            stride=max(1, steps // 20))
        if p["system"] == "pair":
            problems += checks.check_dense_members(cols, self.noise_seed, m, p["J0"], p["T"],
                                                   p["dt"], n, p["amplitude"], 1.0)
        return problems


def fig3d_ensemble(seed, out_dir):
    return EnsembleWorkload(seed, out_dir, "fig3d", {
        "system": "single", "J0": 4000.0, "T": 5e-4, "dt": 1e-6, "amplitude": 4000.0,
        "omega_cut": 5000.0, "M": 100})


def fig4b_ensemble(seed, out_dir):
    return EnsembleWorkload(seed, out_dir, "fig4b", {
        "system": "pair", "J0": 100.0, "T": 0.01, "dt": 1e-5, "amplitude": 1000.0,
        "omega_cut": 25000.0, "M": FIG4B_REALIZATIONS}, realizations=FIG4B_REALIZATIONS)


class MemoryKernelWorkload:
    """Noisy memory-equation solves at the three criterion-10 levels."""

    def __init__(self, seed, out_dir):
        self.noise_seed = derive(seed, 0)
        self.index = derive(seed, 1)
        self.config = os.path.join(out_dir, "memory_kernel.cfg")
        lines = ["mode = kernel", "system = single", "T = 0.0005", "J0 = 4000",
                 "convention = angular", "noise.amplitude = 4000", "noise.omega0 = 1",
                 "noise.omega_cut = 5000", "noise.normalization = unit-rms",
                 f"noise.seed = {self.noise_seed}", f"kernel.points = {MEMORY_POINTS}"]
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.results = {}

    def setup_jobs(self):
        return [(self.config, {"noise.amplitude": repr(level)}) for level in MEMORY_LEVELS]

    def _solve(self, level):
        cfg = load_config(self.config, {"noise.amplitude": repr(level)})
        if blocking(validate(cfg)):
            return 1
        noise = realize_noise(cfg.noise_spec(), self.index)
        self.results[level] = solve_memory_equation(cfg.schedule(), noise, cfg.kernel_points)
        return 0

    def round(self):
        return [(level, lambda level=level: self._solve(level)) for level in MEMORY_LEVELS]

    def digest(self, label):
        result = self.results[label]
        return hashlib.sha256(result.times.tobytes() + result.psi0.tobytes()).hexdigest()

    def check(self, label):
        import checks

        result = self.results[label]
        total_time = 5e-4
        if not np.array_equal(result.times, np.linspace(0.0, total_time, MEMORY_POINTS)):
            return ["memory solution is not on the uniform 1001-point grid"]
        n = 5000
        noise = (checks.noise_phases(self.noise_seed, self.index, n),
                 label * math.sqrt(2.0 / n), 1.0)
        return checks.check_memory(result.times, result.psi0, 4000.0, total_time, noise)


# Noise-free presets: (name, system, J0, T, dt).
PRESETS = (("fig3a", "single", 4000.0, 3e-4, 1e-6), ("fig3b", "single", 4000.0, 5e-4, 1e-6),
           ("fig3c", "single", 4000.0, 1.5e-3, 1e-6), ("fig4a", "pair", 100.0, 0.01, 1e-5))


class NoiseFreePresetsWorkload:
    """`nia-sim simulate` on fig3a, fig3b, fig3c and fig4a as one operation."""

    def __init__(self, seed, out_dir):
        self.out_dir = out_dir

    def _csv(self, name):
        return os.path.join(self.out_dir, name, "trajectory.csv")

    def setup_jobs(self):
        return [(name, {}) for name, *_ in PRESETS]

    def _simulate_all(self):
        codes = [run_cli(["simulate", "--config", name, "--out", os.path.dirname(self._csv(name))])
                 for name, *_ in PRESETS]
        return max(codes, key=abs)

    def round(self):
        return [("presets", self._simulate_all)]

    def digest(self, label):
        return "".join(body_digest(self._csv(name)) for name, *_ in PRESETS)

    def check(self, label):
        import checks

        problems = []
        for name, system, j0, total_time, dt in PRESETS:
            meta, cols = checks.read_csv(self._csv(name))
            found = check_preamble(meta, {"J0": j0, "T": total_time, "dt": dt})
            found += checks.check_time_column(cols, total_time,
                                              math.ceil(total_time / dt - 1e-9) + 1)
            if not found:
                states = checks.exact_states(system, j0, total_time, cols["t"])
                found += checks.check_trajectory(cols, system, j0, total_time, states)
            problems += [f"{name}: {problem}" for problem in found]
        return problems


WORKLOADS = {
    "fig3d_ensemble": fig3d_ensemble,
    "fig4b_ensemble": fig4b_ensemble,
    "memory_kernel": MemoryKernelWorkload,
    "noise_free_presets": NoiseFreePresetsWorkload,
}
