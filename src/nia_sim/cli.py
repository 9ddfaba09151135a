"""Command-line front end: run simulations, ensembles, sweeps, diagnostics.

Usage: nia-sim <mode> --config <file-or-preset> [--set key=value ...]
                [--seed S] [--out DIR]

Every run goes through `evolve.evolve_stepwise`: a single trajectory with
noise realization 0, or a whole ensemble in one batched call that
propagates all members together.  Outputs are CSV files with a
`#`-prefixed metadata preamble (config hash, all effective parameters,
seeds); the body below the header row is byte-reproducible given the same
config.  Exit codes: 0 success, 1 usage error, 2 numeric failure, 3
check-mode threshold failure.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import evolve, kernel, metrics, model
from .config import (ConfigError, RunConfig, blocking, config_hash, effective_items,
                     load_config, runs, validate)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_THRESHOLD = 3

# kernel.ResolutionError and metrics.GridMismatchError are ValueErrors, and
# FloatingPointError (a non-finite noise sum or result) an ArithmeticError.
_NUMERIC_ERRORS = (evolve.NumericEvolutionError, ValueError, ArithmeticError)


def _noise_realization(cfg: RunConfig, index: int):
    spec = cfg.noise_spec()
    return None if spec is None else model.realize_noise(spec, index)


def _evolution_config(cfg: RunConfig) -> evolve.EvolutionConfig:
    return evolve.EvolutionConfig(dt=cfg.dt, store_every=cfg.store_every)


def _simulate(cfg: RunConfig) -> metrics.Trajectory:
    """One trajectory of the configured run, with noise realization 0."""
    return evolve.evolve_stepwise(cfg.schedule(), _noise_realization(cfg, 0),
                                  _evolution_config(cfg), cfg.initial_vector())


def _run_ensemble(cfg: RunConfig) -> metrics.EnsembleSummary:
    """Mean and standard error over every member, propagated together in one call."""
    noises = [_noise_realization(cfg, i) for i in range(cfg.realizations)]
    return metrics.aggregate(evolve.evolve_stepwise(cfg.schedule(), noises,
                                                    _evolution_config(cfg), cfg.initial_vector()))


def _preamble(cfg: RunConfig, mode: str, extra: dict | None = None) -> list[str]:
    lines = [f"# nia-sim {mode}", f"# config_hash = {config_hash(cfg)}"]
    if cfg.timestamps:
        lines.append(f"# generated = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
    items = [*effective_items(cfg), *(extra or {}).items()]
    return lines + [f"# {key} = {value}" for key, value in items]


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _write_rows(path: str, preamble: list[str], header: list[str], rows) -> None:
    """Write a CSV file; a non-finite value is refused before the file is opened."""
    rows = [[float(x) for x in row] for row in rows]
    if not np.isfinite(rows).all():
        row, col = np.argwhere(~np.isfinite(rows))[0]
        raise FloatingPointError(f"non-finite {header[col]} in row {row} of"
                                 f" {os.path.basename(path)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in preamble:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_trajectory(path: str, cfg: RunConfig, traj: metrics.Trajectory,
                     mode: str = "simulate") -> None:
    header = ["t", *metrics.METRIC_NAMES]
    rows = zip(traj.times, *(traj.metric(name) for name in metrics.METRIC_NAMES))
    _write_rows(path, _preamble(cfg, mode), header, rows)


def write_summary(path: str, cfg: RunConfig, summary: metrics.EnsembleSummary,
                  mode: str = "ensemble") -> None:
    header = ["t"]
    cols = [summary.times]
    for name in metrics.METRIC_NAMES:
        header += [f"mean_{name}", f"se_{name}"]
        cols += [summary.mean[name], summary.se[name]]
    extra = {"realizations": summary.m,
             "seeds": " ".join(str(s) for s in summary.meta.get("seeds", []))}
    _write_rows(path, _preamble(cfg, mode, extra), header, zip(*cols))


def _mode_simulate(cfg: RunConfig, out_dir: str) -> int:
    traj = _simulate(cfg)
    write_trajectory(os.path.join(out_dir, "trajectory.csv"), cfg, traj)
    print(f"simulate: final pop0 = {traj.pop0[-1]:.6f}, pop1 = {traj.pop1[-1]:.6f}")
    return EXIT_OK


def _mode_ensemble(cfg: RunConfig, out_dir: str) -> int:
    summary = _run_ensemble(cfg)
    write_summary(os.path.join(out_dir, "ensemble.csv"), cfg, summary)
    print(f"ensemble: M = {summary.m}, final mean pop0 = "
          f"{summary.mean['pop0'][-1]:.6f} (se {summary.se['pop0'][-1]:.2g})")
    return EXIT_OK


def _mode_sweep(cfg: RunConfig, out_dir: str) -> int:
    param = cfg.sweep_parameter
    base_hash = config_hash(cfg, exclude=(param,))
    summary_rows = []
    for i, (value, sub) in enumerate(zip(cfg.sweep_values, runs(cfg))):
        if config_hash(sub, exclude=(param,)) != base_hash:
            raise RuntimeError("sweep touched a non-swept parameter")
        member_path = os.path.join(out_dir, f"sweep_{i:03d}.csv")
        if sub.members > 1:
            summary = _run_ensemble(sub)
            write_summary(member_path, sub, summary, mode="sweep")
            finals = [summary.mean[name][-1] for name in metrics.METRIC_NAMES[:4]]
        else:
            traj = _simulate(sub)
            write_trajectory(member_path, sub, traj, mode="sweep")
            finals = [traj.metric(name)[-1] for name in metrics.METRIC_NAMES[:4]]
        summary_rows.append([value, *finals])
    header = [param.replace(".", "_"), "final_pop0", "final_pop1",
              "final_im_coherence", "final_fidelity_e0"]
    extra = {"sweep_base_hash": base_hash}
    _write_rows(os.path.join(out_dir, "sweep_summary.csv"),
                _preamble(cfg, "sweep", extra), header, summary_rows)
    print(f"sweep: {len(cfg.sweep_values)} values of {param} written")
    return EXIT_OK


def _mode_kernel(cfg: RunConfig, out_dir: str) -> int:
    schedule = cfg.schedule()
    memory = kernel.solve_memory_equation(schedule, _noise_realization(cfg, 0),
                                          cfg.kernel_points)
    psi0 = memory.psi0
    # The kernel phase vanishes on the diagonal: |g(t, t)| = c01(t)^2.
    c01 = kernel.coupling_elements(schedule, memory.times).c01
    rows = zip(memory.times, np.abs(psi0) ** 2, psi0.real, psi0.imag,
               memory.defect, c01 ** 2)
    header = ["t", "psi0_abs2", "psi0_re", "psi0_im", "defect", "kernel_mod_diag"]
    _write_rows(os.path.join(out_dir, "kernel.csv"), _preamble(cfg, "kernel"),
                header, rows)
    print(f"kernel: max defect = {kernel.max_defect(memory):.6g}, "
          f"|psi0(T)|^2 = {abs(memory.psi0[-1]) ** 2:.6f}")
    return EXIT_OK


def _mode_pulse_export(cfg: RunConfig, out_dir: str) -> int:
    schedule = cfg.schedule()
    steps = evolve.decompose_pulse(schedule, _noise_realization(cfg, 0),
                                   _evolution_config(cfg))
    path = os.path.join(out_dir, "pulses.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in _preamble(cfg, "pulse-export"):
            fh.write(line + "\n")
        fh.write("# t_start\tduration\txy_amplitude\txy_phase\tz_angle\n")
        t_start = 0.0
        for step in steps:
            fields = (t_start, step.duration, step.xy_amplitude,
                      step.xy_phase, step.z_angle)
            fh.write("\t".join(_fmt(x) for x in fields) + "\n")
            t_start += step.duration
    print(f"pulse-export: {len(steps)} steps written to {path}")
    return EXIT_OK


def _infidelity(a, b) -> float:
    return abs(1.0 - abs(np.vdot(a, b)) ** 2)


def _mode_oracle_check(cfg: RunConfig, out_dir: str) -> int:
    schedule = cfg.schedule()
    noise = _noise_realization(cfg, 0)
    ecfg = _evolution_config(cfg)
    initial = cfg.initial_vector()
    final_step = evolve.final_state_stepwise(schedule, noise, ecfg, initial)
    final_orc = evolve.final_state_oracle(schedule, noise, ecfg, initial)
    inf = _infidelity(final_step, final_orc)
    bound = 1e-6 if noise is None else 1e-4
    verdict = "PASS" if inf < bound else "FAIL"
    line = f"oracle-check: infidelity = {inf:.3e} (bound {bound:.0e}) {verdict}"
    print(line)
    with open(os.path.join(out_dir, "oracle_check.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(_preamble(cfg, "oracle-check")) + "\n" + line + "\n")
    return EXIT_OK if inf < bound else EXIT_THRESHOLD


def _mode_spectator_check(cfg: RunConfig, out_dir: str) -> int:
    base, embedded = (_simulate(run) for run in runs(cfg))
    err = metrics.spectator_error(base, embedded)
    verdict = "PASS" if err < 0.01 else "FAIL"
    line = (f"spectator-check: max relative pop0 error = {err:.4%} "
            f"(J12 = {cfg.j12:g}, bound 1%) {verdict}")
    print(line)
    with open(os.path.join(out_dir, "spectator_check.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(_preamble(cfg, "spectator-check")) + "\n" + line + "\n")
    return EXIT_OK if err < 0.01 else EXIT_THRESHOLD


_MODE_RUNNERS = {
    "simulate": _mode_simulate,
    "ensemble": _mode_ensemble,
    "sweep": _mode_sweep,
    "kernel": _mode_kernel,
    "pulse-export": _mode_pulse_export,
    "oracle-check": _mode_oracle_check,
    "spectator-check": _mode_spectator_check,
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="nia-sim",
        description="Noise-induced adiabaticity simulations for driven qubits.")
    parser.add_argument("mode", choices=sorted(_MODE_RUNNERS))
    parser.add_argument("--config", required=True,
                        help="config file path or preset name (fig3a ... fig4b)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key")
    parser.add_argument("--seed", type=int, default=None,
                        help="override noise.seed")
    parser.add_argument("--out", default=None, help="output directory")
    return parser.parse_args(argv)


def run(cfg: RunConfig) -> int:
    """Validated dispatch: a refused config exits 1 before anything is written."""
    violations = validate(cfg)
    bad = blocking(violations)
    if bad:
        print(f"nia-sim: config error: {'; '.join(bad)}", file=sys.stderr)
        return EXIT_USAGE
    for warning in violations:  # nothing blocks, so every entry is a warning
        print(warning, file=sys.stderr)
    out_dir = cfg.out or "."
    os.makedirs(out_dir, exist_ok=True)
    return _MODE_RUNNERS[cfg.mode](cfg, out_dir)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    overrides = {}
    for item in args.set:
        if "=" not in item:
            print(f"nia-sim: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return EXIT_USAGE
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    overrides["mode"] = args.mode
    if args.seed is not None:
        overrides["noise.seed"] = str(args.seed)
    if args.out is not None:
        overrides["out"] = args.out
    try:
        cfg = load_config(args.config, overrides)
        return run(cfg)
    except ConfigError as exc:
        print(f"nia-sim: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"nia-sim: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
