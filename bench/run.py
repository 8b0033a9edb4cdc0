"""End-to-end benchmark of the `cnls` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it needs `src/cnls`.  Every
command is a fresh `python -m cnls.cli` process with `src` on the path, run
one after another with BLAS pinned to one thread, as a user would run them.
A run times one cold `cnls --help` process (`setup_s`), draws the workload's
inputs from the seed, computes the references its outputs are checked
against, then repeats whole rounds of the workload's commands for about S
seconds and checks every round's outputs.

With `--trace 0` it prints the end-to-end metrics: `setup_s`, the median
round time `wall_s` and the largest resident memory of any command process
`peak_rss_mb`.  With `--trace 1` it alternates plain rounds with rounds in
which each command runs under `tracer.py`, and prints the per-layer metrics
from the spans.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import VERIFY_CHECKS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COMMAND_TIMEOUT = 150.0  # seconds; no single command comes near it

# per-layer metrics read from the span totals: (layer function, statistic)
SPAN_METRICS = [
    ("numerics.integrate_halfline", "calls"), ("numerics.integrate_halfline", "self_s"),
    ("numerics.find_root", "calls"), ("numerics.find_root", "self_s"),
    ("moments.moment_closed", "calls"),
    ("moments.moment_quadrature", "calls"), ("moments.moment_quadrature", "self_s"),
    ("waves.greens_value", "calls"), ("waves.greens_value", "self_s"),
    ("waves.soliton_profile", "self_s"),
    ("spectrum.classify", "calls"), ("spectrum.classify", "self_s"),
    ("spectrum.unstable_eigenvalue", "self_s"),
    ("spectrum.eigen_determinant", "calls"), ("spectrum.eigen_determinant", "self_s"),
    ("spectrum.bound_state", "self_s"),
    ("spectrum.oracle_unstable_eigenvalue", "self_s"),
    ("spectrum.discrete_eigen_determinant", "calls"),
    ("spectrum.discrete_eigen_determinant", "self_s"),
    ("spectrum.secular_eigenvalues", "self_s"),
    ("variational.petviashvili_solve", "calls"),
    ("variational.petviashvili_solve", "self_s"),
    ("dynamics.step", "calls"), ("dynamics.step", "self_s"),
    ("dynamics.discrete_energy", "calls"), ("dynamics.discrete_energy", "self_s"),
    ("dynamics.modulated_distance", "self_s"),
] + [("verify.check_" + name.replace("-", "_"), stat)
      for name in VERIFY_CHECKS for stat in ("self_s", "total_s")]


def metric_name(func: str, stat: str) -> str:
    if func.startswith("verify.check_"):
        func = "verify." + func[len("verify.check_"):].replace("_", "-")
    return f"{func}.{stat}"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_command(args: list[str], trace_file: Path | None = None):
    """Run one `cnls` command; return (exit code, wall seconds, stdout)."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "cnls.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_file), "--", *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=COMMAND_TIMEOUT)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        sys.stderr.write(f"command timed out: {' '.join(args)}\n")
        return -1, time.perf_counter() - t0, ""
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(f"command failed ({proc.returncode}): {' '.join(args)}\n"
                         f"{proc.stderr}")
    return proc.returncode, wall, proc.stdout


class Round:
    """One pass over the workload's commands, timed as a whole."""

    def __init__(self, workload, out: Path, trace_dir: Path | None = None):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        self.commands = workload.commands(out)
        self.walls, self.failed = [], 0
        self.trace_files = []
        t0 = time.perf_counter()
        for i, args in enumerate(self.commands):
            trace_file = None if trace_dir is None else trace_dir / f"{i}.npz"
            code, wall, _ = run_command(args, trace_file)
            self.walls.append(wall)
            self.failed += code != 0
            self.trace_files.append(trace_file)
        self.wall = time.perf_counter() - t0
        # outputs of a failed command may be missing; failures are counted
        self.problems = workload.check(out) if self.failed == 0 else []


def span_totals(trace_files, walls) -> dict:
    """Calls, self time and inclusive time per span name, summed over one
    traced round, plus the result counts and `cli.process_s`."""
    totals = {"process_s": 0.0, "counts": {}}
    for path, wall in zip(trace_files, walls):
        with np.load(path) as d:
            names, nid, parent = list(d["names"]), d["name_id"], d["parent"]
            dur = d["end"] - d["start"]
            for name, value in zip(d["count_names"], d["count_values"]):
                totals["counts"][str(name)] = totals["counts"].get(str(name), 0) + int(value)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(names)
        calls = np.bincount(nid, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        for i, name in enumerate(names):
            c, o, t = totals.get(str(name), (0, 0.0, 0.0))
            totals[str(name)] = (c + int(calls[i]), o + float(own[i]), t + float(incl[i]))
        totals["process_s"] += wall - float(dur[~has_parent].sum())
    return totals


def layer_metrics(workload, plain: list[Round], traced: list[dict],
                  traced_walls: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced rounds, and the problems found by
    cross-checking span counts against totals known from the inputs."""
    def stat(func, which):
        vals = [t.get(func, (0, 0.0, 0.0))[which] for t in traced]
        return statistics.median(vals) if which else vals[-1]

    columns = {"calls": (0, "count"), "self_s": (1, "s"), "total_s": (2, "s")}
    metrics = {}
    for func, kind in SPAN_METRICS:
        which, unit = columns[kind]
        metrics[metric_name(func, kind)] = (stat(func, which), unit)
    last = traced[-1]
    sweeps = last["counts"].get("variational.petviashvili_solve", 0)
    roots = last["counts"].get("spectrum.unstable_eigenvalue", 0)
    metrics["variational.petviashvili_solve.sweeps"] = (sweeps, "count")
    d_calls = stat("spectrum.eigen_determinant", 0)
    metrics["spectrum.eigen_determinant.calls_per_root"] = (
        d_calls / roots if roots else 0.0, "count")
    steps = stat("dynamics.step", 0)
    step_time = stat("dynamics.step", 2)
    metrics["dynamics.steps_per_s"] = (steps / step_time if steps else 0.0, "1/s")
    samples = workload.samples()
    metrics["dynamics.discrete_energy.calls_per_sample"] = (
        stat("dynamics.discrete_energy", 0) / samples if samples else 0.0, "count")
    metrics["cli.process_s"] = (
        statistics.median(t["process_s"] for t in traced), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(r.wall for r in plain), "s")

    problems = []
    for name, want in workload.totals().items():
        got = [t.get(name.removesuffix(".calls"), (0,))[0] for t in traced]
        if any(g != want for g in got):
            problems.append(f"cross-check: {name} = {got}, inputs give {want}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "cnls" / "cli.py").is_file():
        sys.stderr.write(f"no cnls sources under {ROOT / 'src'}\n")
        return 2

    # cold set-up: interpreter start, package import, argument parsing
    code, setup_s, text = run_command(["--help"])
    attempted, failed = 1, int(code != 0)
    problems = [] if code != 0 or "stability-map" in text else ["--help lists no commands"]

    workload = WORKLOADS[args.workload](args.seed)
    run_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload.prepare(run_dir)

    plain: list[Round] = []
    traced: list[dict] = []
    traced_walls: list[float] = []
    t_start = time.perf_counter()
    while True:
        rounds = [Round(workload, run_dir / "out")]
        plain.append(rounds[0])
        if args.trace:
            trace_dir = run_dir / "trace"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
            rounds.append(Round(workload, run_dir / "out", trace_dir))
            traced_walls.append(rounds[1].wall)
            if rounds[1].failed == 0:
                traced.append(span_totals(rounds[1].trace_files, rounds[1].walls))
        for r in rounds:
            attempted += len(r.commands)
            failed += r.failed
            problems += r.problems
        per_pass = statistics.median(r.wall for r in plain)
        if traced_walls:
            per_pass += statistics.median(traced_walls)
        if time.perf_counter() - t_start + per_pass > args.seconds:
            break

    if args.trace:
        if traced:
            metrics, cross = layer_metrics(workload, plain, traced, traced_walls)
            problems += cross
        else:
            metrics = {}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {"setup_s": (setup_s, "s"),
                   "wall_s": (statistics.median(r.wall for r in plain), "s"),
                   "peak_rss_mb": (peak_kb / 1024.0, "MB")}

    sys.stderr.write(f"{args.workload} seed {args.seed}: plain rounds "
                     + " ".join(f"{r.wall:.3f}s" for r in plain)
                     + ("; traced " + " ".join(f"{w:.3f}s" for w in traced_walls)
                        if traced_walls else "") + "\n")
    for p in problems:
        sys.stderr.write(f"incorrect: {p}\n")
    if not problems and failed == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
