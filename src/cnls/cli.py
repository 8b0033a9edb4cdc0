"""Command-line surface: every module exposed with reproducible file-based
outputs.

Exit codes: 0 success; 2 when an input lies outside the model's or the
command's range (a DomainError, or a flag argparse rejects); 1 when the
computation on valid input fails (any other NumericsError: no convergence,
no root bracket, a value beyond the float range) or an invariant check
fails.  An exception the package does not raise also exits 1, and its
message says it was unexpected.  CSV bodies use 17-significant-digit
decimals so identical flags produce byte-identical files; each --out run
writes a manifest.json next to its data.
"""

from __future__ import annotations

import argparse
import math
import numbers
import sys
import time
from pathlib import Path

# The closed-form commands (stability-map, spectrum, pohozaev without
# --quadrature) and profile run on `math` alone: the modules below import
# numpy inside the functions that build arrays.  Each command imports the
# layers it runs: spectrum and waves load inside the commands that use
# them, and the array-only modules (dynamics, variational, verify) inside
# the commands that run them.  None of the records of moments, spectrum and
# waves is a dataclass, so only simulate, variational and verify load
# `dataclasses`.  `json` and `datetime` load only where JSON or a manifest
# is written.
from . import __version__
from .moments import (PhysParams, moment_closed, moment_printed,
                      moment_quadrature, sobolev_constant)
from .numerics import DomainError, NumericsError, _linspace, _map_jobs


def __getattr__(name):
    # `cnls.cli.classify` is still read as an attribute (the tracer test in
    # bench/), so it resolves on first access (PEP 562)
    if name != "classify":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .spectrum import classify
    return classify


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, numbers.Integral):
        return str(int(x))
    return f"{float(x):.17g}"


def _parse_range(text: str) -> list[float]:
    """Inclusive range `lo:hi:count`: the values of numpy's
    linspace(lo, hi, count), formed by the same float operations.  A span
    hi - lo beyond the float range is rejected, not spread into inf and
    NaN values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"range must be lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise DomainError(f"bad range {text!r}: {e}") from None
    if (not (math.isfinite(lo) and math.isfinite(hi)) or count < 1
            or (count == 1 and lo != hi) or hi < lo):
        raise DomainError(f"bad range {text!r}")
    if not math.isfinite(hi - lo):
        raise DomainError(f"bad range {text!r}: the span hi - lo overflows")
    return _linspace(lo, hi, count)


def _asdict(record) -> dict:
    """A NamedTuple record as a dict, with each nested record a dict too."""
    return {k: _asdict(v) if hasattr(v, "_asdict") else v
            for k, v in record._asdict().items()}


def _params_from(args) -> PhysParams:
    return PhysParams(n=args.n, s=args.s, omega=args.omega, sigma=args.sigma)


def _write_manifest(out_dir: Path, command: str, parameters: dict,
                    outputs: list[str], summary: dict) -> None:
    import datetime
    import json
    manifest = {
        "command": command,
        "parameters": parameters,
        "code_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
        "summary": summary,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, default=float) + "\n")


def _write(args, command: str, fname: str, body: str, parameters: dict,
           summary: dict) -> None:
    """Write body to --out/fname (plus manifest) or to stdout."""
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / fname).write_text(body)
        _write_manifest(out_dir, command, parameters, [fname], summary)
    else:
        sys.stdout.write(body)


def _csv(rows: list[dict], header: list[str]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(r[h]) for h in header) for r in rows]
    return "\n".join(lines) + "\n"


def _emit(args, command: str, rows: list[dict], header: list[str],
          parameters: dict, summary: dict, basename: str) -> None:
    """Write rows as CSV or JSON to --out (plus manifest) or stdout."""
    if args.format == "json":
        import json
        body = json.dumps({"rows": rows, "summary": summary},
                          indent=2, default=float) + "\n"
        fname = f"{basename}.json"
    else:
        body, fname = _csv(rows, header), f"{basename}.csv"
    _write(args, command, fname, body, parameters, summary)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    from .waves import sobolev_constant_printed_check
    p = _params_from(args)
    closed = [moment_closed(j, p) for j in (1.0, 2.0, 3.0)]
    quad = [moment_quadrature(j, p) for j in (1.0, 2.0, 3.0)]
    corrected, printed = sobolev_constant_printed_check(p.n, p.s)
    rows = [
        {"quantity": "m1_closed", "value": closed[0]},
        {"quantity": "m2_closed", "value": closed[1]},
        {"quantity": "m3_closed", "value": closed[2]},
        {"quantity": "m1_quadrature", "value": quad[0]},
        {"quantity": "m2_quadrature", "value": quad[1]},
        {"quantity": "m3_quadrature", "value": quad[2]},
        {"quantity": "m1_as_printed", "value": moment_printed(1, p)},
        {"quantity": "c2", "value": sobolev_constant(p)},
        {"quantity": "c2_formula_corrected_omega1", "value": corrected},
        {"quantity": "c2_formula_as_printed_omega1", "value": printed},
    ]
    summary = {"m1": closed[0], "c2": sobolev_constant(p)}
    _emit(args, "constants", rows, ["quantity", "value"],
          vars_of(args), summary, "constants")
    return 0


def cmd_profile(args) -> int:
    from .waves import soliton_profile
    p = _params_from(args)
    radii = _parse_range(args.r_range)
    if radii[0] != 0.0:
        radii = [0.0] + radii
    prof = soliton_profile(radii, p)
    rows = [{"r": r, "phi": v} for r, v in zip(prof.radii, prof.values)]
    summary = {"center_value": prof.center_value, "samples": len(rows)}
    _emit(args, "profile", rows, ["r", "phi"], vars_of(args), summary,
          "profile")
    return 0


def cmd_pohozaev(args) -> int:
    from .waves import pohozaev_check
    p = _params_from(args)
    rep = pohozaev_check(p, use_quadrature=args.quadrature)
    rows = [{"quantity": k, "value": v} for k, v in rep._asdict().items()]
    worst = max(rep.residual_mass_identity, rep.residual_seminorm_identity,
                rep.residual_energy_identity)
    summary = {"worst_residual": worst}
    _emit(args, "pohozaev", rows, ["quantity", "value"], vars_of(args),
          summary, "pohozaev")
    return 0 if worst < args.tol else 1


def cmd_spectrum(args) -> int:
    from .spectrum import classify
    p = _params_from(args)
    rep = classify(p, want_unstable_lambda=not args.no_lambda)
    obj = _asdict(rep)
    summary = {"classification": rep.classification}
    if args.format == "csv":
        rows = [{"field": k, "value": v} for k, v in obj.items()
                if k != "params"]
        _emit(args, "spectrum", rows, ["field", "value"], vars_of(args),
              summary, "spectrum")
    else:
        import json
        _write(args, "spectrum", "spectrum.json",
               json.dumps(obj, indent=2, default=float) + "\n",
               vars_of(args), summary)
    return 0


def _map_cell(task):
    from .spectrum import classify
    n, s, sigma, omega, want_lambda = task
    p = PhysParams(n=n, s=s, omega=omega, sigma=sigma)
    rep = classify(p, want_unstable_lambda=want_lambda)
    return {"s": s, "sigma": sigma, "Q": rep.vk_quantity,
            "classification": rep.classification, "k_r": rep.k_r,
            "unstable_lambda": rep.unstable_lambda}


def cmd_stability_map(args) -> int:
    s_vals = _parse_range(args.s_range)
    sig_vals = _parse_range(args.sigma_range)
    if any(s <= args.n / 2 for s in s_vals):
        raise DomainError(f"requires s > n/2 = {args.n / 2:g} across the range")
    tasks = [(args.n, s, sig, args.omega, args.with_lambda)
             for s in s_vals for sig in sig_vals]
    rows = _map_jobs(_map_cell, tasks, args.jobs, chunksize=16)
    counts = {}
    for r in rows:
        counts[r["classification"]] = counts.get(r["classification"], 0) + 1
    _emit(args, "stability-map", rows,
          ["s", "sigma", "Q", "classification", "k_r", "unstable_lambda"],
          vars_of(args), {"cells": len(rows), **counts}, "stability_map")
    return 0


def cmd_variational(args) -> int:
    from .variational import convergence_study
    try:
        scales = [float(t) for t in args.scales.split(",")]
    except ValueError as e:
        raise DomainError(f"bad --scales: {e}") from None
    p = _params_from(args)
    rows = convergence_study(p, scales, jobs=args.jobs)
    gaps = [r["gap"] for r in rows]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    _emit(args, "variational", rows,
          ["N", "m_N", "gap", "iterations", "residual"], vars_of(args),
          {"gap_monotone_decreasing": monotone, "c2": sobolev_constant(p)},
          "variational")
    return 0


def _sim_keys() -> dict:
    """A simulate config sets SimConfig's fields, each parsed as its
    default's type."""
    import dataclasses

    from .dynamics import SimConfig
    return {f.name: type(f.default) for f in dataclasses.fields(SimConfig)}


def _parse_sim_config(path: str) -> dict:
    keys, values, set_on = _sim_keys(), {}, {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise DomainError(f"cannot read config: {e}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected `key = value`")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in keys:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise DomainError(f"{path}:{lineno}: key {key!r} already set on "
                              f"line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = keys[key](val)
        except ValueError:
            raise DomainError(f"{path}:{lineno}: bad value for {key}") from None
    return values


def cmd_simulate(args) -> int:
    import numpy as np

    from .dynamics import SimConfig, run_experiment
    if not args.out:
        raise DomainError("simulate requires --out <dir>")
    cfgv = _parse_sim_config(args.config)
    cfg = SimConfig(**cfgv)

    start = time.perf_counter()
    series = run_experiment(cfg)
    seconds = time.perf_counter() - start
    header = ["t", "mass_drift", "energy_drift", "center_modulus",
              "mod_distance"]
    columns = (series.times, series.mass_drift, series.energy_drift,
               series.center_modulus, series.mod_distance)
    rows = [dict(zip(header, values)) for values in zip(*columns)]
    summary = {
        "max_mass_drift": float(np.nanmax(series.mass_drift)),
        "max_mod_distance": float(np.max(series.mod_distance)),
        # the last row is at t_final, or at the step that blew up
        "steps_per_s": round(series.times[-1] / cfg.dt) / seconds,
    }
    if series.growth_rate is not None:
        summary["growth_rate"] = series.growth_rate
    if series.blow_up_time is not None:
        summary["blow_up_time"] = series.blow_up_time
    _write(args, "simulate", "series.csv", _csv(rows, header), cfgv, summary)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all
    results = run_all(jobs=args.jobs)
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    body = "\n".join(lines) + "\n"
    sys.stdout.write(body)
    all_ok = all(r.passed for r in results)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "verify.txt").write_text(body)
        _write_manifest(out_dir, "verify", vars_of(args), ["verify.txt"],
                        {"passed": sum(r.passed for r in results),
                         "failed": sum(not r.passed for r in results),
                         "seconds": {r.name: r.seconds for r in results}})
    if not all_ok:
        failing = [r.name for r in results if not r.passed]
        sys.stderr.write(f"invariant failure: {', '.join(failing)}\n")
        return 1
    return 0


def vars_of(args) -> dict:
    return {k: v for k, v in vars(args).items()
            if k not in ("func",) and v is not None}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 already, but with a usage dump; one line instead
        self.exit(2, f"error: {message}\n")


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return x


# every flag, declared once; each command below names the flags it reads
_FLAGS = {
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(help="write the output and a manifest.json to this dir"),
    "--jobs": dict(type=int, default=1, help="worker processes (>= 1)"),
    "--tol": dict(type=_positive_float, default=1e-8,
                  help="exit 1 when a residual reaches TOL (finite, > 0)"),
    "--n": dict(type=int, default=1),
    "--s": dict(type=float, default=1.0),
    "--omega": dict(type=float, default=1.0),
    "--sigma": dict(type=float, default=1.0),
    "--r-range": dict(default="0:10:201"),
    "--quadrature": dict(action="store_true", help="use the quadrature "
                         "oracle instead of closed forms"),
    "--no-lambda": dict(action="store_true",
                        help="skip the unstable-eigenvalue root search"),
    "--s-range": dict(required=True),
    "--sigma-range": dict(required=True),
    "--with-lambda": dict(action="store_true", help="also solve for the "
                          "unstable eigenvalue per cell"),
    "--scales": dict(default="4,8,16,32",
                     help="comma-separated mollifier scales N"),
    "--config": dict(required=True),
}
_PARAMS = "--n --s --omega --sigma"


def _command(sub, name, func, about, flags, **defaults):
    c = sub.add_parser(name, help=about)
    for flag in flags.split():
        c.add_argument(flag, **_FLAGS[flag])
    c.set_defaults(func=func, **defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cnls", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    _command(sub, "constants", cmd_constants, "moment integrals and the "
             "sharp embedding constant", "--format --out --n --s --omega",
             sigma=1.0)  # M_j and c^2 do not depend on sigma
    _command(sub, "profile", cmd_profile, "sample the solitary-wave profile",
             f"--format --out {_PARAMS} --r-range")
    _command(sub, "pohozaev", cmd_pohozaev, "identity residual report",
             f"--format --out --tol {_PARAMS} --quadrature")
    _command(sub, "spectrum", cmd_spectrum, "spectral stability report",
             f"--format --out {_PARAMS} --no-lambda")
    _command(sub, "stability-map", cmd_stability_map, "classification sweep "
             "over (s, sigma)", "--format --out --jobs --n --omega "
             "--s-range --sigma-range --with-lambda")
    _command(sub, "variational", cmd_variational, "mollified minimization "
             "convergence study", f"--format --out --jobs {_PARAMS} --scales")
    _command(sub, "simulate", cmd_simulate, "split-step time integration",
             "--out --config")
    _command(sub, "verify", cmd_verify, "run the full invariant suite",
             "--out --jobs")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser has no flags but -h: argparse would read a flag's
    # value as the command name ("invalid choice: '2'")
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        parser.error(f"{argv[0].partition('=')[0]} goes after the command "
                     "name: cnls COMMAND [flags]")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as e:  # input outside the model's or command's range
        sys.stderr.write(f"error: {e}\n")
        return 2
    except NumericsError as e:  # valid input, failed computation
        sys.stderr.write(f"failure: {type(e).__name__}: {e}\n")
        return 1
    except Exception as e:  # not raised by the package: I/O, or a defect
        sys.stderr.write(f"failure: unexpected {type(e).__name__}: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
