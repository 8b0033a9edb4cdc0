"""Command-line surface: every module exposed with reproducible file-based
outputs.

Exit codes: 0 success; 2 when an input lies outside the model's or the
command's range (a DomainError, or a flag argparse rejects); 1 for any other
failure, numerical or an invariant check.  CSV bodies use 17-significant-digit
decimals so identical flags produce byte-identical files; each --out run
writes a manifest.json next to its data.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import Perturbation, SimConfig, run_experiment
from .moments import (PhysParams, moment_closed, moment_printed,
                      moment_quadrature)
from .numerics import DomainError, _map_jobs
from .spectrum import classify
from .variational import convergence_study
from .waves import (pohozaev_check, sobolev_constant,
                    sobolev_constant_printed_check, soliton_profile)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _parse_range(text: str) -> np.ndarray:
    """Inclusive range `lo:hi:count`."""
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
    return np.linspace(lo, hi, count)


def _params_from(args) -> PhysParams:
    return PhysParams(n=args.n, s=args.s, omega=args.omega,
                      sigma=getattr(args, "sigma", 1.0))


def _write_manifest(out_dir: Path, command: str, parameters: dict,
                    outputs: list[str], summary: dict) -> None:
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


def _emit(args, command: str, rows: list[dict], header: list[str],
          parameters: dict, summary: dict, basename: str) -> None:
    """Write rows as CSV or JSON to --out (plus manifest) or stdout."""
    if args.format == "json":
        body = json.dumps({"rows": rows, "summary": summary},
                          indent=2, default=float) + "\n"
        fname = f"{basename}.json"
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(r[h]) for h in header) for r in rows]
        body = "\n".join(lines) + "\n"
        fname = f"{basename}.csv"
    _write(args, command, fname, body, parameters, summary)


def _require_csv(args, command: str) -> None:
    """Reject --format json for a command that has only its one output."""
    if args.format != "csv":
        raise DomainError(f"{command} has no --format {args.format} output")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
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
    p = _params_from(args)
    radii = _parse_range(args.r_range)
    if radii[0] != 0.0:
        radii = np.concatenate([[0.0], radii])
    prof = soliton_profile(radii, p)
    rows = [{"r": r, "phi": v} for r, v in zip(prof.radii, prof.values)]
    summary = {"center_value": prof.center_value, "samples": len(rows)}
    _emit(args, "profile", rows, ["r", "phi"], vars_of(args), summary,
          "profile")
    return 0


def cmd_pohozaev(args) -> int:
    p = _params_from(args)
    rep = pohozaev_check(p, use_quadrature=args.quadrature)
    rows = [{"quantity": k, "value": v}
            for k, v in dataclasses.asdict(rep).items()]
    worst = max(rep.residual_mass_identity, rep.residual_seminorm_identity,
                rep.residual_energy_identity)
    summary = {"worst_residual": worst}
    _emit(args, "pohozaev", rows, ["quantity", "value"], vars_of(args),
          summary, "pohozaev")
    return 0 if worst < args.tol else 1


def cmd_spectrum(args) -> int:
    p = _params_from(args)
    rep = classify(p, want_unstable_lambda=not args.no_lambda)
    obj = dataclasses.asdict(rep)
    summary = {"classification": rep.classification}
    if args.format == "csv":
        rows = [{"field": k, "value": v} for k, v in obj.items()
                if k != "params"]
        _emit(args, "spectrum", rows, ["field", "value"], vars_of(args),
              summary, "spectrum")
    else:
        _write(args, "spectrum", "spectrum.json",
               json.dumps(obj, indent=2, default=float) + "\n",
               vars_of(args), summary)
    return 0


def _map_cell(task):
    n, s, sigma, omega, want_lambda = task
    p = PhysParams(n=n, s=s, omega=omega, sigma=sigma)
    rep = classify(p, want_unstable_lambda=want_lambda)
    return {"s": s, "sigma": sigma, "Q": rep.vk_quantity,
            "classification": rep.classification, "k_r": rep.k_r,
            "unstable_lambda": rep.unstable_lambda}


def cmd_stability_map(args) -> int:
    s_vals = _parse_range(args.s_range)
    sig_vals = _parse_range(args.sigma_range)
    if np.any(s_vals <= args.n / 2):
        raise DomainError(f"requires s > n/2 = {args.n / 2:g} across the range")
    tasks = [(args.n, float(s), float(sig), args.omega, args.with_lambda)
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


_SIM_KEYS = {"n": int, "s": float, "omega": float, "sigma": float,
             "half_length": float, "modes": int, "dt": float,
             "t_final": float, "eps": float, "shape": str, "seed": int,
             "sample_every": int}


def _parse_sim_config(path: str) -> dict:
    values = {}
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
        if key not in _SIM_KEYS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _SIM_KEYS[key](val)
        except ValueError:
            raise DomainError(f"{path}:{lineno}: bad value for {key}") from None
    return values


def _fields_of(cls, values: dict) -> dict:
    """The entries of values that name a field of the dataclass cls; the
    dataclass defaults stand for the fields the config file leaves out."""
    return {f.name: values[f.name] for f in dataclasses.fields(cls)
            if f.name in values}


def cmd_simulate(args) -> int:
    _require_csv(args, "simulate")
    if not args.out:
        raise DomainError("simulate requires --out <dir>")
    cfgv = _parse_sim_config(args.config)
    p = PhysParams(**{"n": 1, "s": 1.0, "omega": 1.0, "sigma": 1.0,
                      **_fields_of(PhysParams, cfgv)})
    cfg = SimConfig(params=p,
                    perturbation=Perturbation(**_fields_of(Perturbation, cfgv)),
                    **_fields_of(SimConfig, cfgv))

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
    _emit(args, "simulate", rows, header, cfgv, summary, "series")
    return 0


def cmd_verify(args) -> int:
    _require_csv(args, "verify")
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
                         "failed": sum(not r.passed for r in results)})
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


def _add_common(sub, sigma=True):
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--s", type=float, default=1.0)
    sub.add_argument("--omega", type=float, default=1.0)
    if sigma:
        sub.add_argument("--sigma", type=float, default=1.0)


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return x


def _global_flags(parser, top_level):
    # accepted both before and after the subcommand; SUPPRESS on the
    # subparser copy so its default cannot clobber a top-level value
    default = (lambda v: v) if top_level else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--format", choices=("csv", "json"),
                        default=default("csv"))
    parser.add_argument("--out", type=str, default=default(None))
    parser.add_argument("--jobs", type=int, default=default(1))
    parser.add_argument("--tol", type=_positive_float, default=default(1e-8),
                        help="tolerance of the residual gates (pohozaev "
                             "exits 1 above it); finite and > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cnls", description=__doc__)
    _global_flags(parser, top_level=True)
    common = _Parser(add_help=False)
    _global_flags(common, top_level=False)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: _Parser(
                                    parents=[common], **kw))

    c = sub.add_parser("constants", help="moment integrals and the sharp "
                                         "embedding constant")
    _add_common(c, sigma=False)
    c.set_defaults(func=cmd_constants, sigma=1.0)

    c = sub.add_parser("profile", help="sample the solitary-wave profile")
    _add_common(c)
    c.add_argument("--r-range", type=str, default="0:10:201")
    c.set_defaults(func=cmd_profile)

    c = sub.add_parser("pohozaev", help="identity residual report")
    _add_common(c)
    c.add_argument("--quadrature", action="store_true",
                   help="use the quadrature oracle instead of closed forms")
    c.set_defaults(func=cmd_pohozaev)

    c = sub.add_parser("spectrum", help="spectral stability report")
    _add_common(c)
    c.add_argument("--no-lambda", action="store_true",
                   help="skip the unstable-eigenvalue root search")
    c.set_defaults(func=cmd_spectrum)

    c = sub.add_parser("stability-map", help="classification sweep over "
                                             "(s, sigma)")
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--omega", type=float, default=1.0)
    c.add_argument("--s-range", type=str, required=True)
    c.add_argument("--sigma-range", type=str, required=True)
    c.add_argument("--with-lambda", action="store_true",
                   help="also solve for the unstable eigenvalue per cell")
    c.set_defaults(func=cmd_stability_map)

    c = sub.add_parser("variational", help="mollified minimization "
                                           "convergence study")
    _add_common(c)
    c.add_argument("--scales", type=str, default="4,8,16,32",
                   help="comma-separated mollifier scales N")
    c.set_defaults(func=cmd_variational)

    c = sub.add_parser("simulate", help="split-step time integration")
    c.add_argument("--config", type=str, required=True)
    c.set_defaults(func=cmd_simulate)

    c = sub.add_parser("verify", help="run the full invariant suite")
    c.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as e:  # input outside the model's or command's range
        sys.stderr.write(f"error: {e}\n")
        return 2
    except Exception as e:  # any other failure: numerical or invariant
        sys.stderr.write(f"failure: {type(e).__name__}: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
