"""Command-line entry point: every experiment as a reproducible run.

Each subcommand writes a JSON report (report.json under --out) and prints
it to stdout; table-like results also land in a CSV next to it.  Reports
embed the tool version, the full flag configuration, the grid size, the
seed, and the tolerance constants in force, so a report is a complete
recipe for reproducing itself.  With --deterministic the timestamp is
omitted and two runs of the same configuration produce byte-identical
artifacts.

Exit codes: 0 on success, 2 on parameter or precondition problems
(including command-line syntax), 1 on violated invariants.

Infinite exponents are spelled `inf` on the command line and serialized
as the JSON string "inf".
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import control as ct
from . import covering as cov
from . import extremal as ex
from . import funcspace as fs
from . import gn
from . import norms
from .errors import (GnlabError, ParameterError, PreconditionError,
                     InvariantError)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


_TOLERANCES = {
    "relation_residual": gn.RESIDUAL_TOL,
    "quadrature_rtol": norms.QUADRATURE_RTOL,
    "balance": cov.BALANCE_TOL,
    "working_set_threshold": cov.DEFAULT_THRESHOLD,
    "terminal": ct.TERMINAL_TOL,
    "obstruction": ct.OBSTRUCTION_TOL,
}


def _config_echo(args) -> dict:
    skip = {"func", "command", "subcommand"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, command: str, payload, grid_n=None) -> int:
    report = {"tool": "gnlab", "version": __version__, "command": command,
              "config": _config_echo(args), "grid_n": grid_n,
              "seed": _resolve_seed(args),
              "tolerances": _TOLERANCES, "result": payload}
    if not args.deterministic:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, indent=2, sort_keys=True,
                      default=_json_default) + "\n"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(text)
    sys.stdout.write(text)
    return 0


def _write_csv(args, name: str, header, rows) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _parse_ks(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad ks list {text!r}: {exc}") from None


def _parse_reals(text: str, sep: str, fields: str) -> list:
    """The floats of text split at sep, one per field of fields (such as
    lo,hi for --omega), or a ParameterError."""
    parts = text.split(sep)
    try:
        if len(parts) != len(fields.split(sep)):
            raise ValueError(f"expected {fields}")
        return [float(part) for part in parts]
    except ValueError as exc:
        raise ParameterError(f"bad {fields} {text!r}: {exc}") from None


def _parse_eps_range(text: str, steps: int) -> np.ndarray:
    """start:end:count geometric range, e.g. 1e-2:1e-4:5; a count whose
    chain of `steps` steps is above the byte cap for any law is refused
    before the range is built."""
    start, end, count = _parse_reals(text, ":", "start:end:count")
    norms._finite("epsilon range bound", (start, end), positive=True)
    count = norms._count("epsilon range count", count, 1)
    ct.check_chain_size(steps, count, count + ct._LAW_GRID_ARRAYS)
    return np.geomspace(start, end, count)


def _resolve_seed(args) -> int:
    """--seed, else $GNLAB_SEED, else 0, as a count >= 0."""
    seed = args.seed
    if seed is None:
        seed = os.environ.get("GNLAB_SEED", "0")
    try:
        seed = int(seed)
    except ValueError:
        pass
    return norms._count("seed", seed, 0)


def _resolve_params(args) -> gn.GNParams:
    preset = getattr(args, "preset", None)
    if preset == "l12":
        return gn.l12_params()
    if preset == "l6":
        return gn.l6_params(args.k)
    if args.ks is None or args.j is None or args.m is None:
        raise ParameterError("give --preset or the full tuple --ks/--j/--m ...")
    kwargs = {"ks": _parse_ks(args.ks), "j": args.j, "m": args.m,
              "r": args.r, "q": args.q, "p": args.p, "theta": args.theta}
    missing = [k for k in ("p", "q", "theta") if kwargs[k] is None]
    if len(missing) == 1:
        return gn.solve_exponent(**kwargs)
    if missing:
        raise ParameterError(f"underdetermined tuple; missing {missing}")
    return gn.GNParams(kwargs["p"], kwargs["q"], kwargs["r"], kwargs["ks"],
                       kwargs["j"], kwargs["m"], kwargs["theta"])


def _corpus_selection(name: str):
    if name == "all":
        return fs.standard_corpus()
    return [(name, fs.corpus_function(name))]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_params(args) -> int:
    params = _resolve_params(args)
    residual = gn.relation_residual(params)
    payload = {"params": params.echo(),
               "theta_star": str(params.theta_star),
               "p": params.echo()["p"],
               "residual": str(residual)}
    return _emit(args, "params", payload)


def cmd_check(args) -> int:
    n = args.N
    norms._check_grid_n(n)  # every kind integrates over the whole grid
    if args.kind in ("generalized", "bounded", "localized"):
        params = _resolve_params(args)
        omega = None if args.omega is None else norms._interval(
            "omega", _parse_reals(args.omega, ",", "lo,hi"), (0.0, 1.0))
        if args.kind == "bounded":
            extras = gn.BoundedExtras(k0=args.k0, s=args.s, omega=omega)
        corpus = fs.sample_corpus(_corpus_selection(args.function), n,
                                  params.m)
        rows = []
        for name, u in corpus:
            if args.kind == "generalized":
                rep = gn.evaluate_generalized(u, params)
            elif args.kind == "bounded":
                rep = gn.evaluate_bounded(u, params, extras)
            else:
                rep = gn.evaluate_localized(u, params, omega or (0.25, 0.75))
            rows.append({"function": name, **asdict(rep)})
            del u  # released before the corpus samples the next stack
        payload = rows[0] if len(rows) == 1 else rows
        return _emit(args, f"check {args.kind}", payload, grid_n=n)
    if args.kind == "special":
        corpus = fs.sample_corpus(_corpus_selection(args.function), n, 2)
        rows = gn.special_constants(corpus,
                                    include_fractional=not args.no_fractional)
        payload = [{"function": r.name, "ratio4": r.ratio4, "ratio6": r.ratio6,
                    "ratio_half": r.ratio_half, "skipped": list(r.skipped)}
                   for r in rows]
        return _emit(args, "check special", payload, grid_n=n)
    ks = _parse_ks(args.ks) if args.ks else (0, 1, 2)
    order = max(ks)
    corpus = fs.sample_corpus(_corpus_selection(args.function), n, order)
    payload = gn.open_problem_probe(corpus, args.q or "2", ks)
    return _emit(args, "check open-problem", payload, grid_n=n)


def cmd_cover(args) -> int:
    params = _resolve_params(args)
    spec = cov.BalanceSpec.from_params(params, mode=args.mode)
    selection = _corpus_selection(args.function)
    fs.refuse_above_cap(f"a cover on {args.N} nodes",
                        cov.cover_bytes(args.N, spec.m))
    reports = []
    for name, u in fs.sample_corpus(selection, args.N, spec.m):
        rep = cov.build_cover(u, spec, e_resolution=args.e_resolution,
                              threshold=args.threshold)
        del u  # released before the corpus samples the next stack
        rows = [(name, c, r, a, b, res)
                for (c, r, a, b, res) in rep.csv_rows()]
        reports.append((name, rep, rows))
    _write_csv(args, "cover.csv",
               ["function", "center", "radius", "alpha", "beta", "residual"],
               [row for _, _, rows in reports for row in rows])
    payload = []
    for name, rep, _ in reports:
        d = rep.to_dict()
        d["meta"].pop("alpha_beta", None)
        payload.append({"function": name, **d})
    if len(payload) == 1:
        payload = payload[0]
    return _emit(args, "cover", payload, grid_n=args.N)


def cmd_estimate(args) -> int:
    config = ex.SearchConfig(restarts=args.restarts, budget=args.budget,
                             tol=args.tol, seed=_resolve_seed(args),
                             dimension=args.dimension,
                             grid_n=args.search_N,
                             report_grid_n=args.report_N)
    if args.sweep_l6:
        ks = _parse_ks(args.sweep_l6)
        targets = []
        for k in ks:
            try:
                targets.append(gn.l6_params(k))
            except ParameterError:
                targets.append({"p": 6, "q": 2, "r": "inf", "ks": (0, k),
                                "j": k, "m": 2 * k, "theta": Fraction(1, 3)})
        rows = ex.sweep(targets, config, mode=args.mode)
        _write_csv(args, "sweep.csv",
                   ["target", "mode", "status", "ratio", "argmax",
                    "grid_n", "seed", "note"],
                   [[r[k] for k in ("target", "mode", "status", "ratio",
                                    "argmax", "grid_n", "seed", "note")]
                    for r in rows])
        return _emit(args, "estimate sweep", rows, grid_n=config.grid_n)
    if args.target in ex.RATIO_TAGS:
        target = args.target
    elif args.target is not None:
        raise ParameterError(
            f"unknown target {args.target!r}; use one of {ex.RATIO_TAGS} "
            "or --preset")
    else:
        target = _resolve_params(args)
    result = ex.estimate_constant(target, config)
    payload = asdict(result)
    if not args.trace:
        payload["trace"] = {"entries": len(result.trace),
                            "final_best": result.search_ratio}
    return _emit(args, "estimate", payload, grid_n=config.grid_n)


def cmd_control(args) -> int:
    if args.kind == "integrate":
        sys_ = ct.ControlSystem(args.p, args.T)
        law = _resolve_law(args)
        traj = ct.integrate(sys_, law, steps=args.steps)
        payload = {"terminal": traj.terminal.tolist(), "steps": traj.steps,
                   "law": traj.law, "p": args.p, "T": args.T}
        return _emit(args, "control integrate", payload, grid_n=args.steps)
    if args.kind == "formula":
        sys_ = ct.ControlSystem(args.p, args.T)
        law = _resolve_law(args)
        payload = ct.terminal_formula_check(sys_, law, steps=args.steps)
        return _emit(args, "control formula", payload, grid_n=args.steps)
    if args.kind == "scaling":
        if not args.eps:
            raise ParameterError("scaling needs --eps start:end:count")
        eps = _parse_eps_range(args.eps, args.steps)
        report = ct.scaling_experiment(args.p, args.a, eps, T=args.T,
                                       steps=args.steps)
        _write_csv(args, "scaling.csv", ["eps", "x4", "sign"],
                   report.csv_rows())
        return _emit(args, "control scaling", report.to_dict(),
                     grid_n=args.steps)
    if args.kind == "obstruction":
        report = ct.obstruction_check(args.p, args.T, args.eta, args.trials,
                                      _resolve_seed(args), args.steps)
        _emit(args, "control obstruction", asdict(report), grid_n=args.steps)
        return 0 if report.passed else 1
    payload = ct.monotone_check_p1(args.T, steps=args.steps,
                                   seed=_resolve_seed(args))
    _emit(args, "control p1", payload, grid_n=args.steps)
    return 0 if payload["passed"] else 1


def _resolve_law(args):
    if args.law == "zero":
        return ct.Zero()
    if args.law == "triple":
        return ct.ScaledBumpTriple(args.eps_value, args.a)
    if not args.samples:
        raise ParameterError("law grid needs --samples FILE")
    try:
        values = [float(line) for line in
                  Path(args.samples).read_text().split()]
    except (OSError, ValueError) as exc:
        raise ParameterError(
            f"bad samples file {args.samples!r}: {exc}") from None
    return ct.GridSamples(values, args.T)


def cmd_corpus(args) -> int:
    if args.kind == "list":
        payload = [{"name": name, **f.descriptor()}
                   for name, f in fs.standard_corpus()]
        return _emit(args, "corpus list", payload)
    [(_, u)] = fs.sample_corpus(
        [(args.function, fs.corpus_function(args.function))], args.N, args.m)
    header = ["x"] + [f"d{i}" for i in range(args.m + 1)]
    path = _write_csv(args, "corpus.csv", header, zip(u.grid, *u.stack))
    payload = {"function": args.function, "n": u.n, "m": args.m,
               "path": str(path)}
    return _emit(args, "corpus emit", payload, grid_n=args.N)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnlab",
        description="numerical laboratory for derivative-product "
                    "interpolation inequalities")
    parser.add_argument("--version", action="version",
                        version=f"gnlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="artifact directory")
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: $GNLAB_SEED or 0)")
    common.add_argument("--deterministic", action="store_true",
                        help="omit timestamps for byte-identical reports")

    tuple_flags = argparse.ArgumentParser(add_help=False)
    tuple_flags.add_argument("--preset", choices=["l12", "l6"])
    tuple_flags.add_argument("--k", type=int, default=1,
                             help="k for the l6 preset")
    tuple_flags.add_argument("--ks", help="comma list, e.g. 0,1,2")
    tuple_flags.add_argument("--j", type=int)
    tuple_flags.add_argument("--m", type=int)
    tuple_flags.add_argument("--p")
    tuple_flags.add_argument("--q")
    tuple_flags.add_argument("--r", default="inf")
    tuple_flags.add_argument("--theta")

    p = sub.add_parser("params", parents=[common, tuple_flags],
                       help="exponent algebra: theta*, residual, solve")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("check", parents=[common, tuple_flags],
                       help="evaluate an inequality on corpus functions")
    p.add_argument("kind", choices=["generalized", "bounded", "localized",
                                    "special", "open-problem"])
    p.add_argument("--function", default="bumpchi",
                   help="corpus function name or 'all'")
    p.add_argument("--N", type=int, default=4097)
    p.add_argument("--k0", type=int, default=0)
    p.add_argument("--s", default="1")
    p.add_argument("--omega", help="lo,hi subinterval")
    p.add_argument("--no-fractional", action="store_true",
                   help="skip the fractional-seminorm column")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cover", parents=[common, tuple_flags],
                       help="balance radii, greedy cover, verification")
    p.add_argument("--function", default="bumpchi")
    p.add_argument("--N", type=int, default=8193)
    p.add_argument("--e-resolution", type=int, default=None)
    p.add_argument("--threshold", type=float, default=cov.DEFAULT_THRESHOLD)
    p.add_argument("--mode", choices=["real-line", "bounded"],
                   default="real-line")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("estimate", parents=[common, tuple_flags],
                       help="maximize an inequality ratio over candidates")
    p.add_argument("--target", help=f"one of {', '.join(ex.RATIO_TAGS)}")
    p.add_argument("--restarts", type=int, default=ex.SearchConfig.restarts)
    p.add_argument("--budget", type=int, default=ex.SearchConfig.budget)
    p.add_argument("--tol", type=float, default=ex.SearchConfig.tol)
    p.add_argument("--dimension", type=int, default=ex.SearchConfig.dimension)
    p.add_argument("--search-N", type=int, default=ex.SEARCH_GRID_N)
    p.add_argument("--report-N", type=int, default=ex.REPORT_GRID_N)
    p.add_argument("--trace", action="store_true",
                   help="include the full restart trace in the report")
    p.add_argument("--sweep-l6",
                   help="comma list of k values; writes sweep.csv")
    p.add_argument("--mode", choices=["search", "corpus"], default="search")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("control", parents=[common],
                       help="chain-system simulation experiments")
    p.add_argument("kind", choices=["integrate", "formula", "scaling",
                                    "obstruction", "p1"])
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=ct.DEFAULT_STEPS)
    p.add_argument("--law", choices=["zero", "triple", "grid"],
                   default="triple")
    p.add_argument("--eps-value", type=float, default=1e-2,
                   help="epsilon of the triple law")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--eps", help="geometric range start:end:count")
    p.add_argument("--eta", type=float, default=0.8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--samples", help="whitespace-separated samples file")
    p.set_defaults(func=cmd_control)

    p = sub.add_parser("corpus", parents=[common],
                       help="list corpus functions or emit samples")
    p.add_argument("kind", choices=["list", "emit"])
    p.add_argument("--function", default="bumpchi")
    p.add_argument("--N", type=int, default=1025)
    p.add_argument("--m", type=int, default=3)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        _resolve_seed(args)  # a bad seed is refused before any work
        return args.func(args)
    except (ParameterError, PreconditionError) as exc:
        print(f"gnlab: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"gnlab: invariant violated: {exc}", file=sys.stderr)
        return 1
    except GnlabError as exc:
        print(f"gnlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
