"""The four benchmark workloads: seeded inputs, task lists and output checks.

Each workload is one client running a fixed task list back to back (a closed
loop: a task starts when the previous one has finished).  A task is either a
README-style command run in-process through ``gnlab.cli.main`` with
``--deterministic --out <dir>``, so argument parsing and report writing are
timed as users pay for them, or a library call on seeded inputs that the
command line cannot express.

The workload seed is the only source of variation.  From it come the
``--seed`` of every CLI task, the seeds of the random batches and the
B-spline coefficients of the seeded spline bumps.  Sizes are fixed; the
reasons for each workload and size are given beside its task list.

Checks use the tolerances the test suite already uses for the same quantity.
Tasks whose output does not depend on the seed (the fixed corpus) are also
compared with ``reference.json``, recorded at the commit that introduced the
benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from gnlab import cli, control, covering, extremal, funcspace, gn

OUT_ROOT = Path(".perfbench_out")
REFERENCE = Path(__file__).resolve().with_name("reference.json")

#: ceilings of the two special ratios, with the slack the tests allow
RATIO4_CAP = gn.RATIO4_BOUND + 1e-3
RATIO6_CAP = gn.RATIO6_BOUND + 1e-3
#: the default-config ratio4 search must reach at least this (criterion 3)
SEARCH_FLOOR = 1.2
IBP_TOL = 1e-6
OVERLAP_CAP = 4
BALANCE_TOL = 1e-6
DEFICIT_CAP = 2
SLOPE_TOL = 0.05
#: frozen values in the tests are pinned at this relative tolerance
FROZEN_RTOL = 1e-12

#: grid sizes of the seeded spline-bump library calls
SPECIAL_SEEDED_N = 2 ** 16 + 1
COVER_N = 8193
COVER_COARSE = 2049
#: coefficient counts of the seeded spline bumps (one bump each)
BUMP_DIMENSIONS = (8, 10, 12)


@dataclass
class Inputs:
    """Everything a workload's tasks receive, derived from the seed."""

    seed: int
    cli_seed: int
    batch_seeds: tuple
    bumps: list  # (name, SplineBump) pairs


def make_inputs(seed: int) -> Inputs:
    """Seeded inputs.  Positive B-spline coefficients give a single-signed
    bump, so the covering hypotheses hold and no task is expected to fail."""
    rng = np.random.default_rng(seed)
    cli_seed = int(rng.integers(1, 2 ** 31 - 1))
    batch_seeds = tuple(int(s) for s in rng.integers(1, 2 ** 31 - 1, size=2))
    bumps = [(f"seeded{d}", funcspace.SplineBump(rng.uniform(0.25, 1.0, d)))
             for d in BUMP_DIMENSIONS]
    return Inputs(seed, cli_seed, batch_seeds, bumps)


@dataclass
class Task:
    """One timed call plus its untimed check.

    ``run`` is timed.  ``collect`` turns its return value into a JSON-able
    result and the bytes to digest.  ``check`` lists problems given the
    result and the results of the tasks before it.  ``fixed`` extracts the
    seed-independent values compared with the reference.
    """

    name: str
    run: Callable[[], Any]
    collect: Callable[[Any], tuple]
    check: Callable[[Any, dict], list]
    fixed: Callable[[Any], Any] | None = None
    is_cli: bool = False


# ---------------------------------------------------------------------------
# task builders
# ---------------------------------------------------------------------------

def cli_task(workload: str, name: str, argv: list, check, fixed=None) -> Task:
    out = OUT_ROOT / workload / name
    full = list(argv) + ["--deterministic", "--out", out.as_posix()]

    def run():
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main(full)

    def collect(rc):
        report = out / "report.json"
        raw = report.read_bytes() if report.exists() else b""
        files = sum(p.stat().st_size for p in out.iterdir()) if out.exists() else 0
        result = {"rc": rc, "report": json.loads(raw) if raw else None,
                  "report_bytes": files}
        return result, raw

    def checked(result, earlier):
        if result["rc"] != 0:
            return [f"exit code {result['rc']}"]
        if result["report"] is None:
            return ["no report.json written"]
        return check(result["report"]["result"], earlier)

    def fixed_of(result):
        return fixed(result["report"]["result"])

    return Task(name, run, collect, checked,
                fixed_of if fixed is not None else None, is_cli=True)


def library_task(name: str, run, to_json, check) -> Task:
    def collect(value):
        result = to_json(value)
        return result, json.dumps(result, sort_keys=True).encode()

    return Task(name, run, collect, check)


def prepare(workload: str) -> None:
    """Remove the workload's report directories from an earlier run."""
    shutil.rmtree(OUT_ROOT / workload, ignore_errors=True)


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _cap(value, cap, label):
    if value is None or not math.isfinite(value) or value > cap:
        return [f"{label} {value} above ceiling {cap:.6f}"]
    return []


def _special_rows(rows, earlier=None):
    problems = []
    for row in rows:
        label = row.get("function", row.get("name"))
        if row["ratio4"] is not None:
            problems += _cap(row["ratio4"], RATIO4_CAP, f"{label} ratio4")
        if row["ratio6"] is not None:
            problems += _cap(row["ratio6"], RATIO6_CAP, f"{label} ratio6")
    return problems


def _cover_rows(payload, full_resolution: bool):
    rows = payload if isinstance(payload, list) else [payload]
    problems = []
    for row in rows:
        name = row.get("function", "?")
        if row["max_overlap"] > OVERLAP_CAP:
            problems.append(f"{name} overlap {row['max_overlap']}")
        res = row["balance_residuals"]
        if res and max(res) > BALANCE_TOL:
            problems.append(f"{name} balance residual {max(res):.2e}")
        if full_resolution and row["deficit_cells"] > DEFICIT_CAP:
            problems.append(f"{name} deficit {row['deficit_cells']} cells")
    return problems


def _deficit_monotone(coarse, full):
    """Refining the centre resolution may only shrink the deficit."""
    by_name = {r.get("function"): r["deficit_cells"] for r in coarse}
    return [f"{r.get('function')} deficit grew {by_name[r.get('function')]} -> "
            f"{r['deficit_cells']}"
            for r in full if r["deficit_cells"] > by_name[r.get("function")]]


def _cover_fixed(payload):
    rows = payload if isinstance(payload, list) else [payload]
    return {r["function"]: {"centers": len(r["centers"]),
                            "deficit_cells": r["deficit_cells"],
                            "radii_sum": math.fsum(r["radii"])}
            for r in rows}


def compare_fixed(got, want, path="") -> list:
    """Exact for integers and None, FROZEN_RTOL for floats."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        out = []
        for key in want:
            out += compare_fixed(got[key], want[key], f"{path}/{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare_fixed(g, w, f"{path}[{i}]")
        return out
    if isinstance(want, float):
        if not isinstance(got, (int, float)) or \
                abs(got - want) > FROZEN_RTOL * abs(want):
            return [f"{path}: {got!r} != reference {want!r}"]
        return []
    if got != want:
        return [f"{path}: {got!r} != reference {want!r}"]
    return []


# ---------------------------------------------------------------------------
# the four workloads
# ---------------------------------------------------------------------------

def search_tasks(inp: Inputs) -> list:
    """Extremal search: objective call overhead and many tiny Simpson calls.

    ``estimate`` runs at the CLI default ``--jobs`` (cpu count threads) with
    22 restarts: the first 20 are deterministic warm starts, so the two
    beyond them are the seeded random starts.  Budget 1000 is the smallest
    round budget whose polish still reaches the 1.2610 optimum (800 is
    marginal, 600 stops at 1.08).  The two 10k random batches are the
    acceptance-test sizes.  Covering, seminorm and RK4 code never runs.
    """
    def est_check(res, _):
        problems = _cap(res["ratio"], RATIO4_CAP, "search ratio4")
        if not res["ratio"] >= SEARCH_FLOOR:
            problems.append(f"search ratio4 {res['ratio']} below {SEARCH_FLOOR}")
        return problems

    def batch_check(cap):
        def check(res, _):
            problems = _cap(res["max"], cap, f"{res['target']} batch max")
            if res["degenerate"] != 0 or not res["max"] > 0:
                problems.append(f"{res['degenerate']} degenerate candidates")
            return problems
        return check

    s4, s6 = inp.batch_seeds
    return [
        cli_task("search", "estimate",
                 ["estimate", "--target", "ratio4", "--restarts", "22",
                  "--budget", "1000", "--seed", str(inp.cli_seed)], est_check),
        library_task("batch_ratio4",
                     lambda: extremal.random_ratio_batch("ratio4", 10_000, seed=s4),
                     dict, batch_check(RATIO4_CAP)),
        library_task("batch_ratio6",
                     lambda: extremal.random_ratio_batch("ratio6", 10_000, seed=s6),
                     dict, batch_check(RATIO6_CAP)),
    ]


def special_tasks(inp: Inputs) -> list:
    """Fractional seminorm at two sizes next to large-grid sampling.

    The O(n^2) seminorm runs at N=2049 (special, 7 functions) and N=1025
    (open problem, 7 functions): two sizes so its scaling is visible, small
    enough to repeat.  README's ``check special --N 65537`` with the
    seminorm would take about 40 minutes and is left out; the 65537 grids
    run without it, so sampling and Simpson are measured at full size.
    """
    seed = ["--seed", str(inp.cli_seed)]

    def seeded_special():
        rows = []
        for name, f in inp.bumps:
            u = funcspace.sample(f, (0.0, 1.0), SPECIAL_SEEDED_N, 2)
            row = gn.special_constants([(name, u)], include_fractional=False)[0]
            ibp = gn.ibp_identities(u)
            rows.append({"name": name, "ratio4": row.ratio4,
                         "ratio6": row.ratio6, "ibp_l4": ibp.l4,
                         "ibp_l6": ibp.l6})
        return rows

    def seeded_check(rows, _):
        problems = _special_rows(rows)
        for row in rows:
            for key in ("ibp_l4", "ibp_l6"):
                if not abs(row[key]) <= IBP_TOL:
                    problems.append(f"{row['name']} {key} {row[key]:.2e}")
        return problems

    def ratios(rows):
        return {r["function"]: [r["ratio4"], r["ratio6"], r["ratio_half"]]
                for r in rows}

    def lhs_rhs(rows, key):
        return {r[key]: [r["lhs"], r["rhs"], r["ratio"]] for r in rows}

    def no_check(rows, _):
        return []

    return [
        cli_task("special", "special_2049",
                 ["check", "special", "--N", "2049", "--function", "all"] + seed,
                 _special_rows, ratios),
        cli_task("special", "open_problem_1025",
                 ["check", "open-problem", "--ks", "0,1", "--N", "1025",
                  "--function", "all"] + seed,
                 no_check, lambda rows: lhs_rhs(rows, "name")),
        cli_task("special", "special_65537",
                 ["check", "special", "--no-fractional", "--N", "65537",
                  "--function", "all"] + seed,
                 _special_rows, ratios),
        cli_task("special", "generalized_65537",
                 ["check", "generalized", "--preset", "l12", "--N", "65537",
                  "--function", "all"] + seed,
                 no_check, lambda rows: lhs_rhs(rows, "function")),
        library_task("seeded_special_ibp", seeded_special, list, seeded_check),
    ]


def cover_tasks(inp: Inputs) -> list:
    """Critical-radius bisection, greedy selection, overlap and coverage.

    The corpus cover runs at a coarse centre resolution and at full
    resolution on the README's N=8193 grid (about 45 KB reports each), and
    the seeded bumps are covered at both resolutions too, so the deficit
    can be checked for monotonicity.  Without this workload ``covering``
    would be under a tenth of every other workload's time.
    """
    seed = ["--seed", str(inp.cli_seed)]
    base = ["cover", "--preset", "l12", "--function", "all",
            "--N", str(COVER_N)]
    spec = covering.BalanceSpec.from_params(gn.l12_params())

    def seeded_cover():
        out = []
        for name, f in inp.bumps:
            u = funcspace.sample(f, (0.0, 1.0), COVER_N, spec.m)
            for res in (COVER_COARSE, None):
                rep = covering.build_cover(u, spec, e_resolution=res)
                out.append((name, res, rep))
        return out

    def seeded_json(reps):
        rows = []
        for name, res, rep in reps:
            d = rep.to_dict()
            d["meta"].pop("alpha_beta", None)
            rows.append({"function": name, "coarse": res is not None, **d})
        return rows

    def seeded_check(rows, _):
        coarse = [r for r in rows if r["coarse"]]
        full = [r for r in rows if not r["coarse"]]
        return (_cover_rows(coarse, False) + _cover_rows(full, True)
                + _deficit_monotone(coarse, full))

    def full_check(payload, earlier):
        problems = _cover_rows(payload, True)
        coarse = earlier.get("cover_coarse")
        if coarse and coarse.get("report"):
            problems += _deficit_monotone(coarse["report"]["result"], payload)
        return problems

    return [
        cli_task("cover", "cover_coarse",
                 base + ["--e-resolution", str(COVER_COARSE)] + seed,
                 lambda payload, _: _cover_rows(payload, False), _cover_fixed),
        cli_task("cover", "cover_full", base + seed, full_check, _cover_fixed),
        library_task("seeded_cover", seeded_cover, seeded_json, seeded_check),
    ]


def control_tasks(inp: Inputs) -> list:
    """The RK4 chain at three shapes.

    p1 is a narrow batch and a long loop (5 sequential integrations),
    scaling a batch of 5 laws and obstruction a wide, memory-heavy batch of
    100 trials, all at the README's sizes and 2^14 steps.  A change that
    helps the wide batch but hurts the narrow one shows here.
    """
    seed = ["--seed", str(inp.cli_seed)]

    def scaling_check(res, _):
        want = control.expected_terms(res["p"], res["a"])
        problems = []
        if res["slope"] is None or \
                abs(res["slope"] - want["expected_slope"]) > SLOPE_TOL:
            problems.append(f"slope {res['slope']} vs {want['expected_slope']}")
        if any(row["sign"] != want["expected_sign"] for row in res["rows"]):
            problems.append("terminal sign differs from expected_terms")
        return problems

    def passed(res, _):
        return [] if res["passed"] else ["check did not pass"]

    return [
        cli_task("control", "scaling",
                 ["control", "scaling", "--p", "7", "--a", "0.3",
                  "--eps", "1e-4:1e-2:5"] + seed,
                 scaling_check, lambda res: {"slope": res["slope"]}),
        cli_task("control", "obstruction",
                 ["control", "obstruction", "--p", "12", "--T", "1",
                  "--eta", "0.8", "--trials", "100"] + seed, passed),
        cli_task("control", "p1", ["control", "p1"] + seed, passed),
    ]


WORKLOADS = {
    "search": search_tasks,
    "special": special_tasks,
    "cover": cover_tasks,
    "control": control_tasks,
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def check_tasks(tasks, outputs: dict, errors: dict) -> tuple:
    """One row per task with its problems and digest, and the bytes of all
    CLI reports.  A check that raises is a problem of its task."""
    reference = load_reference()
    results, rows, report_bytes = {}, [], 0
    for task in tasks:
        row = {"name": task.name, "problems": [], "digest": None}
        rows.append(row)
        if task.name in errors:
            row["problems"].append(errors[task.name])
            continue
        try:
            result, raw = task.collect(outputs[task.name])
            results[task.name] = result
            row["digest"] = digest(raw)
            row["problems"] += task.check(result, results)
            if task.fixed is not None:
                want = reference.get(task.name)
                if want is None:
                    row["problems"].append("no reference value recorded")
                else:
                    row["problems"] += compare_fixed(task.fixed(result), want,
                                                     task.name)
            if task.is_cli:
                report_bytes += result["report_bytes"]
        except Exception as exc:  # a broken output fails its task only
            row["problems"].append(f"check raised {type(exc).__name__}: {exc}")
    return rows, report_bytes
