"""Empirical lower bounds for the hidden constants of the inequalities.

The sharp constant of an inequality lhs <= C * rhs is probed from below
by maximizing the ratio lhs/rhs over a parametrized family of smooth
compactly supported candidates: clamped quintic B-spline profiles on
[0, 1] multiplied by the reference bump, so every derivative vanishes at
the endpoints and the product rule gives exact derivative stacks.

The ratio is 0-homogeneous in the coefficient vector, so candidates are
normalized to unit Euclidean length before evaluation; the optimizer
never sees the scale direction.  Search is derivative-free Nelder-Mead
from a fixed list of arch-shaped warm starts (least-squares fits of
|sin(n pi x)|^b profiles onto the candidate basis, with sign-alternating
variants) plus seeded random starts, followed by one longer polishing
run from the incumbent.  The search runs on a coarse grid and the final
ratio is re-evaluated on a fine one; both values are reported so grid
artifacts are visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np
from scipy.interpolate import BSpline
from scipy.optimize import minimize

from . import funcspace as fs
from . import gn
from .errors import ParameterError, InvariantError, SearchFailureError

SEARCH_GRID_N = 4097
REPORT_GRID_N = 2 ** 16 + 1
# The seminorm is O(n^2) time: 6 ms at 513 nodes, 0.3 s at 8193 (2 vCPU,
# numpy 2.4), against 0.25 ms for a ratio4 objective at 4097.  So ratio-half
# searches on a subsampled grid and reports on a moderate one; changing
# either value moves search results, not just roundoff.
SEMINORM_SEARCH_STRIDE = 8
SEMINORM_REPORT_N = 4097
CEILING_SLACK = 1e-3
WARM_START_POWERS = (0.82, 0.85, 0.9, 1.0)
WARM_START_FREQS = (1, 2, 3)

RATIO_TAGS = ("ratio4", "ratio6", "ratio-half")
_TAG_CEILING = {"ratio4": gn.RATIO4_BOUND, "ratio6": gn.RATIO6_BOUND}
_TAG_FN = {"ratio4": gn.ratio4, "ratio6": gn.ratio6, "ratio-half": gn.ratio_half}
_TAG_ORDER = {"ratio4": 2, "ratio6": 2, "ratio-half": 1}

Target = Union[str, gn.GNParams]


@dataclass(frozen=True)
class Candidate:
    """Coefficient vector of one spline-times-bump trial function."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if len(c) < 6:
            raise ParameterError("candidate needs at least 6 coefficients")
        object.__setattr__(self, "coeffs", c)

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    def normalized(self) -> "Candidate":
        arr = np.asarray(self.coeffs)
        nrm = float(np.linalg.norm(arr))
        if nrm == 0.0:
            raise ParameterError("all-zero candidate cannot be normalized")
        return Candidate(tuple(arr / nrm))

    def function(self) -> fs.SplineBump:
        return fs.SplineBump(self.coeffs)

    @classmethod
    def random(cls, rng: np.random.Generator, dimension: int = 8) -> "Candidate":
        return cls(tuple(rng.standard_normal(dimension)))


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs for the ratio maximization."""

    restarts: int = 28
    budget: int = 8000
    tol: float = 1e-13
    seed: int = 0
    dimension: int = 16
    grid_n: int = SEARCH_GRID_N
    report_grid_n: int = REPORT_GRID_N

    def __post_init__(self):
        if self.budget < 1:
            raise ParameterError("budget must be >= 1")
        if self.restarts < 1:
            raise ParameterError("restarts must be >= 1")
        if self.dimension < 6:
            raise ParameterError("dimension must be >= 6 for quintic splines")
        if self.grid_n % 2 == 0 or self.report_grid_n % 2 == 0:
            raise ParameterError("grids must have an odd node count")

    def echo(self) -> dict:
        return {"restarts": self.restarts, "budget": self.budget,
                "tol": self.tol, "seed": self.seed,
                "dimension": self.dimension, "grid_n": self.grid_n,
                "report_grid_n": self.report_grid_n}


@lru_cache(maxsize=8)
def _basis_matrices(dimension: int, n: int, max_order: int) -> tuple:
    """Columns D^i(B_j * chi) on the n-node grid of [0,1], per order i.

    Orders above the spline degree drop the spline factor; this matches
    the pointwise (almost-everywhere) derivative of the candidate.
    """
    knots = fs.uniform_quintic_knots(dimension)
    degree = 5
    x = np.linspace(0.0, 1.0, n)
    ch = fs.chi_stack(x, max_order)
    eye = np.eye(dimension)
    spline = BSpline(knots, eye, degree, extrapolate=False)
    b_mats = []
    top = min(max_order, degree)
    for l in range(top + 1):
        b_mats.append(np.nan_to_num(spline(x), nan=0.0))
        if l < top:
            spline = spline.derivative()
    out = []
    for i in range(max_order + 1):
        acc = np.zeros((n, dimension))
        for l in range(min(i, degree) + 1):
            acc += math.comb(i, l) * b_mats[l] * ch[i - l][:, None]
        out.append(acc)
    return tuple(out)


class _StackEvaluator:
    """Maps coefficient vectors to derivative stacks via cached matrices."""

    def __init__(self, dimension: int, n: int, max_order: int):
        self.matrices = _basis_matrices(dimension, n, max_order)
        self.n = n
        self.dimension = dimension

    def stack(self, coeffs: np.ndarray) -> np.ndarray:
        return np.stack([m @ coeffs for m in self.matrices])

    def grid_function(self, coeffs: np.ndarray) -> fs.GridFunction:
        return fs.GridFunction(0.0, 1.0, self.stack(coeffs))

    @property
    def value_matrix(self) -> np.ndarray:
        return self.matrices[0]


def _target_label(target: Target) -> str:
    if isinstance(target, gn.GNParams):
        ks = ",".join(str(k) for k in target.ks)
        return (f"gn(j={target.j},m={target.m},ks={ks},p={target.p},"
                f"q={target.q},r={target.r},theta={target.theta})")
    return str(target)


def _target_order(target: Target) -> int:
    if isinstance(target, gn.GNParams):
        return target.m
    if target not in RATIO_TAGS:
        raise ParameterError(
            f"unknown target {target!r}; expected GNParams or one of {RATIO_TAGS}")
    return _TAG_ORDER[target]


def _make_objective(target: Target, dimension: int, n: int):
    """Returns (ratio_fn, evaluator); ratio_fn gives 0.0 on degenerate rhs."""
    order = _target_order(target)
    if isinstance(target, gn.GNParams):
        target.validate()
        ev = _StackEvaluator(dimension, n, order)

        def ratio(coeffs: np.ndarray) -> float:
            rep = gn.evaluate_generalized(ev.grid_function(coeffs), target)
            return 0.0 if rep.degenerate else rep.ratio

        return ratio, ev
    if target == "ratio-half":
        stride = SEMINORM_SEARCH_STRIDE if n > 1024 else 1
        if (n - 1) % stride:
            raise ParameterError(
                f"ratio-half subsamples {n} nodes by {stride}: n - 1 must be "
                f"a multiple of {stride} so the last kept node is x = 1")
        ev = _StackEvaluator(dimension, n, order)

        def ratio(coeffs: np.ndarray) -> float:
            st = ev.stack(coeffs)[:, ::stride]
            return gn.ratio_half(fs.GridFunction(0.0, 1.0, st))

        return ratio, ev
    fn = _TAG_FN[target]
    ev = _StackEvaluator(dimension, n, order)

    def ratio(coeffs: np.ndarray) -> float:
        return fn(ev.grid_function(coeffs))

    return ratio, ev


def warm_starts(value_matrix: np.ndarray) -> list:
    """Least-squares coefficient fits of arch profiles onto the basis.

    The profiles |sin(n pi x)|^b imitate the single- and multi-arch
    shapes that the quartic and sextic ratios favor; sign-alternating
    variants cover odd symmetries.  The list is deterministic.
    """
    n = value_matrix.shape[0]
    x = np.linspace(0.0, 1.0, n)
    out = []
    for b in WARM_START_POWERS:
        for freq in WARM_START_FREQS:
            prof = np.abs(np.sin(freq * np.pi * x)) ** b
            out.append(np.linalg.lstsq(value_matrix, prof, rcond=None)[0])
            if freq > 1:
                signed = prof * np.sign(np.sin(freq * np.pi * x))
                out.append(np.linalg.lstsq(value_matrix, signed, rcond=None)[0])
    return out


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one estimate_constant run."""

    target: str
    ratio: float
    search_ratio: float
    candidate: Candidate
    trace: tuple
    evaluations: int
    degenerate: int
    grid_n: int
    report_grid_n: int
    config: SearchConfig

    def to_dict(self) -> dict:
        return {"target": self.target,
                "ratio": self.ratio,
                "search_ratio": self.search_ratio,
                "candidate": list(self.candidate.coeffs),
                "trace": [dict(t) for t in self.trace],
                "evaluations": self.evaluations,
                "degenerate": self.degenerate,
                "grid_n": self.grid_n,
                "report_grid_n": self.report_grid_n,
                "config": self.config.echo()}


def _run_restart(ratio_fn, start, budget, tol):
    counter = {"evals": 0, "degenerate": 0}

    def objective(c):
        counter["evals"] += 1
        nrm = np.linalg.norm(c)
        if nrm == 0.0 or not np.isfinite(nrm):
            counter["degenerate"] += 1
            return 0.0
        r = ratio_fn(np.asarray(c, dtype=float) / nrm)
        if r == 0.0:
            counter["degenerate"] += 1
        return -r

    res = minimize(objective, np.asarray(start, dtype=float),
                   method="Nelder-Mead",
                   options={"maxfev": budget, "xatol": 1e-9,
                            "fatol": tol, "adaptive": True})
    best = -float(res.fun)
    vec = np.asarray(res.x, dtype=float)
    nrm = np.linalg.norm(vec)
    if nrm > 0.0:
        vec = vec / nrm
    return best, vec, counter


def estimate_constant(target: Target,
                      config: Optional[SearchConfig] = None) -> SearchResult:
    """Maximize the target's lhs/rhs ratio over the candidate family.

    Runs `config.restarts` Nelder-Mead starts (warm starts first, then
    random vectors drawn from per-restart streams seeded by
    (config.seed, restart index)), polishes the incumbent with a longer
    run, and re-evaluates the winner on the report grid.
    """
    config = config or SearchConfig()
    label = _target_label(target)
    ratio_fn, ev = _make_objective(target, config.dimension, config.grid_n)
    report_n = (min(config.report_grid_n, SEMINORM_REPORT_N)
                if target == "ratio-half" else config.report_grid_n)
    report_fn, _ = _make_objective(target, config.dimension, report_n)
    starts = warm_starts(ev.value_matrix)
    n_warm = min(len(starts), config.restarts)
    starts = starts[:n_warm]
    for idx in range(n_warm, config.restarts):
        rng = np.random.default_rng([config.seed, idx])
        starts.append(rng.standard_normal(config.dimension))

    outcomes = [_run_restart(ratio_fn, start, config.budget, config.tol)
                for start in starts]

    trace = []
    best = 0.0
    best_vec = None
    evals = 0
    degenerate = 0
    for idx, (val, vec, counter) in enumerate(outcomes):
        evals += counter["evals"]
        degenerate += counter["degenerate"]
        if val > best:
            best, best_vec = val, vec
        trace.append({"restart": idx,
                      "kind": "warm" if idx < n_warm else "random",
                      "ratio": val, "best_so_far": best})
    if best_vec is None:
        raise SearchFailureError(
            f"all {evals} evaluations degenerate for target {label} "
            f"({degenerate} zero-ratio candidates)")

    polish_budget = max(config.budget, int(2.5 * config.budget))
    val, vec, counter = _run_restart(ratio_fn, best_vec, polish_budget,
                                     config.tol * 1e-2)
    evals += counter["evals"]
    degenerate += counter["degenerate"]
    if val > best:
        best, best_vec = val, vec
    trace.append({"restart": len(outcomes), "kind": "polish",
                  "ratio": val, "best_so_far": best})

    fine = report_fn(best_vec)
    ceiling = _TAG_CEILING.get(target if isinstance(target, str) else "")
    if ceiling is not None and fine > ceiling + CEILING_SLACK:
        raise InvariantError(
            f"ratio {fine} exceeds the proof ceiling {ceiling} for {label}")
    return SearchResult(target=label, ratio=float(fine),
                        search_ratio=float(best),
                        candidate=Candidate(tuple(best_vec)),
                        trace=tuple(trace), evaluations=evals,
                        degenerate=degenerate, grid_n=config.grid_n,
                        report_grid_n=report_n, config=config)


def random_ratio_batch(target: Target, count: int = 10_000,
                       dimension: int = 8, seed: int = 0,
                       grid_n: int = SEARCH_GRID_N) -> dict:
    """Ratios of seeded random unit candidates, one objective call each.

    This is the coarse random-search oracle used to sanity-check the
    proof ceilings and to lower-bound the optimizer: the max over many
    random unit coefficient vectors must stay below the ceiling and the
    optimizer must beat this max.  All normals come from one draw, so
    the candidates depend only on (seed, count, dimension).
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    ratio_fn, _ = _make_objective(target, dimension, grid_n)
    coeffs = np.random.default_rng(seed).standard_normal((count, dimension))
    norms = np.linalg.norm(coeffs, axis=1)
    norms[norms == 0.0] = 1.0
    coeffs /= norms[:, None]
    values = np.array([ratio_fn(c) for c in coeffs])
    idx = int(np.argmax(values))
    best = max(float(values[idx]), 0.0)
    return {"target": _target_label(target), "count": count,
            "max": best, "mean": float(values.mean()),
            "degenerate": int(np.sum(values == 0.0)),
            "argmax": coeffs[idx].tolist() if best > 0.0 else None,
            "grid_n": grid_n, "seed": seed, "dimension": dimension}


def sweep(targets: Sequence, config: Optional[SearchConfig] = None,
          mode: str = "search", corpus=None) -> list:
    """One row per target: best ratio with grid and seed, or a skip note.

    `targets` entries may be GNParams, a ratio tag string, or a dict of
    raw exponent fields (constructed here so infeasible tuples become
    skipped rows rather than failures).  mode "search" maximizes over
    candidates; mode "corpus" evaluates the fixed corpus and reports its
    best function.
    """
    if mode not in ("search", "corpus"):
        raise ParameterError("mode must be search|corpus")
    config = config or SearchConfig()
    rows = []
    sampled = None
    for raw in targets:
        target = raw
        try:
            if isinstance(raw, dict):
                target = gn.GNParams(**raw)
            row = {"target": _target_label(target), "mode": mode,
                   "status": "ok", "ratio": None, "argmax": "",
                   "grid_n": config.grid_n, "seed": config.seed, "note": ""}
            if mode == "search":
                result = estimate_constant(target, config)
                row["ratio"] = result.ratio
                row["grid_n"] = result.report_grid_n
                row["argmax"] = "candidate"
            else:
                order = _target_order(target)
                if sampled is None or sampled[0] < order:
                    base = corpus if corpus is not None else fs.standard_corpus()
                    sampled = (order, [(name, fs.sample(f, (0.0, 1.0),
                                                        config.grid_n, order))
                                       for name, f in base])
                best_name, best_val = "", 0.0
                for name, u in sampled[1]:
                    if isinstance(target, gn.GNParams):
                        rep = gn.evaluate_generalized(u, target)
                        val = 0.0 if rep.degenerate else rep.ratio
                    else:
                        val = _TAG_FN[target](u)
                    if val > best_val:
                        best_name, best_val = name, val
                row["ratio"] = best_val
                row["argmax"] = best_name
        except ParameterError as exc:
            row = {"target": _target_label(raw) if not isinstance(raw, dict)
                   else str(raw), "mode": mode, "status": "skipped",
                   "ratio": None, "argmax": "", "grid_n": config.grid_n,
                   "seed": config.seed, "note": str(exc)}
        rows.append(row)
    return rows
