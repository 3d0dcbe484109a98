"""Empirical lower bounds for the hidden constants of the inequalities.

The sharp constant of an inequality lhs <= C * rhs is probed from below
by maximizing the ratio lhs/rhs over a parametrized family of smooth
compactly supported candidates: clamped quintic B-spline profiles on
[0, 1] multiplied by the reference bump, so every derivative vanishes at
the endpoints and the product rule gives exact derivative stacks.  The
basis is funcspace's own SplineBump stack of the identity coefficient
matrix, cached per grid as one (orders, n, dim) array, so a candidate's
stack is `basis @ c` and the grid objective is one closure over it.

On the Simpson grid ratio4^4 and ratio6^6 are quotients of two polynomial
forms in c, so their search objectives (Nelder-Mead and the random
batches) are evaluated as (|R_num y| / |R_den y|)^(1/d) wherever the
splines are local and the factors are no larger than the stack: y holds the
products of d coefficients whose splines overlap, and each R is a cached
triangular QR factor of the weighted monomial coefficients.  That is the
grid's discrete sum in another order.  The grid objective stays the oracle
for the forms, the single report-grid evaluation, and the objective of
every other target.

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

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import minimize

from . import funcspace as fs
from . import gn
from . import norms
from .errors import ParameterError, InvariantError, SearchFailureError

SEARCH_GRID_N = 4097
REPORT_GRID_N = 2 ** 16 + 1
# The seminorm is O(n^2) time: 6 ms at 513 nodes, 0.3 s at 8193 (2 vCPU,
# numpy 2.4), against 14 us for a ratio4 search objective at 4097 nodes and
# dimension 16 (polynomial form; 0.23 ms through the grid).  So ratio-half
# searches on a subsampled grid and reports on a moderate one; changing
# either value moves search results, not just roundoff.
SEMINORM_SEARCH_STRIDE = 8
SEMINORM_REPORT_N = 4097
# The package's one byte cap.  The cached candidate basis takes 8 * dimension
# * (dimension + (order + 1) * n) bytes per grid (16 x 65537 x 3: 25 MB) and
# building it peaks at about 2.7 times that, so larger bases are refused
# before allocation; `control` refuses larger RK4 chains the same way.
BASIS_BYTES_CAP = 2 ** 30
CEILING_SLACK = 1e-3
WARM_START_POWERS = (0.82, 0.85, 0.9, 1.0)
WARM_START_FREQS = (1, 2, 3)

RATIO_TAGS = ("ratio4", "ratio6", "ratio-half")
_TAG_CEILING = {"ratio4": gn.RATIO4_BOUND, "ratio6": gn.RATIO6_BOUND}
_TAG_FN = {"ratio4": gn.ratio4, "ratio6": gn.ratio6, "ratio-half": gn.ratio_half}
_TAG_ORDER = {"ratio4": 2, "ratio6": 2, "ratio-half": 1}
# derivative orders of the numerator and denominator products: ratio4^4 is
# the integral of (u' u')^2 over that of (u u'')^2, ratio6^6 likewise
_TAG_FORMS = {"ratio4": ((1, 1), (0, 2)), "ratio6": ((1, 1, 1), (0, 1, 2))}
# degree of the candidate splines: B_i and B_j overlap iff |i - j| <= 5
SPLINE_DEGREE = 5
# A form in the monomials of c loses digits like the candidate's pointwise
# cancellation to the power d.  With fewer than three knot intervals the
# splines are nearly global and warm starts cancel heavily: against the
# grid objective the forms differ by up to 2e-13 (ratio4) and 3e-12
# (ratio6) at dimension 6, and 1.3e-13 (ratio6) at 7, where the grid
# objective itself is within 3e-16 of an extended-precision sum.
FORM_MIN_DIMENSION = SPLINE_DEGREE + 3
# grid rows factored at a time: the default search grid is one block, and a
# finer grid builds its factors in O(P * FACTOR_ROWS) memory, not O(P * n)
FACTOR_ROWS = SEARCH_GRID_N

Target = Union[str, gn.GNParams]


def _check_grid_n(n) -> None:
    """Simpson grids of [0, 1] need an odd integer node count >= 3."""
    if not isinstance(n, numbers.Integral) or n < 3 or n % 2 == 0:
        raise ParameterError(
            f"grids need an odd integer node count >= 3, got {n!r}")


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
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ParameterError(
                f"tol must be finite and >= 0, got {self.tol}")
        _check_grid_n(self.grid_n)
        _check_grid_n(self.report_grid_n)

    def echo(self) -> dict:
        return {"restarts": self.restarts, "budget": self.budget,
                "tol": self.tol, "seed": self.seed,
                "dimension": self.dimension, "grid_n": self.grid_n,
                "report_grid_n": self.report_grid_n}


@lru_cache(maxsize=8)
def _basis_matrices(dimension: int, n: int, max_order: int) -> np.ndarray:
    """D^i(B_j * chi) on the n-node grid of [0,1], shape (orders, n, dim).

    This is SplineBump's own stack of the identity coefficient matrix, so
    `basis @ c` is the stack of the candidate with coefficients c.
    """
    return fs.SplineBump(np.eye(dimension)).stack(
        max_order, np.linspace(0.0, 1.0, n))


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


def _ratio_fn(target: Target):
    """Maps a sampled stack to the target's ratio; 0.0 on degenerate rhs."""
    if isinstance(target, gn.GNParams):
        def ratio(u: fs.GridFunction) -> float:
            rep = gn.evaluate_generalized(u, target)
            return 0.0 if rep.degenerate else rep.ratio

        return ratio
    return _TAG_FN[target]


def _grid_objective(target: Target, dimension: int, n: int, stride: int = 1):
    """Returns (ratio_fn, basis); ratio_fn maps coefficients to the ratio
    through the candidate's stack sampled on n nodes, kept at every
    stride-th node, and the norms of `gn`.

    The basis is refused before it is allocated when it would take more
    than BASIS_BYTES_CAP bytes.
    """
    order = _target_order(target)
    fn = _ratio_fn(target)
    if (n - 1) % stride:
        raise ParameterError(
            f"ratio-half subsamples {n} nodes by {stride}: n - 1 must be "
            f"a multiple of {stride} so the last kept node is x = 1")
    need = 8 * dimension * (dimension + (order + 1) * n)
    if need > BASIS_BYTES_CAP:
        raise ParameterError(
            f"the candidate basis for dimension {dimension} on {n} nodes "
            f"needs {need} bytes, above the {BASIS_BYTES_CAP}-byte cap")
    basis = _basis_matrices(dimension, n, order)

    def ratio(coeffs: np.ndarray) -> float:
        return fn(fs.GridFunction(0.0, 1.0, (basis @ coeffs)[:, ::stride]))

    return ratio, basis


def _monomials(dimension: int, degree: int) -> np.ndarray:
    """Sorted index tuples (i_1 <= ... <= i_degree) of the coefficient
    products whose splines overlap, as a (degree, P) array.

    Products with index spread above SPLINE_DEGREE vanish at every node,
    so they are never formed.
    """
    return np.array([(i,) + rest for i in range(dimension)
                     for rest in itertools.combinations_with_replacement(
                         range(i, min(i + SPLINE_DEGREE, dimension - 1) + 1),
                         degree - 1)]).T


@lru_cache(maxsize=8)
def _ratio_factors(target: str, dimension: int, n: int):
    """(monomials, R_num, R_den) of a ratio4/ratio6 target on n nodes.

    On the Simpson grid the numerator integral of ratio^(2d) (d = 2 for
    ratio4, 3 for ratio6) is sum_x w(x) (K y)(x)^2 with y the monomials
    of c and K's columns the monomials' coefficients in the derivative
    product; the denominator likewise.  R is the triangular QR factor of
    sqrt(w) K, so the integral is |R y|^2.  QR rather than the Gram
    matrix K^T W K, whose conditioning is the square.
    """
    basis = _basis_matrices(dimension, n, _TAG_ORDER[target])
    sqrt_w = np.sqrt(norms.simpson_weights(n, 1.0 / (n - 1)))
    monos = _monomials(dimension, len(_TAG_FORMS[target][0]))
    perms = [sorted(set(itertools.permutations(mono))) for mono in monos.T]

    def factor(orders):
        r = np.empty((0, monos.shape[1]))
        for lo in range(0, n, FACTOR_ROWS):
            rows = slice(lo, min(lo + FACTOR_ROWS, n))
            # [R; next rows] has the same R^T R as all rows so far
            stacked = np.empty((len(r) + rows.stop - lo, monos.shape[1]))
            stacked[:len(r)] = r
            k = stacked[len(r):]
            for col, assignments in enumerate(perms):
                # the coefficient of c_{i_1}..c_{i_d}: one term per distinct
                # assignment of the indices to the derivative orders
                k[:, col] = sum(
                    np.prod([basis[o][rows, i] for o, i in zip(orders, perm)],
                            axis=0)
                    for perm in assignments)
            k *= sqrt_w[rows, None]
            r = np.linalg.qr(stacked, mode="r")
        return r

    num_orders, den_orders = _TAG_FORMS[target]
    return monos, factor(num_orders), factor(den_orders)


def _form_objective(target: str, dimension: int, n: int):
    """ratio_fn of a ratio4/ratio6 target as (|R_num y| / |R_den y|)^(1/d):
    the grid objective's Simpson sums in another order, so only roundoff
    differs from it."""
    monos, r_num, r_den = _ratio_factors(target, dimension, n)
    power = 0.5 / monos.shape[0]
    first, *rest = monos

    def ratio(coeffs: np.ndarray) -> float:
        y = coeffs[first]
        for idx in rest:
            y = y * coeffs[idx]
        num = r_num @ y
        den = r_den @ y
        den2 = den @ den
        if den2 == 0.0:
            return 0.0
        return float((num @ num / den2) ** power)

    return ratio


def _make_objective(target: Target, dimension: int, n: int):
    """Returns (ratio_fn, basis) for a search: many calls on one grid.

    ratio4 and ratio6 evaluate as polynomial forms whenever their two
    factors hold no more entries than the derivative stack they replace
    and the splines are local (FORM_MIN_DIMENSION); every other target
    and size keeps the grid objective, which stays the oracle and the
    single report evaluation.  A ratio-half search on more than 1024
    nodes keeps every SEMINORM_SEARCH_STRIDE-th node.
    """
    stride = SEMINORM_SEARCH_STRIDE if target == "ratio-half" and n > 1024 else 1
    ratio, basis = _grid_objective(target, dimension, n, stride)
    if target in _TAG_FORMS and dimension >= FORM_MIN_DIMENSION:
        size = _monomials(dimension, len(_TAG_FORMS[target][0])).shape[1]
        if 2 * size ** 2 <= (_TAG_ORDER[target] + 1) * n * dimension:
            ratio = _form_objective(target, dimension, n)
    return ratio, basis


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
    """Outcome of one estimate_constant run; ``candidate`` holds the unit
    coefficient vector of the winning spline bump."""

    target: str
    ratio: float
    search_ratio: float
    candidate: tuple
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
                "candidate": list(self.candidate),
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
    ratio_fn, basis = _make_objective(target, config.dimension, config.grid_n)
    report_n = (min(config.report_grid_n, SEMINORM_REPORT_N)
                if target == "ratio-half" else config.report_grid_n)
    report_fn, _ = _grid_objective(target, config.dimension, report_n)
    starts = warm_starts(basis[0])
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
                        candidate=tuple(best_vec.tolist()),
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
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ParameterError(f"count must be an integer >= 1, got {count!r}")
    _check_grid_n(grid_n)
    ratio_fn, _ = _make_objective(target, dimension, grid_n)
    coeffs = np.random.default_rng(seed).standard_normal((count, dimension))
    lengths = np.linalg.norm(coeffs, axis=1)
    lengths[lengths == 0.0] = 1.0
    coeffs /= lengths[:, None]
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
                fn = _ratio_fn(target)
                if sampled is None or sampled[0] < order:
                    base = corpus if corpus is not None else fs.standard_corpus()
                    sampled = (order, [(name, fs.sample(f, (0.0, 1.0),
                                                        config.grid_n, order))
                                       for name, f in base])
                best_name, best_val = "", 0.0
                for name, u in sampled[1]:
                    val = fn(u)
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
