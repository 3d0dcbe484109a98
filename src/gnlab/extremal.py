"""Empirical lower bounds for the hidden constants of the inequalities.

The sharp constant of an inequality lhs <= C * rhs is probed from below
by maximizing the ratio lhs/rhs over a parametrized family of smooth
compactly supported candidates: clamped quintic B-spline profiles on
[0, 1] multiplied by the reference bump, so every derivative vanishes at
the endpoints and the product rule gives exact derivative stacks.  The
basis is funcspace's own SplineBump stack of the identity coefficient
matrix, cached per grid as one (orders, n, dim) array and refused above
funcspace's byte cap, so a candidate's stack is `basis @ c` and the grid
objective is one closure over it.

On the Simpson grid ratio4^4 and ratio6^6 are quotients of two polynomial
forms in c.  Wherever the splines are local and the factors are no larger
than the stack, one builder (`_forms`) evaluates them as
(|R_num y| / |R_den y|)^(1/d) for the search's rows, the random batches
and the polish's gradient alike: y holds the products of d coefficients
whose splines overlap, and each R is a cached triangular QR factor of the
weighted monomial coefficients.  That is the grid's discrete sum in
another order.  The grid objective stays the oracle for the forms and the
objective of every other target.

The ratio is 0-homogeneous in the coefficient vector, so candidates are
normalized to unit Euclidean length before evaluation; the optimizer
never sees the scale direction.  The restarts are derivative-free
adaptive Nelder-Mead, the package's own (`_lockstep`: each run takes step
for step the reference implementation that the tests compare it with),
from a fixed list of arch-shaped warm starts (least-squares fits of
|sin(n pi x)|^b profiles onto the candidate basis, with sign-alternating
variants) plus seeded random starts.  They run in lockstep: their
simplices are one stacked array, each round sorts and steps them with
array operations and sends the points that every live run asks for to one
objective call on rows, and each row's value is the float a call on that
row alone gives.  One polishing run from the incumbent follows.  Where the
objective is the forms, it is BFGS on the unit sphere with the forms'
exact gradient (`_bfgs`); every other objective is polished by one longer
Nelder-Mead run.  The search runs on a coarse grid; the winner's own stack
is then sampled on a fine one and its ratio reported, next to the search
value, so grid artifacts are visible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional, Union

import numpy as np

from . import funcspace as fs
from . import gn
from . import norms
from .errors import ParameterError, InvariantError, SearchFailureError

SEARCH_GRID_N = 4097
REPORT_GRID_N = 2 ** 16 + 1
# The seminorm at p = 4 (a direct near band plus an FFT far field) takes
# 0.5-0.7 ms at 513 nodes, 10-11 ms at 4097 and 35 ms at 8193 (2 vCPU,
# numpy 2.4), against 3.5-4.2 us per candidate for a ratio4 search objective
# at 4097 nodes and dimension 16 in a round of 22 or more rows, 21 us alone
# (polynomial form; 0.23 ms through the grid).  So ratio-half
# searches on a subsampled grid and reports on a moderate one; changing
# either value moves search results, not just roundoff.
SEMINORM_SEARCH_STRIDE = 8
SEMINORM_REPORT_N = 4097
CEILING_SLACK = 1e-3
WARM_START_POWERS = (0.82, 0.85, 0.9, 1.0)
WARM_START_FREQS = (1, 2, 3)
# the polish's strong Wolfe constants: sufficient decrease and curvature,
# scipy's BFGS values
WOLFE = (1e-4, 0.9)

RATIO_TAGS = ("ratio4", "ratio6", "ratio-half")
_TAG_CEILING = {"ratio4": gn.RATIO4_BOUND, "ratio6": gn.RATIO6_BOUND}
_TAG_FN = {"ratio4": gn.ratio4, "ratio6": gn.ratio6, "ratio-half": gn.ratio_half}
_TAG_ORDER = {"ratio4": 2, "ratio6": 2, "ratio-half": 1}
# derivative orders of the numerator and denominator products: ratio4^4 is
# the integral of (u' u')^2 over that of (u u'')^2, ratio6^6 likewise
_TAG_FORMS = {"ratio4": ((1, 1), (0, 2)), "ratio6": ((1, 1, 1), (0, 1, 2))}
# A form in the monomials of c loses digits like the candidate's pointwise
# cancellation to the power d.  With fewer than three knot intervals the
# splines are nearly global and warm starts cancel heavily: against the
# grid objective the forms differ by up to 2e-13 (ratio4) and 3e-12
# (ratio6) at dimension 6, and 1.3e-13 (ratio6) at 7, where the grid
# objective itself is within 3e-16 of an extended-precision sum.
FORM_MIN_DIMENSION = fs.SPLINE_DEGREE + 3
# grid rows factored at a time: the default search grid is one block, and a
# finer grid builds its factors in O(P * FACTOR_ROWS) memory, not O(P * n)
FACTOR_ROWS = SEARCH_GRID_N
# candidates of a random batch evaluated at a time: a block's monomials
# and factor products stay a few MB, not O(count * P)
BATCH_ROWS = 2048

Target = Union[str, gn.GNParams]


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
        count = norms._count
        object.__setattr__(self, "restarts", count("restarts", self.restarts, 1))
        object.__setattr__(self, "budget", count("budget", self.budget, 1))
        object.__setattr__(self, "seed", count("seed", self.seed, 0))
        # >= 6 for quintic splines
        object.__setattr__(self, "dimension",
                           count("dimension", self.dimension, 6))
        if norms._finite("tol", self.tol) < 0.0:
            raise ParameterError(f"tol must be >= 0, got {self.tol}")
        norms._check_grid_n(self.grid_n)
        norms._check_grid_n(self.report_grid_n)


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

    The cached basis takes `_basis_bytes` (16 x 4097 x 3: 1.6 MB), and
    building it peaks at about 3.8 times that (`_basis_build_bytes`);
    above the package's byte cap (`funcspace.BYTES_CAP`) the build is
    refused before anything of it is allocated.
    """
    order = _target_order(target)
    fn = _ratio_fn(target)
    if (n - 1) % stride:
        raise ParameterError(
            f"ratio-half subsamples {n} nodes by {stride}: n - 1 must be "
            f"a multiple of {stride} so the last kept node is x = 1")
    norms._check_grid_n((n - 1) // stride + 1)  # the nodes it keeps
    fs.refuse_above_cap(f"the candidate basis for dimension {dimension} on "
                        f"{n} nodes", _basis_build_bytes(dimension, n, order))
    basis = _basis_matrices(dimension, n, order)

    def ratio(coeffs: np.ndarray) -> float:
        return fn(fs.GridFunction(0.0, 1.0, (basis @ coeffs)[:, ::stride]))

    return ratio, basis


def _basis_bytes(dimension: int, n: int, order: int) -> int:
    """Bytes of the cached candidate basis and its identity matrix."""
    return 8 * dimension * (dimension + (order + 1) * n)


def _basis_build_bytes(dimension: int, n: int, order: int) -> int:
    """The most `_basis_matrices` holds at once: SplineBump's stack (per
    order, n x dimension) with one block of at most `funcspace.STACK_BLOCK`
    nodes being built beside it.  A block takes, per node,
    order + min(order, SPLINE_DEGREE) + 4 rows of dimension values (spline
    factors, Leibniz products, its rows) and order + 8 values (chi's
    stack).  Also ten dimension x dimension matrices, the nodes twice and
    8 KB.  Traced: 1.00 to 1.09 times the peak, for orders 1 to 8 and
    dimensions 6 to 49 on 129 to 32769 nodes."""
    work = (order + min(order, fs.SPLINE_DEGREE) + 4) * dimension + order + 8
    return 8 * (10 * dimension * dimension + 2 * n + 1024
                + (order + 1) * n * dimension
                + work * min(n, fs.STACK_BLOCK))


def _monomials(dimension: int, degree: int) -> np.ndarray:
    """Sorted index tuples (i_1 <= ... <= i_degree) of the coefficient
    products whose splines overlap, as a (degree, P) array.

    Products with index spread above SPLINE_DEGREE vanish at every node,
    so they are never formed.
    """
    return np.array([(i,) + rest for i in range(dimension)
                     for rest in itertools.combinations_with_replacement(
                         range(i, min(i + fs.SPLINE_DEGREE,
                                      dimension - 1) + 1),
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
    # the coefficient of c_{i_1}..c_{i_d} has one term per distinct
    # assignment of the indices to the derivative orders; columns with as
    # many assignments are built together, one assignment at a time, from
    # an (assignments, d, columns) array of basis indices, at most a
    # quarter of the columns at once so the three temporaries stay within
    # the size of the block
    perms = [sorted(set(itertools.permutations(mono))) for mono in monos.T]
    by_count = {}
    for col, assignments in enumerate(perms):
        by_count.setdefault(len(assignments), []).append(col)
    width = max(1, monos.shape[1] // 4)
    groups = []
    for cols in by_count.values():
        for lo in range(0, len(cols), width):
            part = cols[lo:lo + width]
            groups.append(
                (part, np.array([perms[c] for c in part]).transpose(1, 2, 0)))

    def fill(k, orders, rows):
        """Writes the rows' columns, scaled by sqrt(w), into k (one row per
        column); its temporaries are gone when it returns."""
        factors = [basis[o][rows].T.copy() for o in orders]
        for cols, assignments in groups:
            # 0 + t_1 + t_2 + ..., each product taken left to right
            total = 0
            for idx in assignments:
                term = factors[0][idx[0]]
                for f, i in zip(factors[1:], idx[1:]):
                    term *= f[i]
                total = total + term
            k[cols] = total
        k *= sqrt_w[rows]

    def factor(orders):
        r = np.empty((0, monos.shape[1]))
        for lo in range(0, n, FACTOR_ROWS):
            rows = slice(lo, min(lo + FACTOR_ROWS, n))
            # [R; next rows] has the same R^T R as all rows so far; built
            # column by column (Fortran order), as QR reads it
            stacked = np.empty((len(r) + rows.stop - lo, monos.shape[1]),
                               order="F")
            stacked[:len(r)] = r
            fill(stacked[len(r):].T, orders, rows)
            r = np.linalg.qr(stacked, mode="r")
        return r

    num_orders, den_orders = _TAG_FORMS[target]
    return monos, factor(num_orders), factor(den_orders)


def _form_size(target: str, dimension: int) -> int:
    """P, the number of monomials (and of factor columns) of a form."""
    return _monomials(dimension, len(_TAG_FORMS[target][0])).shape[1]


def _factor_bytes(target: str, dimension: int, n: int) -> int:
    """The most `_ratio_factors` holds at once on n nodes: the basis it
    reads, the weights, R_num, and 2.25 blocks of (rows + P) x P for the
    block and its QR (QR copies its input; the column temporaries take at
    most three quarters of a block), and 512 bytes per monomial for the
    index lists.  Traced: 1.01 to 1.14 times the peak, for dimensions 8
    to 30 on 129 to 12289 nodes."""
    size = _form_size(target, dimension)
    rows = min(n, FACTOR_ROWS)
    return (_basis_bytes(dimension, n, _TAG_ORDER[target])
            + 8 * (2 * n + size * size + 9 * (rows + size) * size // 4
                   + 64 * size))


def _report_bytes(target: Target, dimension: int, grid_n: int,
                  report_n: int) -> int:
    """The winner's stack on report_n nodes with its working arrays
    (`funcspace.sampled_bytes`), next to what the search on grid_n nodes
    still holds: the cached basis, 64 KB of small objects and free lists
    (traced: up to 40 KB) and, for forms, the two factors and 512 bytes
    per monomial for the tuple free lists their index lists leave, as in
    `_factor_bytes` (72 KB traced for ratio6 at dimension 16).  Code is
    not counted, such as numpy.fft, imported by a process's first FFT.
    Traced: 1.00 to 1.31 times the report's peak, for dimensions 6 to 49
    on 257 to 131073 report nodes."""
    order = _target_order(target)
    held = _basis_bytes(dimension, grid_n, order) + 8 * 8192
    if _uses_forms(target, dimension, grid_n):
        size = _form_size(target, dimension)
        held += 8 * (2 * size * size + 64 * size)
    arrays = 20 if target == "ratio-half" else 4  # seminorm or Simpson
    return fs.sampled_bytes(report_n, order, arrays) + held


def _forms(target: str, dimension: int, n: int):
    """(rows, batch, value_and_gradient): the evaluators of a ratio4/ratio6
    target as (N / D)^p, with N = |a|^2, a = R_num y, D = |b|^2,
    b = R_den y, p = 1/(2d), y each monomial's product of coefficients and
    the cached factors of `_ratio_factors`: the grid objective's Simpson
    sums in another order, so only roundoff differs.  A row with D = 0
    reads 0.0, and value_and_gradient reads (0.0, zeros) where N or D is 0.

    - rows maps unit rows to a list of floats.  Each row takes its own
      matrix-vector products and dots and its power as a Python float, so
      its value does not depend on the rows beside it (a matrix product or
      a power over an array moves last bits); more than BATCH_ROWS rows go
      in blocks of that many, which keeps the temporaries a few MB.
    - batch maps unit rows to an array through one matrix product per
      factor for each block of BATCH_ROWS rows.
    - value_and_gradient gives one unit row's ratio and exact gradient.
      The gradient in y is ratio * v, v = 2p (R_num^T a / N - R_den^T b / D);
      the gradient in c adds, for each factor j, v_k times the product of
      the other d - 1 factors into coefficient monos[j, k].  It is
      orthogonal to the unit row, as the ratio is 0-homogeneous.  24 us a
      call for ratio4 at dimension 16 and 66-68 us for ratio6 (2 vCPU,
      numpy 2.4).
    """
    monos, r_num, r_den = _ratio_factors(target, dimension, n)
    power = 0.5 / monos.shape[0]

    def products(unit: np.ndarray) -> np.ndarray:
        y = unit[..., monos[0]]
        for idx in monos[1:]:
            y *= unit[..., idx]
        return y

    def rows(unit: np.ndarray) -> list:
        if len(unit) > BATCH_ROWS:
            return [r for lo in range(0, len(unit), BATCH_ROWS)
                    for r in rows(unit[lo:lo + BATCH_ROWS])]
        y = products(unit)
        num = r_num @ y[:, :, None]
        den = r_den @ y[:, :, None]
        num2 = (num.transpose(0, 2, 1) @ num).ravel().tolist()
        den2 = (den.transpose(0, 2, 1) @ den).ravel().tolist()
        return [(a / b) ** power if b != 0.0 else 0.0
                for a, b in zip(num2, den2)]

    def batch(unit: np.ndarray) -> np.ndarray:
        if len(unit) > BATCH_ROWS:
            return np.concatenate([batch(unit[lo:lo + BATCH_ROWS])
                                   for lo in range(0, len(unit), BATCH_ROWS)])
        y = products(unit)
        num = y @ r_num.T
        den = y @ r_den.T
        num2 = np.einsum("ij,ij->i", num, num)
        den2 = np.einsum("ij,ij->i", den, den)
        live = den2 != 0.0
        values = np.zeros(len(unit))
        values[live] = (num2[live] / den2[live]) ** power
        return values

    def value_and_gradient(unit: np.ndarray):
        y = products(unit)
        a = r_num @ y
        b = r_den @ y
        num2, den2 = float(a @ a), float(b @ b)
        grad = np.zeros(dimension)
        if num2 == 0.0 or den2 == 0.0:
            return 0.0, grad
        ratio = (num2 / den2) ** power
        v = (2.0 * power * ratio) * (a @ r_num / num2 - b @ r_den / den2)
        for j, idx in enumerate(monos):
            w = v
            for other in (*monos[:j], *monos[j + 1:]):
                w = w * unit[other]
            grad += np.bincount(idx, w, dimension)
        return ratio, grad

    return rows, batch, value_and_gradient


def _make_objective(target: Target, dimension: int, n: int):
    """Returns (ratios, batch, gradient, basis) for a search: many calls on
    one grid.

    ratios maps unit coefficient rows, a (rows, dimension) array, to their
    ratios as a list of floats, each row's float its own; batch maps them
    to an array, which may sum many rows at once.  ratio4 and ratio6
    evaluate as polynomial forms (`_forms`) whenever their two factors
    hold no more entries than the derivative stack they replace and the
    splines are local (FORM_MIN_DIMENSION), and their build
    (`_factor_bytes`) is refused above the byte cap before it starts;
    gradient is then the forms' ratio and exact gradient of one unit row.
    Every other target and size calls the grid objective, which stays the
    oracle, once per row in ratios and batch alike, and has no gradient
    (None).  A ratio-half search on more than 1024 nodes keeps every
    SEMINORM_SEARCH_STRIDE-th node.
    """
    stride = SEMINORM_SEARCH_STRIDE if target == "ratio-half" and n > 1024 else 1
    forms = _uses_forms(target, dimension, n)
    if forms:
        fs.refuse_above_cap(
            f"the {target} factors for dimension {dimension} on {n} nodes",
            _factor_bytes(target, dimension, n))
    ratio, basis = _grid_objective(target, dimension, n, stride)
    if forms:
        return (*_forms(target, dimension, n), basis)

    def ratios(unit: np.ndarray) -> list:
        return [ratio(c) for c in unit]

    return ratios, lambda unit: np.array(ratios(unit)), None, basis


def _uses_forms(target: Target, dimension: int, n: int) -> bool:
    """Whether a search on n nodes evaluates the target as forms: ratio4
    or ratio6 with local splines and factors no larger than the stack."""
    if target not in _TAG_FORMS or dimension < FORM_MIN_DIMENSION:
        return False
    return 2 * _form_size(target, dimension) ** 2 <= (
        (_TAG_ORDER[target] + 1) * n * dimension)


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


def _lockstep(objective, starts, maxfev: int, xatol: float, fatol: float):
    """The adaptive Nelder-Mead simplex from every start at once, each run
    taking the steps it would take alone.

    Gao & Han, "Implementing the Nelder-Mead simplex algorithm with
    adaptive parameters" (Comput. Optim. Appl. 51, 2012): reflection 1,
    expansion 1 + 2/N, contraction 3/4 - 1/(2N), shrink 1 - 1/N in N
    dimensions.  The initial simplex moves one entry of x0 at a time by
    5%, or to 0.00025 where it is zero; vertices are ordered by argsort of
    their values after the initial simplex and at the top of every step.
    A run stops when every vertex is within xatol of the best in each
    coordinate and within fatol of it in value, or when maxfev evaluations
    are spent.  No point is asked for past the budget: a step it cuts
    short is abandoned where it stands (a shrink keeps the one vertex it
    moved past the budget, with its old value), and a vertex of the
    initial simplex never evaluated keeps +inf.

    The simplices are one (N + 1, runs, N) array, vertex first, and their
    values one (runs, N + 1) array.  Each round sorts the runs at the top
    of a step by a row-wise argsort (each row ordered as argsort orders it
    alone), takes every run's centroid and its point as array operations,
    makes one objective call (rows to a list of floats) on a copy of the
    points, and writes back what each run keeps.  The accept, stop and
    shrink rules read each run's floats as Python floats: at a few dozen
    runs that costs less than the two dozen array operations their masks
    take.  Returns ([(x, f, evaluations) per start], the number of values
    that were 0.0), with x a run's best vertex and f its least value.
    """
    x0 = np.array(starts, dtype=float)
    runs, dim = x0.shape
    chi, psi, sigma = 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    # a run's phase is the row of its point's coefficients, c1 * xbar -
    # c2 * worst: the reflection at the top of a step, then the expansion,
    # outside or inside contraction (c2 = -psi gives the floats of
    # + psi * worst, as IEEE negation is exact); a shrinking run asks its
    # moved vertices instead and does not use its row
    coeffs = np.array([[2.0, 1.0], [1 + chi, chi], [1 + psi, psi],
                       [1 - psi, -psi], [2.0, 1.0]])
    shrinking = len(coeffs) - 1
    sim = np.repeat(x0[None], dim + 1, axis=0)
    diag = np.arange(dim)
    sim[diag + 1, :, diag] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025).T
    first = min(dim + 1, maxfev)
    points = np.array(sim[:first].transpose(1, 0, 2)).reshape(-1, dim)
    values = objective(points)
    zeros = values.count(0.0)
    fsim = np.full((runs, dim + 1), np.inf)
    fsim[:, :first] = np.reshape(values, (runs, first))
    # sorted here and at the top of the first step: argsort need not keep
    # ties in place
    ind = fsim.argsort(1)
    rows, cols = np.arange(runs)[:, None], np.arange(runs)
    sim, fsim = sim[ind.T, cols], fsim[rows, ind]
    ids = list(range(runs))
    nfev, phase = [first] * runs, [0] * runs
    fxr, count = [0.0] * runs, [0] * runs
    xr = np.zeros((runs, dim))
    results = [None] * runs
    while True:
        if 0 in phase:
            ind = fsim.argsort(1)
            mid = [i for i, p in enumerate(phase) if p]
            if mid:
                ind[mid] = np.arange(dim + 1)
            sim, fsim = sim[ind.T, cols], fsim[rows, ind]
            lows, highs = fsim[:, 0].tolist(), fsim[:, -1].tolist()
            # a sorted run's widest spread in value is its last gap (nan
            # last); its spread in x is read only when that gap is small
            done = [i for i, p in enumerate(phase)
                    if not p and nfev[i] >= maxfev]
            near = [i for i, p in enumerate(phase) if not p and
                    nfev[i] < maxfev and highs[i] - lows[i] <= fatol]
            if near:
                spread = np.abs(sim[1:, near] - sim[0, near]).max((0, 2))
                done = sorted(done + [i for i, s in zip(near, spread.tolist())
                                      if s <= xatol])
            if done:
                for i in done:
                    results[ids[i]] = (sim[0, i].copy(), fsim[i].min(),
                                       nfev[i])
                if len(done) == len(ids):
                    return results, zeros
                live = [i for i in range(len(ids)) if i not in done]
                sim, fsim, xr = sim[:, live], fsim[live], xr[live]
                ids, nfev, phase, fxr, count = (
                    [a[i] for i in live]
                    for a in (ids, nfev, phase, fxr, count))
                cols = np.arange(len(ids))
                rows = cols[:, None]
        xbar = np.add.reduce(sim[:-1], 0) / dim
        c = coeffs[phase]
        trial = c[:, :1] * xbar - c[:, 1:] * sim[-1]
        if shrinking in phase:
            one = [i for i, p in enumerate(phase) if p != shrinking]
            run = [i for i, p in enumerate(phase) if p == shrinking
                   for _ in range(count[i])]
            at = [j for i, p in enumerate(phase) if p == shrinking
                  for j in range(1, count[i] + 1)]
            values = objective(np.concatenate([trial[one], sim[at, run]]))
            fsim[run, at] = values[len(one):]
        else:
            values = objective(trial.copy())
        zeros += values.count(0.0)
        lows, seconds = fsim[:, 0].tolist(), fsim[:, -2].tolist()
        highs = fsim[:, -1].tolist()
        new, newf, back, ask, shrink = [], [], [], [], []
        k = 0
        for i, p in enumerate(phase):
            if p == shrinking:
                nfev[i] += count[i]
                phase[i] = 0
                continue
            f = values[k]
            k += 1
            nfev[i] += 1
            if not p:
                # a reflection is kept, or a second point is asked while
                # the budget lasts
                if not f < lows[i] and f < seconds[i]:
                    new.append(i)
                    newf.append(f)
                elif nfev[i] < maxfev:
                    ask.append(i)
                    fxr[i] = f
                    phase[i] = 1 if f < lows[i] else 2 if f < highs[i] else 3
                continue
            # an expansion keeps the better of it and the reflection; a
            # contraction is kept, or the simplex shrinks
            phase[i] = 0
            if fxr[i] < lows[i] and not f < fxr[i]:
                back.append(i)
            elif fxr[i] < lows[i] or ((f <= fxr[i]) if fxr[i] < highs[i]
                                      else (f < highs[i])):
                new.append(i)
                newf.append(f)
            else:
                shrink.append(i)
        if new:
            sim[-1, new] = trial[new]
            fsim[new, -1] = newf
        if back:
            sim[-1, back] = xr[back]
            fsim[back, -1] = [fxr[i] for i in back]
        if ask:
            xr[ask] = trial[ask]
        if shrink:
            low = sim[0, shrink]
            moved = low + sigma * (sim[1:, shrink] - low)
            for j, i in enumerate(shrink):
                count[i] = min(dim, maxfev - nfev[i])
                phase[i] = shrinking if count[i] else 0
                # vertices 1..count + 1 move; vertex count + 1 keeps its
                # old value
                sim[1:count[i] + 2, i] = moved[:count[i] + 1, j]


def _lockstep_bytes(restarts: int, dimension: int) -> int:
    """`_lockstep`'s bytes for `restarts` starts in dimension d, most in
    the first round: per run its start, its simplex, its d + 1 points twice
    (copied, then unit), 13 words per point for its length and value, and
    128 words for the start's array header, its entries in the per-run
    lists and headroom.  At d = 8, 16, 30 and 49 this is 1.31, 1.11, 1.04
    and 1.015 times the traced growth of the peak per run."""
    return 8 * restarts * ((dimension + 1) * (3 * dimension + 16) + 128)


def _bfgs(value_and_gradient, x0: np.ndarray, maxfev: int, fatol: float):
    """BFGS on the unit sphere from x0: minimizes -ratio with its exact
    gradient, spending at most maxfev calls of value_and_gradient (a unit
    row to its ratio and gradient, `_forms`' value_and_gradient).

    Nocedal & Wright, *Numerical Optimization* (2006), ch. 6, with the
    inverse Hessian approximation H = I at the start, as scipy's BFGS
    starts: N&W's scaling s.y / y.y before the first update (their 6.20)
    ended at 1.2609399 from perfbench's ratio4 incumbent and at 1.2603076
    from README's, where the identity reaches 1.2610153.  Each step
    searches along p = -H g projected onto the tangent plane at x, so
    |x + t p| >= 1, with a strong-Wolfe line search (`_wolfe_search`) whose
    first trial is min(1, 2.02 (f_prev - f) / -g.p) (N&W 3.60; f_prev =
    f + |g| / 2 at the start, a first step of about unit length), and moves
    to x + t p scaled back to unit length.  The ratio is 0-homogeneous, so
    the gradient at x + t p is the unit point's over |x + t p|: the pair
    (s, y) = (t p, the change of that gradient) is the exact secant of the
    line, and s.y > 0 whenever the curvature condition holds; an update
    with s.y <= 0 is skipped.  The run stops when p is not a descent
    direction, when the line search fails or would pass the budget (the
    point stays where it was), or after a step that lowers the value by no
    more than fatol.  Returns ([(x, f, evaluations)], the number of values
    that were 0.0), as `_lockstep` does for one start.
    """
    nfev = zeros = 0

    def evaluate(z):
        nonlocal nfev, zeros
        if nfev >= maxfev:
            return None
        nfev += 1
        length = math.sqrt(z @ z)
        ratio, grad = value_and_gradient(z / length)
        zeros += ratio == 0.0
        return -ratio, grad / -length

    x = x0 / math.sqrt(x0 @ x0)
    f, g = evaluate(x)
    f_prev = f + 0.5 * math.sqrt(g @ g)
    h = np.eye(len(x))
    while True:
        p = -(h @ g)
        p -= (p @ x) * x
        slope = float(g @ p)
        if not slope < 0.0:
            break

        def phi(t):
            point = evaluate(x + t * p)
            if point is None:
                return None
            return point[0], float(point[1] @ p), point[1]

        step = _wolfe_search(phi, f, slope,
                             min(1.0, 2.02 * (f - f_prev) / slope))
        if step is None:
            break
        t, f_new, g_new = step
        s = t * p
        y = g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            hy = h @ y
            h += (((sy + y @ hy) / sy) * np.outer(s, s)
                  - np.outer(hy, s) - np.outer(s, hy)) / sy
        z = x + s
        length = math.sqrt(z @ z)
        x, g = z / length, g_new * length
        stalled = not f_new < f - fatol
        f_prev, f = f, f_new
        if stalled:
            break
    return [(x, f, nfev)], zeros


def _wolfe_search(phi, f0: float, d0: float, t: float):
    """A step t > 0 with phi(t) <= f0 + WOLFE[0] t d0 and
    |phi'(t)| <= -WOLFE[1] d0 (the strong Wolfe conditions), from a first
    trial t, by Moré & Thuente's search ("Line search algorithms with
    guaranteed sufficient decrease", ACM TOMS 20, 1994), the one scipy's
    BFGS tries first.

    phi(t) gives (phi(t), phi'(t), payload), or None once the budget is
    spent.  Until a trial has sufficient decrease and phi' >= 0, steps are
    chosen on psi(t) = phi(t) - f0 - WOLFE[0] t d0 (the paper's first
    stage).  Before the minimizer is bracketed a trial extrapolates to
    within 1.1 to 4 times its distance from the best step so far; once it
    is bracketed, an interval that two trials did not shrink to 2/3 is
    bisected.  Returns (t, phi(t), payload), or None when phi is spent or
    rounding leaves no room: the interval is within 1e-14 relative, or the
    next trial falls outside it.  Nocedal & Wright's Algorithm 3.5/3.6
    with a safeguarded cubic zoom ended ratio6's perfbench polish at
    1.4153745, where this search and scipy's reach 1.4391448.
    """
    c1, c2 = WOLFE
    gtest = c1 * d0
    bracketed, stage1 = False, True
    width = width1 = math.inf
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = d0
    lo, hi = 0.0, 5.0 * t
    while True:
        trial = phi(t)
        if trial is None:
            return None
        f, g, payload = trial
        ftest = f0 + t * gtest
        if stage1 and f <= ftest and g >= 0.0:
            stage1 = False
        if f <= ftest and abs(g) <= -c2 * d0:
            return t, f, payload
        if bracketed and (t <= lo or t >= hi or hi - lo <= 1e-14 * hi):
            return None
        if stage1 and fx >= f > ftest:
            stx, fx, gx, sty, fy, gy, t, bracketed = _wolfe_step(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest,
                gy - gtest, t, f - t * gtest, g - gtest, bracketed, lo, hi)
            fx, fy = fx + stx * gtest, fy + sty * gtest
            gx, gy = gx + gtest, gy + gtest
        else:
            stx, fx, gx, sty, fy, gy, t, bracketed = _wolfe_step(
                stx, fx, gx, sty, fy, gy, t, f, g, bracketed, lo, hi)
        if bracketed:
            if abs(sty - stx) >= 0.66 * width1:
                t = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            lo, hi = min(stx, sty), max(stx, sty)
            if t <= lo or t >= hi or hi - lo <= 1e-14 * hi:
                t = stx
        else:
            lo, hi = t + 1.1 * (t - stx), t + 4.0 * (t - stx)


def _cubic(ta, fa, da, tb, fb, db):
    """theta and gamma >= 0 of the cubic through (ta, fa) and (tb, fb) with
    slopes da and db: its turning points are where theta +- gamma vanish,
    in Moré & Thuente's scaled form; gamma is 0 where it has none."""
    theta = 3.0 * (fa - fb) / (tb - ta) + da + db
    s = max(abs(theta), abs(da), abs(db))
    return theta, s * math.sqrt(
        max(0.0, (theta / s) ** 2 - (da / s) * (db / s)))


def _wolfe_step(stx, fx, dx, sty, fy, dy, stp, fp, dp, bracketed, lo, hi):
    """Moré & Thuente's safeguarded step (dcstep): the next trial from the
    best step stx, the other end sty and the trial stp, each with its value
    and slope, and the interval (stx, sty) updated by the trial.  Four
    cases, as the paper numbers them: a higher value (the minimizer is
    bracketed; the cubic step, or its mean with the quadratic one when that
    is nearer), a slope of the other sign (bracketed; the cubic or the
    secant step, whichever is farther), a smaller slope of the same sign
    (the cubic step if it lies beyond stp, else an end of [lo, hi]; kept
    within 2/3 of the way to sty once bracketed), and else the cubic
    through stp and sty, or an end of [lo, hi] while unbracketed.  Returns
    (stx, fx, dx, sty, fy, dy, next trial, bracketed)."""
    sgnd = dp * math.copysign(1.0, dx)
    if fp > fx:
        theta, gamma = _cubic(stx, fx, dx, stp, fp, dp)
        gamma = -gamma if stp < stx else gamma
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (
            stp - stx)
        if abs(stpc - stx) < abs(stpq - stx):
            step = stpc
        else:
            step = stpc + (stpq - stpc) / 2.0
        bracketed = True
    elif sgnd < 0.0:
        theta, gamma = _cubic(stx, fx, dx, stp, fp, dp)
        gamma = -gamma if stp > stx else gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        step = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        bracketed = True
    elif abs(dp) < abs(dx):
        theta, gamma = _cubic(stx, fx, dx, stp, fp, dp)
        gamma = -gamma if stp > stx else gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = hi if stp > stx else lo
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if bracketed:
            step = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            far = stp + 0.66 * (sty - stp)
            step = min(far, step) if stp > stx else max(far, step)
        else:
            step = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            step = min(max(step, lo), hi)
    elif bracketed:
        theta, gamma = _cubic(sty, fy, dy, stp, fp, dp)
        gamma = -gamma if stp > sty else gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        step = stp + r * (sty - stp)
    else:
        step = hi if stp > stx else lo
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0.0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, step, bracketed


def _batch_bytes(count: int, dimension: int) -> int:
    """`random_ratio_batch`'s bytes: per candidate its normals, their
    squares, its length and value (traced: 1.0 to 1.5 times the growth)."""
    return 8 * count * (2 * dimension + 2)


def _search_values(ratios, rows: np.ndarray) -> list:
    """What a search minimizes: minus the ratio of each row scaled to unit
    length, 0.0 for a row of zero or non-finite length (both degenerate,
    as is a ratio of 0.0).  The length is the square root of a row-by-
    column product, the float np.linalg.norm gives for that row."""
    lengths = np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0]
    flat = lengths.ravel().tolist()
    live = [i for i, length in enumerate(flat) if 0.0 < length < math.inf]
    if len(live) == len(rows):
        return [-r for r in ratios(rows / lengths)]
    values = [0.0] * len(rows)
    for i, r in zip(live, ratios(rows[live] / lengths[live])):
        values[i] = -r
    return values


def estimate_constant(target: Target,
                      config: Optional[SearchConfig] = None) -> SearchResult:
    """Maximize the target's lhs/rhs ratio over the candidate family.

    Runs `config.restarts` Nelder-Mead starts (warm starts first, then
    random vectors drawn from per-restart streams seeded by
    (config.seed, restart index)) in lockstep, polishes the incumbent with
    2.5 times the budget and a hundredth of the tolerance, and reports the
    winner's ratio on its own stack sampled on the report grid.  The polish
    is BFGS on the exact gradient where the objective has one (ratio4 and
    ratio6 as forms; each value-and-gradient call is one evaluation), and a
    Nelder-Mead run otherwise.  The trace and the incumbent follow restart
    order, the polish last.  The restarts, the winner's stack and the
    factors are refused up front when their formulas put them above the
    byte cap.
    """
    config = config or SearchConfig()
    fs.refuse_above_cap(
        f"{config.restarts} Nelder-Mead restarts in dimension "
        f"{config.dimension}",
        _lockstep_bytes(config.restarts, config.dimension))
    label = _target_label(target)
    order = _target_order(target)
    report_n = (min(config.report_grid_n, SEMINORM_REPORT_N)
                if target == "ratio-half" else config.report_grid_n)
    fs.refuse_above_cap(
        f"the winner's stack to order {order} on {report_n} nodes",
        _report_bytes(target, config.dimension, config.grid_n, report_n))
    ratios, _, gradient, basis = _make_objective(target, config.dimension,
                                                 config.grid_n)
    objective = partial(_search_values, ratios)
    starts = warm_starts(basis[0])
    n_warm = min(len(starts), config.restarts)
    starts = starts[:n_warm]
    for idx in range(n_warm, config.restarts):
        rng = np.random.default_rng([config.seed, idx])
        starts.append(rng.standard_normal(config.dimension))

    # the restarts, then one polishing run from the incumbent with 2.5
    # times the budget: BFGS where the objective has a gradient, else a
    # longer Nelder-Mead run; each run is one trace entry, in order, and a
    # winner that beats the incumbent is kept as a unit vector
    kinds = ["warm"] * n_warm + ["random"] * (config.restarts - n_warm)
    budget, tol = config.budget, config.tol
    trace, best, best_vec, evals, degenerate = [], 0.0, None, 0, 0
    for polish in (False, True):
        if polish and gradient is not None:
            runs, zeros = _bfgs(gradient, best_vec, budget, tol)
        else:
            runs, zeros = _lockstep(objective, starts, budget, 1e-9, tol)
        degenerate += zeros
        for (x, fun, nfev), kind in zip(runs, kinds):
            evals += nfev
            val = -float(fun)
            if val > best:
                nrm = np.linalg.norm(x)
                best, best_vec = val, x / nrm if nrm > 0.0 else x
            trace.append({"restart": len(trace), "kind": kind, "ratio": val,
                          "best_so_far": best})
        if best_vec is None:
            raise SearchFailureError(
                f"all {evals} evaluations degenerate for target {label} "
                f"({degenerate} zero-ratio candidates)")
        starts, kinds = [best_vec], ["polish"]
        budget, tol = max(budget, int(2.5 * budget)), tol * 1e-2

    fine = _ratio_fn(target)(fs.sample(fs.SplineBump(best_vec), (0.0, 1.0),
                                       report_n, order))
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
    """Ratios of seeded random unit candidates, through the search
    objective's batch evaluator (`_make_objective`): the forms in blocks
    of rows, or one grid objective call each.

    This is the coarse random-search oracle used to sanity-check the
    proof ceilings and to lower-bound the optimizer: the max over many
    random unit coefficient vectors must stay below the ceiling and the
    optimizer must beat this max.  All normals come from one draw, so
    the candidates depend only on (seed, count, dimension).
    """
    count = norms._count("count", count, 1)
    dimension = norms._count("dimension", dimension, 6)
    seed = norms._count("seed", seed, 0)
    norms._check_grid_n(grid_n)
    fs.refuse_above_cap(f"{count} random candidates in dimension {dimension}",
                        _batch_bytes(count, dimension))
    _, batch, _, _ = _make_objective(target, dimension, grid_n)
    coeffs = np.random.default_rng(seed).standard_normal((count, dimension))
    lengths = np.linalg.norm(coeffs, axis=1)
    lengths[lengths == 0.0] = 1.0
    coeffs /= lengths[:, None]
    values = batch(coeffs)
    idx = int(np.argmax(values))
    best = max(float(values[idx]), 0.0)
    return {"target": _target_label(target), "count": count,
            "max": best, "mean": float(values.mean()),
            "degenerate": int(np.sum(values == 0.0)),
            "argmax": coeffs[idx].tolist() if best > 0.0 else None,
            "grid_n": grid_n, "seed": seed, "dimension": dimension}

