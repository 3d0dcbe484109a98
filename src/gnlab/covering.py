"""Balance functions, critical radii, and Besicovitch interval selection.

For a window J = (x-h, x+h) (clipped to the unit interval in bounded mode)
with length l = |J|, the two balance functions are

    alpha_x(h) = l^{kbar - 1/(q kappa)} * ||v||_{L^q(J)}^{1/kappa},
    beta_x(h)  = l^{m - 1/r} * ||D^m u||_{L^r(J)},

where v = D^{k_1}u ... D^{k_kappa}u.  On the set E where both u and v are
nonzero, alpha dominates for small windows and beta for large ones, so the
critical radius r_x (first crossing of alpha - beta) is well defined; the
intervals (x - r_x, x + r_x) satisfy the balance equality exactly, and a
greedy selection covers E with overlap at most 4.

Window integrals use a dyadic segment decomposition of trapezoid cell
sums with quadratic in-cell end pieces, and window maxima use a sparse
table with interpolated endpoints, so alpha and beta are continuous in h
and accurate at the local scale even deep in the support tails.  A
geometric scan from h = 2 dx, up where alpha > beta and down elsewhere,
brackets each crossing, evaluating only points not yet bracketed; a
bisection over the brackets that still move then drives the balance
residual to machine level.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, NoCrossingError, ParameterError
from .funcspace import GridFunction
from .norms import derivative_product

#: relative balance equality tolerance per selected interval
BALANCE_TOL = 1e-6
#: relative thresholds defining the working set E
DEFAULT_THRESHOLD = 1e-9
#: geometric scan step for the crossing search
SCAN_FACTOR = 1.05
#: bisection refinement steps after bracketing
BISECT_STEPS = 60
#: scan ceiling, in units of the domain length
HMAX_FACTOR = 10.0


@dataclass(frozen=True)
class BalanceSpec:
    """Orders and exponents feeding alpha and beta, plus the domain mode."""

    ks: tuple
    q: float
    m: int
    r: float
    mode: str = "real-line"

    def __post_init__(self):
        ks = tuple(int(k) for k in self.ks)
        if not ks or list(ks) != sorted(ks) or ks[0] < 0:
            raise ParameterError("ks must be nonempty, sorted, nonnegative")
        if self.m <= ks[-1]:
            raise ParameterError("m must exceed every product order")
        for name, v in (("q", self.q), ("r", self.r)):
            if not (float(v) >= 1.0 or math.isinf(float(v))):
                raise ParameterError(f"{name} must be >= 1 or inf")
        if self.mode not in ("real-line", "bounded"):
            raise ParameterError("mode must be real-line|bounded")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "r", float(self.r))

    @property
    def kappa(self) -> int:
        return len(self.ks)

    @property
    def kbar(self) -> float:
        return sum(self.ks) / self.kappa

    @classmethod
    def from_params(cls, params, mode: str = "real-line") -> "BalanceSpec":
        return cls(params.ks, float(params.q), params.m, float(params.r), mode)


class _SegmentIntegral:
    """Window integrals of a nonnegative integrand, trapezoid between nodes.

    A plain cumulative prefix loses the entire window integral to
    cancellation once the local mass drops below machine epsilon times the
    total (which happens in the flat tails of the bump families).  Here
    each query is assembled from O(log n) dyadic cell-block sums plus the
    two fractional end cells; every addend is nonnegative and of the local
    scale, so the relative error stays at the eps*log^2(n) level of the
    window integral itself.
    """

    def __init__(self, f: np.ndarray, dx: float):
        self.f = f
        self.dx = dx
        cells = 0.5 * (f[1:] + f[:-1]) * dx
        levels = [cells]
        cur = cells
        while cur.size > 1:
            if cur.size & 1:
                cur = np.append(cur, 0.0)
            cur = cur[0::2] + cur[1::2]
            levels.append(cur)
        self.levels = levels

    def _cell_range_sum(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Sum of whole cells with indices in [lo, hi), vectorized."""
        total = np.zeros(lo.shape)
        lo = lo.astype(np.int64).copy()
        hi = hi.astype(np.int64).copy()
        for level in self.levels:
            active = lo < hi
            if not np.any(active):
                break
            m = active & ((lo & 1) == 1)
            if np.any(m):
                total[m] += level[lo[m]]
                lo = np.where(m, lo + 1, lo)
            m2 = (lo < hi) & ((hi & 1) == 1)
            if np.any(m2):
                hi = np.where(m2, hi - 1, hi)
                total[m2] += level[hi[m2]]
            lo >>= 1
            hi >>= 1
        return total

    def __call__(self, lo_pos: np.ndarray, hi_pos: np.ndarray) -> np.ndarray:
        n = self.f.size
        lo = np.clip(lo_pos, 0.0, n - 1.0)
        hi = np.clip(hi_pos, 0.0, n - 1.0)
        hi = np.maximum(hi, lo)
        jl = np.minimum(np.floor(lo).astype(np.int64), n - 2)
        jh = np.minimum(np.floor(hi).astype(np.int64), n - 2)
        f, dx = self.f, self.dx

        def piece(j, a, b):
            fj = f[j]
            df = f[j + 1] - fj
            return dx * (fj * (b - a) + 0.5 * df * (b * b - a * a))

        la = lo - jl
        ha = hi - jh
        out = np.zeros(lo.shape)
        same = jl == jh
        if np.any(same):
            out[same] = piece(jl[same], la[same], ha[same])
        dif = ~same
        if np.any(dif):
            left = piece(jl[dif], la[dif], 1.0)
            right = piece(jh[dif], 0.0, ha[dif])
            mid = self._cell_range_sum(jl[dif] + 1, jh[dif])
            out[dif] = left + mid + right
        return out


class _RangeMax:
    """Sparse-table range maximum with interpolated fractional endpoints."""

    def __init__(self, f: np.ndarray):
        self.f = f
        levels = [f.copy()]
        k = 1
        while 2 * k <= f.size:
            prev = levels[-1]
            levels.append(np.maximum(prev[:-k], prev[k:]))
            k *= 2
        self.levels = levels

    def _node_max(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Max over inclusive node index range [lo, hi]; -inf when empty."""
        out = np.full(lo.shape, -np.inf)
        ok = hi >= lo
        lo, hi = lo[ok], hi[ok]
        # k = floor(log2(length)), exactly; two windows of 2^k nodes, one
        # starting at lo and one ending at hi, cover the range
        k = np.frexp(hi - lo + 1)[1] - 1
        res = np.empty(lo.shape)
        for kk in np.unique(k):
            m = k == kk
            tbl = self.levels[kk]
            res[m] = np.maximum(tbl[lo[m]], tbl[hi[m] - (1 << kk) + 1])
        out[ok] = res
        return out

    def __call__(self, lo_pos: np.ndarray, hi_pos: np.ndarray) -> np.ndarray:
        n = self.f.size
        lo_pos = np.clip(lo_pos, 0.0, n - 1.0)
        hi_pos = np.clip(hi_pos, 0.0, n - 1.0)
        li = np.ceil(lo_pos).astype(int)
        hi_i = np.floor(hi_pos).astype(int)
        inner = self._node_max(li, hi_i)

        def interp(pos):
            i = np.minimum(pos.astype(int), n - 2)
            tau = pos - i
            return self.f[i] * (1 - tau) + self.f[i + 1] * tau

        return np.maximum(inner, np.maximum(interp(lo_pos), interp(hi_pos)))


def _window_norm(f: np.ndarray, p: float, dx: float):
    """Window aggregate behind ||f||_{L^p}: max for p = inf, else int f^p."""
    return _RangeMax(f) if math.isinf(p) else _SegmentIntegral(f ** p, dx)


class BalanceEvaluator:
    """Vectorized alpha/beta over many (x, h) pairs for one grid function."""

    def __init__(self, u: GridFunction, spec: BalanceSpec):
        if max(spec.m, spec.ks[-1]) > u.max_derivative:
            raise ParameterError(
                f"stack holds derivatives to {u.max_derivative}, "
                f"spec needs {max(spec.m, spec.ks[-1])}")
        self.u = u
        self.spec = spec
        self.v = derivative_product(u, spec.ks)
        self.w = np.abs(u.stack[spec.m])
        self._v_norm = _window_norm(np.abs(self.v), spec.q, u.dx)
        self._w_norm = _window_norm(self.w, spec.r, u.dx)

    def _window(self, x, h):
        lo = x - h
        hi = x + h
        if self.spec.mode == "bounded":
            lo = np.maximum(lo, self.u.a)
            hi = np.minimum(hi, self.u.b)
            length = np.maximum(hi - lo, 0.0)
        else:
            length = 2.0 * h
        lo_pos = (lo - self.u.a) / self.u.dx
        hi_pos = (hi - self.u.a) / self.u.dx
        return lo_pos, hi_pos, length

    def _balance(self, norm, p, root, order, x, h):
        """l^{order - 1/(p root)} ||f||_{L^p(J)}^{1/root}, J = (x-h, x+h),
        with ``norm`` the window aggregate of f (integral of f^p, or max)."""
        lo, hi, length = self._window(np.asarray(x, dtype=float),
                                      np.asarray(h, dtype=float))
        agg = norm(lo, hi)
        if math.isinf(p):
            return length ** float(order) * agg ** (1.0 / root)
        e = 1.0 / (p * root)
        return length ** (order - e) * agg ** e

    def alpha(self, x, h):
        s = self.spec
        return self._balance(self._v_norm, s.q, s.kappa, s.kbar, x, h)

    def beta(self, x, h):
        s = self.spec
        return self._balance(self._w_norm, s.r, 1, s.m, x, h)

    def working_set(self, stride: int = 1,
                    threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
        """Indices (into the grid) of E = {|u| and |v| above threshold},
        subsampled by stride.  The threshold lies in [0, 1): at 1 no
        point clears it and the cover would be vacuous."""
        if not 0.0 <= threshold < 1.0:
            raise ParameterError(
                f"working-set threshold must be finite and in [0, 1), "
                f"got {threshold}")
        u0 = np.abs(self.u.stack[0])
        va = np.abs(self.v)
        mask = (u0 > threshold * u0.max()) & (va > threshold * va.max())
        idx = np.arange(0, self.u.n, stride)
        return idx[mask[idx]]

    def critical_radii(self, xs: np.ndarray) -> np.ndarray:
        """First crossing of alpha - beta for each x of a 1-D array.

        From h0 = 2 dx each point scans up where alpha > beta and down
        elsewhere until its last two scan points bracket the crossing;
        only points not yet bracketed are evaluated.  Then bisection."""
        xs = np.asarray(xs, dtype=float)
        h0 = 2.0 * self.u.dx
        hmin = 1e-12 * h0
        hmax = HMAX_FACTOR * (self.u.b - self.u.a)

        def gap(idx, h):
            return self.alpha(xs[idx], h) - self.beta(xs[idx], h)

        lo, hi = np.full((2, xs.size), h0)
        todo = np.arange(xs.size)
        up = gap(todo, lo) > 0.0
        while todo.size:
            go_up = up[todo]
            cur = np.where(go_up, hi[todo], lo[todo])
            nxt = np.where(go_up, cur * SCAN_FACTOR, cur / SCAN_FACTOR)
            out = (nxt > hmax) | (nxt < hmin)
            if np.any(out):
                raise NoCrossingError(
                    f"no balance crossing for h in [{hmin}, {hmax}] at x="
                    f"{xs[todo[out][0]]}; hypothesis failure for this spec")
            lo[todo] = np.where(go_up, cur, nxt)
            hi[todo] = np.where(go_up, nxt, cur)
            d = gap(todo, nxt)
            todo = todo[~np.where(go_up, d <= 0.0, d > 0.0)]
        # bisect [lo, hi]; a bracket whose midpoint rounds onto one of its
        # ends can never move again, so only the others are evaluated
        todo = np.arange(xs.size)
        for _ in range(BISECT_STEPS):
            mid = 0.5 * (lo[todo] + hi[todo])
            moves = (mid != lo[todo]) & (mid != hi[todo])
            todo, mid = todo[moves], mid[moves]
            if not todo.size:
                break
            take_hi = gap(todo, mid) <= 0.0
            hi[todo[take_hi]] = mid[take_hi]
            lo[todo[~take_hi]] = mid[~take_hi]
        return 0.5 * (lo + hi)


def balance_alpha(u: GridFunction, x: float, h: float,
                  spec: BalanceSpec) -> float:
    """alpha_x(h) = |J|^{kbar-1/(q kappa)} ||v||_{L^q(J)}^{1/kappa}."""
    if h <= 0:
        raise ParameterError("h must be positive")
    return float(BalanceEvaluator(u, spec).alpha(np.array([x]), np.array([h]))[0])


def balance_beta(u: GridFunction, x: float, h: float,
                 spec: BalanceSpec) -> float:
    """beta_x(h) = |J|^{m-1/r} ||D^m u||_{L^r(J)}."""
    if h <= 0:
        raise ParameterError("h must be positive")
    return float(BalanceEvaluator(u, spec).beta(np.array([x]), np.array([h]))[0])


def critical_radius(u: GridFunction, x: float, spec: BalanceSpec,
                    threshold: float = DEFAULT_THRESHOLD) -> float:
    """Smallest h with alpha_x(h) = beta_x(h), located by geometric scan
    plus bisection.  Requires x in the working set E."""
    ev = BalanceEvaluator(u, spec)
    if spec.mode == "real-line" and not spec.kbar < spec.m - 1:
        raise ParameterError(
            "real-line mode needs kbar < m-1 for a guaranteed crossing")
    xi = np.array([x], dtype=float)
    pos = (x - u.a) / u.dx
    i = int(round(pos))
    if not (0 <= i < u.n):
        raise ParameterError(f"x={x} outside the grid")
    if i not in ev.working_set(threshold=threshold):
        raise ParameterError(
            f"x={x} is not in the working set E (u or v vanishes there)")
    r = float(ev.critical_radii(xi)[0])
    a = float(ev.alpha(xi, np.array([r]))[0])
    b = float(ev.beta(xi, np.array([r]))[0])
    if abs(a - b) > BALANCE_TOL * max(a, b):
        raise InvariantError(
            f"balance residual {abs(a - b) / max(a, b)} above tolerance")
    return r


def besicovitch_select(centers, radii) -> list:
    """Greedy selection by descending radius, skipping candidates whose
    center already lies in a selected open interval.  Returns selected
    indices into the input arrays.

    With the selected ends in two sorted lists, #{lo < c} - #{hi <= c}
    selected intervals contain c; one that rounds to a point is left out.
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if centers.shape != radii.shape:
        raise ParameterError("centers and radii must have equal length")
    if np.any(radii <= 0):
        raise ParameterError("radii must be positive")
    order = np.lexsort((np.arange(centers.size), -radii))
    los: list = []
    his: list = []
    selected: list = []
    for idx, c, r in zip(order.tolist(), centers[order].tolist(),
                         radii[order].tolist()):
        if bisect_left(los, c) - bisect_right(his, c) > 0:
            continue
        selected.append(idx)
        if c - r < c + r:
            insort(los, c - r)
            insort(his, c + r)
    return selected


def overlap_profile(intervals: np.ndarray) -> int:
    """Maximum number of the open intervals that share a point.

    Exact endpoint sweep: +1 at each left end, -1 at each right end, with
    a right end sorted before a left end at the same coordinate because
    intervals that only touch share no point.
    """
    intervals = np.asarray(intervals, dtype=float)
    if intervals.size == 0:
        return 0
    ends = np.concatenate([intervals[:, 0], intervals[:, 1]])
    steps = np.repeat([1, -1], len(intervals))
    order = np.lexsort((steps, ends))
    return int(np.cumsum(steps[order]).max())


@dataclass
class CoverReport:
    """Besicovitch cover of the working set with its verification data."""

    centers: np.ndarray
    radii: np.ndarray
    intervals: np.ndarray
    max_overlap: int
    deficit_cells: int
    deficit_measure: float
    balance_residuals: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.centers.size and np.any(self.radii <= 0):
            raise InvariantError("selected radii must be positive")
        if self.max_overlap > 4:
            raise InvariantError(
                f"overlap {self.max_overlap} exceeds the Besicovitch bound 4")
        if self.balance_residuals.size and \
                float(np.max(self.balance_residuals)) > BALANCE_TOL:
            raise InvariantError("balance residual above tolerance")

    def to_dict(self) -> dict:
        meta = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.meta.items()}
        return {"centers": self.centers.tolist(),
                "radii": self.radii.tolist(),
                "intervals": self.intervals.tolist(),
                "max_overlap": self.max_overlap,
                "deficit_cells": self.deficit_cells,
                "deficit_measure": self.deficit_measure,
                "balance_residuals": self.balance_residuals.tolist(),
                "meta": meta}

    def csv_rows(self) -> list:
        ev = self.meta.get("alpha_beta")
        rows = []
        for i in range(self.centers.size):
            a, b = (ev[i] if ev is not None else (None, None))
            rows.append((self.centers[i], self.radii[i], a, b,
                         self.balance_residuals[i]))
        return rows


def build_cover(u: GridFunction, spec: BalanceSpec,
                e_resolution: int | None = None,
                threshold: float = DEFAULT_THRESHOLD) -> CoverReport:
    """Full pipeline: working set, critical radii, greedy selection,
    and the three verification passes.

    The working set is discretized on the function's own grid; when
    e_resolution is coarser than the grid, centers are taken on a strided
    subgrid but the coverage deficit is always measured against the full
    grid, so refining e_resolution can only help coverage.
    """
    if spec.mode == "real-line" and not spec.kbar < spec.m - 1:
        raise ParameterError(
            "real-line mode needs kbar < m-1; the boundary case reduces to "
            "a single-norm inequality and is rejected here")
    ev = BalanceEvaluator(u, spec)
    if e_resolution is None:
        e_resolution = u.n
    if e_resolution < 2 or e_resolution > u.n:
        raise ParameterError("e_resolution must be in [2, grid size]")
    stride = max(1, round((u.n - 1) / (e_resolution - 1)))
    idx = ev.working_set(stride=stride, threshold=threshold)
    grid = u.grid
    if idx.size == 0:
        return CoverReport(np.zeros(0), np.zeros(0), np.zeros((0, 2)), 0, 0,
                           0.0, np.zeros(0),
                           meta={"mode": spec.mode, "threshold": threshold,
                                 "e_resolution": e_resolution, "n": u.n})
    xs = grid[idx]
    radii = ev.critical_radii(xs)
    selected = besicovitch_select(xs, radii)
    centers = xs[selected]
    rs = radii[selected]
    intervals = np.stack([centers - rs, centers + rs], axis=1)

    alphas = ev.alpha(centers, rs)
    betas = ev.beta(centers, rs)
    residuals = np.abs(alphas - betas) / np.maximum(
        np.maximum(alphas, betas), 1e-300)

    max_overlap = overlap_profile(intervals)

    full_idx = ev.working_set(stride=1, threshold=threshold)
    ref = grid[full_idx]
    covered = np.zeros(ref.shape, dtype=bool)
    for lo, hi in intervals:
        covered |= (ref > lo) & (ref < hi)
    deficit = int(np.count_nonzero(~covered))

    return CoverReport(
        centers=centers, radii=rs, intervals=intervals,
        max_overlap=max_overlap, deficit_cells=deficit,
        deficit_measure=deficit * u.dx,
        balance_residuals=residuals,
        meta={"mode": spec.mode, "threshold": threshold,
              "e_resolution": e_resolution, "n": u.n,
              "alpha_beta": np.stack([alphas, betas], axis=1)})
