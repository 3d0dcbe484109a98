"""Balance functions, critical radii, and Besicovitch interval selection.

For a window J = (x-h, x+h) (clipped to the unit interval in bounded mode)
with length l = |J|, the two balance functions are

    alpha_x(h) = l^{kbar - 1/(q kappa)} * ||v||_{L^q(J)}^{1/kappa},
    beta_x(h)  = l^{m - 1/r} * ||D^m u||_{L^r(J)},

where v = D^{k_1}u ... D^{k_kappa}u.  On the set E where both u and v are
nonzero, alpha dominates for small windows and beta for large ones, so the
critical radius r_x (first crossing of alpha - beta) is well defined; the
intervals (x - r_x, x + r_x) satisfy the balance equality exactly, and a
greedy selection covers E with overlap at most 4.  Both functions and the
radii are methods of one BalanceEvaluator per grid function; each public
call refuses a non-finite x, or an h that is not finite and positive,
with a ParameterError.

Window integrals (trapezoid cells with quadratic in-cell end pieces) and
window maxima (nodes with interpolated ends) both take their whole runs
from a disjoint sparse table, two stored partial runs per query, so
alpha and beta are continuous in h and accurate at the local scale even
deep in the support tails.  Each table is stored flat with an identity
entry per level, so a query is two reads with no masks: a one-entry run
reads the entry and the identity, an empty one the identity twice.  Both
tables have one layout, so one set of end cells and one index pair per
window serve both sides.

Each crossing is bracketed by the first sign change of alpha - beta on a
ladder of radii h0 q^k (h0 = 2 dx, q = SCAN_FACTOR), up where alpha >
beta at h0 and down elsewhere; Illinois steps inside the brackets then
drive the balance residual to machine level (below).  The scan skips
a run of rungs only on a certificate, an interval bound over monotone
factors (R. E. Moore, Interval Analysis, 1966).  In l^a S^e the window
length l and the aggregate S are nondecreasing in h (the computed window
ends are monotone in h, and S is the max or integral of a nonnegative
interpolant) and e > 0, so over a run of windows each balance function
lies between its values with S from the narrow and from the wide end, l
taken from whichever end bounds l^a.  The margin delta = (n + 64) eps
bounds the rounding of every computed aggregate, relative to an envelope
of its window, and of the powers and products after it.  A skipped rung
therefore has the sign that evaluating it would give, and the brackets
are the ones a rung-by-rung scan finds.

The Illinois steps start from the values the scan found at the bracket
ends.  Each takes the regula falsi point, or the midpoint where that
point is not strictly inside, and halves the stored value of the end
that stayed whenever the same end moves twice in a row (M. Dowell and
P. Jarratt, "A modified regula falsi method for computing the root of an
equation", BIT 11, 1971).  Between the kinks where a window end crosses
a node alpha - beta is smooth in h, so a bracket closes to adjacent
floats in about 11 evaluations, where bisection takes about 48.  Each
radius sits at a sign change of alpha - beta between adjacent floats; on
the corpus it is bisection's float in bounded mode, and within about
1e-14 relative of it in real-line mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, NoCrossingError, ParameterError
from .funcspace import GridFunction
from .norms import (_count, _finite, _float_exponent, _order, _orders,
                    derivative_product)

#: relative balance equality tolerance per selected interval
BALANCE_TOL = 1e-6
#: relative thresholds defining the working set E
DEFAULT_THRESHOLD = 1e-9
#: geometric scan step for the crossing search
SCAN_FACTOR = 1.05
#: refinement passes after bracketing: Illinois steps, then midpoints
ILLINOIS_STEPS = 60
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
        ks = _orders("ks", self.ks)
        m = _order("m", self.m)
        if m <= ks[-1]:
            raise ParameterError("m must exceed every product order")
        if self.mode not in ("real-line", "bounded"):
            raise ParameterError("mode must be real-line|bounded")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", _float_exponent("q", self.q))
        object.__setattr__(self, "r", _float_exponent("r", self.r))

    @property
    def kappa(self) -> int:
        return len(self.ks)

    @property
    def kbar(self) -> float:
        return sum(self.ks) / self.kappa

    @classmethod
    def from_params(cls, params, mode: str = "real-line") -> "BalanceSpec":
        return cls(params.ks, float(params.q), params.m, float(params.r), mode)


class _RunTable:
    """Aggregates op(a[i..j]) of whole runs, from a disjoint sparse table.

    Level k cuts the (zero-padded) array into blocks of 2^(k+1) entries;
    each entry holds op over the entries from itself to the middle of its
    block: the left half accumulates leftward and the right half
    rightward.  A run i < j straddles the middle of exactly one block,
    that of level k = floor(log2(i ^ j)), so it is op of two stored
    partial runs, with no loop over the levels.

    The levels are stored flat, one row of 2^levels + 1 entries each,
    whose last entry is ``empty``, the identity of op.  So every query
    reads two entries, with no masks: a run i < j its two partial runs,
    i == j the entry a[i] (level 0 holds each entry by itself) op the
    identity, and i > j the identity twice.  ``pair`` gives the two flat
    indices, which serve every table over as many entries.

    For op = add and nonnegative entries both partial runs are sums of
    entries inside the run, so nothing cancels: a run of m entries keeps
    the recursive-summation bound, relative error at most about m eps/2
    (about sqrt(m) eps/2 for rounding errors of random sign), however
    small it is next to the total.  For op = maximum the result is exact.
    """

    def __init__(self, a: np.ndarray, op, empty: float):
        self.op = op
        self.size = a.size
        levels = max(1, (a.size - 1).bit_length())
        self.width = (1 << levels) + 1
        padded = np.zeros(1 << levels)
        padded[:a.size] = a
        self.table = np.empty(levels * self.width)
        rows = self.table.reshape(levels, self.width)
        rows[:, -1] = empty
        for k in range(levels):
            blocks = padded.reshape(-1, 2, 1 << k)
            row = rows[k, :-1].reshape(blocks.shape)
            row[:, 0] = op.accumulate(blocks[:, 0, ::-1], axis=1)[:, ::-1]
            row[:, 1] = op.accumulate(blocks[:, 1], axis=1)
        # row offset of level floor(log2(i ^ j)), 0 for i == j, by i ^ j
        self.rows = np.repeat(np.arange(levels) * self.width,
                              [2] + [1 << k for k in range(1, levels)])

    def pair(self, i: np.ndarray, j: np.ndarray):
        """Flat indices of the two entries op(a[i..j]) reads.  ``take``
        clips the xor of an i > j, whose row is never read."""
        row = self.rows.take(i ^ j, mode="clip")
        empty = self.width - 1
        return (np.where(i <= j, row + i, empty),
                np.where(i < j, row + j, empty))

    def read(self, pair) -> np.ndarray:
        """op over a[i..j] for ``pair(i, j)``; ``empty`` where i > j."""
        return self.op(self.table.take(pair[0]), self.table.take(pair[1]))


def _cells(lo, hi, runs: _RunTable):
    """Cells of the windows between fractional node positions lo and hi,
    clipped to the grid of runs.size + 1 nodes (hi to lo and above): the
    low end's cell jl and offset la, the high end's jh and ha, whether
    they share a cell, and the ``pair`` of the run jl + 1 .. jh - 1."""
    lo = np.minimum(np.maximum(lo, 0.0), float(runs.size))
    hi = np.maximum(np.minimum(hi, float(runs.size)), lo)
    jl = np.minimum(lo.astype(np.int64), runs.size - 1)
    jh = np.minimum(hi.astype(np.int64), runs.size - 1)
    return jl, lo - jl, jh, hi - jh, jl == jh, runs.pair(jl + 1, jh - 1)


def _window_norm(f: np.ndarray, p: float, dx: float):
    """Window aggregate behind ||f||_{L^p} over ``_cells``, and its run
    table over n - 1 entries: for p = inf the max over the nodes inside,
    jl + 1 .. jh - 1 from a table over the first n - 1 nodes, and the
    interpolated ends, else the trapezoid integral of f^p, whole cells
    jl + 1 .. jh - 1 from the table plus quadratic end-cell pieces.

    With ``envelope`` it also returns an envelope env of each window: the
    computed aggregate of every window inside lies within (n + 64) eps
    env of the exact max or integral of the interpolant over that window.
    A max rounds only at its two interpolated ends, by a few eps, so env
    is the max itself.  An end piece that keeps a sliver of its cell
    cancels to an error of up to about 8 eps of the whole cell, and run
    sums over at most n cells carry about n eps, so for an integral env
    is the sum over every cell the window touches."""
    if math.isinf(p):
        runs = _RunTable(f[:-1], np.maximum, -np.inf)
        nxt = f[1:]

        def window_max(cells, envelope=False):
            # node jh lies inside unless the ends share its cell; an end
            # on a node interpolates to that node's value exactly
            jl, la, jh, ha, same, pair = cells
            fh = f.take(jh)
            ends = np.maximum(f.take(jl) * (1 - la) + nxt.take(jl) * la,
                              fh * (1 - ha) + nxt.take(jh) * ha)
            out = np.maximum(np.maximum(runs.read(pair),
                                        np.where(same, -np.inf, fh)), ends)
            return (out, out) if envelope else out
        return window_max, runs

    f = f ** p
    half_slope = 0.5 * (f[1:] - f[:-1])
    runs = _RunTable(0.5 * (f[1:] + f[:-1]) * dx, np.add, 0.0)

    def window_sum(cells, envelope=False):
        jl, la, jh, ha, same, pair = cells
        # the low end's piece of its cell runs from la to ha when both
        # ends share a cell, else to 1, and the high end's from 0 to ha
        b = np.where(same, ha, 1.0)
        near = dx * (f.take(jl) * (b - la)
                     + half_slope.take(jl) * (b * b - la * la))
        far = dx * (f.take(jh) * ha + half_slope.take(jh) * (ha * ha))
        out = np.where(same, near, near + runs.read(pair) + far)
        return (out, runs.read(runs.pair(jl, jh))) if envelope else out
    return window_sum, runs


class _Side:
    """One balance function l^a S^e, with S the window aggregate ``norm``
    of f (the integral of f^p, or its max) and e = 1/(p root) > 0.

    ``delta`` = (n + 64) eps bounds the aggregates' rounding relative to
    their envelopes (``_window_norm``) and leaves room for the powers and
    the product after them."""

    def __init__(self, f: np.ndarray, p: float, root: int, order, dx: float):
        self.norm, self.runs = _window_norm(f, p, dx)
        self.delta = (f.size + 64) * np.finfo(float).eps
        if math.isinf(p):
            self.a, self.e = float(order), 1.0 / root
        else:
            self.e = 1.0 / (p * root)
            self.a = order - self.e

    def __call__(self, length, agg):
        return length ** self.a * agg ** self.e

    def bound(self, high, power, agg, env):
        """Bound on the computed l^a S^e over every window between a narrow
        one and a wide one containing it: a high bound where ``high``, from
        agg the wide window's aggregate, else a low bound from agg the
        narrow one's, with ``power`` the l^a of whichever end bounds it.
        env is the wide window's envelope: each computed aggregate lies
        within delta env of its exact, nondecreasing value, so S moves by
        2 delta env at most."""
        slack = 2.0 * self.delta * env
        s = np.where(high, agg + slack, np.maximum(agg - slack, 0.0))
        return power * s ** self.e


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
        self._alpha = _Side(np.abs(self.v), spec.q, spec.kappa, spec.kbar,
                            u.dx)
        self._beta = _Side(np.abs(u.stack[spec.m]), spec.r, 1, spec.m, u.dx)

    def _window(self, x, h):
        """The ``_cells`` of each window, for both sides, and its length."""
        lo, hi, length = x - h, x + h, 2.0 * h
        if self.spec.mode == "bounded":
            lo = np.maximum(lo, self.u.a)
            hi = np.minimum(hi, self.u.b)
            length = np.maximum(hi - lo, 0.0)
        a, dx = self.u.a, self.u.dx
        return _cells((lo - a) / dx, (hi - a) / dx, self._alpha.runs), length

    def _balance(self, side, x, h):
        """l^a S^e of ``side`` over arrays of x and h, checked."""
        cells, length = self._window(_finite("x", x),
                                     _finite("h", h, positive=True))
        return side(length, side.norm(cells))

    def _gap(self, x, h):
        """alpha - beta over float arrays of x and h, from one window per
        pair, unchecked."""
        cells, length = self._window(x, h)
        al, be = self._alpha, self._beta
        return al(length, al.norm(cells)) - be(length, be.norm(cells))

    def alpha(self, x, h):
        """alpha_x(h) over arrays of x and h; a non-finite x, or an h that
        is not finite and positive, is a ParameterError."""
        return self._balance(self._alpha, x, h)

    def beta(self, x, h):
        """beta_x(h) over arrays of x and h, checked as in ``alpha``."""
        return self._balance(self._beta, x, h)

    def working_set(self, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
        """Indices (into the grid) of E = {|u| and |v| above threshold}.
        The threshold lies in [0, 1): at 1 no point clears it and the
        cover would be vacuous."""
        if not 0.0 <= _finite("working-set threshold", threshold) < 1.0:
            raise ParameterError(
                f"working-set threshold must be in [0, 1), got {threshold}")
        u0 = np.abs(self.u.stack[0])
        va = np.abs(self.v)
        return np.flatnonzero((u0 > threshold * u0.max())
                              & (va > threshold * va.max()))

    def _ladder(self):
        """The scan's rungs h0 / q^k .. h0 .. h0 q^k (q = SCAN_FACTOR) in
        [hmin, hmax], each the float that repeated division or
        multiplication from h0 = 2 dx gives, and the index of h0."""
        h0 = 2.0 * self.u.dx
        hmin = 1e-12 * h0
        hmax = HMAX_FACTOR * (self.u.b - self.u.a)
        up = [h0]
        while up[-1] * SCAN_FACTOR <= hmax:
            up.append(up[-1] * SCAN_FACTOR)
        down = [h0]
        while down[-1] / SCAN_FACTOR >= hmin:
            down.append(down[-1] / SCAN_FACTOR)
        return np.array(down[:0:-1] + up), len(down) - 1, hmin, hmax

    def critical_radii(self, xs: np.ndarray) -> np.ndarray:
        """First crossing of alpha - beta for each x of a 1-D array.

        Each point scans the rungs of ``_ladder`` for its bracket (module
        docstring), and Illinois steps from the scan's values at both
        ends close it to adjacent floats; the radius is its midpoint.  A
        bracket still open after ILLINOIS_STEPS passes takes midpoints,
        which close any rung bracket within BISECT_STEPS more; one open
        after those is an InvariantError.

        The scan gallops.  A point tries to move s rungs at once, first 16: it
        evaluates the target rung and moves if the target keeps the sign and a
        certificate (module docstring; ``_Side.bound``) proves the sign of
        every rung passed, and then s doubles.  Otherwise s halves, and a
        target past the crossing caps later moves.  At s = 1 the point
        evaluates the next rung, as a rung-by-rung scan would, so the brackets
        are that scan's.  xs is checked once, as in ``alpha``; the scan and the
        refinement evaluate unchecked.
        """
        xs = _finite("xs", xs)
        ladder, start, hmin, hmax = self._ladder()
        al, be = self._alpha, self._beta
        delta = al.delta
        # real-line windows have l = 2h, so each rung's l^a is one entry
        # of a table per side; bounded ones take it from the evaluation
        powers = (None if self.spec.mode == "bounded" else
                  [(2.0 * ladder) ** side.a for side in (al, be)])

        def evaluate(x, k):
            cells, length = self._window(x, ladder.take(k))
            pa, pb = ((length ** al.a, length ** be.a) if powers is None
                      else (powers[0].take(k), powers[1].take(k)))
            sv, env_v = al.norm(cells, envelope=True)
            sw, env_w = be.norm(cells, envelope=True)
            return (pa * sv ** al.e - pb * sw ** be.e,
                    (pa, pb, sv, env_v, env_w), sw)

        def proved(up, cur, new, sw):
            """Whether the bounds prove the sign of alpha - beta at every
            rung from the current one (``cur``) to the target (``new``)."""
            pa_cur, pb_cur, sv_cur, env_v_cur, env_w_cur = cur
            pa, pb, _, env_v, env_w = new
            # up, the current rung is the run's narrow end and the target
            # its wide end, down the reverse: alpha's low (up) or high
            # (down) bound takes S from the current rung, beta's high or
            # low one from the target, and l^a from the same rung where
            # a >= 0, else from the other
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                a = al.bound(~up, pa_cur if al.a >= 0 else pa, sv_cur,
                             np.where(up, env_v, env_v_cur))
                b = be.bound(up, pb if be.a >= 0 else pb_cur, sw,
                             np.where(up, env_w, env_w_cur))
                return np.where(up, a * (1 - delta) > b * (1 + delta),
                                a * (1 + delta) < b * (1 - delta))

        # [lo, hi] brackets the crossing, with g(lo) > 0 >= g(hi) for
        # g = alpha - beta; each point's is written when its scan ends
        lo, hi, g_lo, g_hi = np.empty((4, xs.size))
        # the scan state of the points still scanning, in input order:
        # index, x, direction, current rung (index into ladder), the
        # nearest rung known past the crossing (one off the ladder until
        # one is found), step size, alpha - beta at both, and what the
        # bounds need of the current rung
        ids, x = np.arange(xs.size), xs
        rung = np.full(xs.size, start)
        g_rung, cache, _ = evaluate(x, rung)
        up = g_rung > 0.0
        direction = np.where(up, 1, -1)
        past = np.where(up, ladder.size, -1)
        step = np.full(xs.size, 16, dtype=np.int64)
        g_past = np.empty(xs.size)
        while ids.size:
            room = (past - rung) * direction - 1
            done = room == 0
            if done.any():
                off = done & ((past < 0) | (past == ladder.size))
                if off.any():
                    raise NoCrossingError(
                        f"no balance crossing for h in [{hmin}, {hmax}] at "
                        f"x={x[off][0]}; hypothesis failure for this spec")
                # upward the current rung is the bracket's low end
                end, u = ids[done], up[done]
                r, p = ladder.take(rung[done]), ladder.take(past[done])
                lo[end], hi[end] = np.where(u, r, p), np.where(u, p, r)
                r, p = g_rung[done], g_past[done]
                g_lo[end], g_hi[end] = np.where(u, r, p), np.where(u, p, r)
                keep = ~done
                if not keep.any():
                    break
                ids, x, up, direction, rung, past, step, g_rung, g_past, \
                    room = (v[keep] for v in (ids, x, up, direction, rung,
                                              past, step, g_rung, g_past,
                                              room))
                cache = tuple(c[keep] for c in cache)
            s = np.minimum(step, room)
            target = rung + direction * s
            gap, new, sw = evaluate(x, target)
            crossed = np.where(up, gap <= 0.0, gap > 0.0)
            moved = ~crossed & (proved(up, cache, new, sw) | (s == 1))
            rung = np.where(moved, target, rung)
            g_rung = np.where(moved, gap, g_rung)
            cache = tuple(np.where(moved, v, c) for c, v in zip(cache, new))
            past = np.where(crossed, target, past)
            g_past = np.where(crossed, gap, g_past)
            step = np.where(moved, 2 * s, np.maximum(s // 2, 1))
        # a bracket whose midpoint rounds onto one of its ends can never
        # move again, so its radius is written and only the others are
        # evaluated; ``last`` is the end each point moved last (1 hi, -1
        # lo), whose repeat halves the stored g of the other end
        radii = np.empty(xs.size)
        ids, x = np.arange(xs.size), xs
        last = np.zeros(xs.size, dtype=np.int8)
        for k in range(ILLINOIS_STEPS + BISECT_STEPS + 1):
            mid = 0.5 * (lo + hi)
            moves = (mid != lo) & (mid != hi)
            if not moves.all():
                radii[ids[~moves]] = mid[~moves]
                ids, x, lo, hi, g_lo, g_hi, last, mid = (
                    v[moves] for v in (ids, x, lo, hi, g_lo, g_hi, last,
                                       mid))
            if not ids.size:
                return radii
            if k == ILLINOIS_STEPS + BISECT_STEPS:
                break
            if k < ILLINOIS_STEPS:
                with np.errstate(divide="ignore", invalid="ignore",
                                 over="ignore"):
                    rf = lo - g_lo * (hi - lo) / (g_hi - g_lo)
                mid = np.where((rf > lo) & (rf < hi), rf, mid)
            g = self._gap(x, mid)
            take_hi = g <= 0.0
            lo, hi = np.where(take_hi, lo, mid), np.where(take_hi, mid, hi)
            g_lo = np.where(take_hi, np.where(last == 1, g_lo * 0.5, g_lo),
                            g)
            g_hi = np.where(take_hi, g,
                            np.where(last == -1, g_hi * 0.5, g_hi))
            last = np.where(take_hi, 1, -1)
        raise InvariantError(
            f"critical radius bracket still open after "
            f"{ILLINOIS_STEPS + BISECT_STEPS} refinement passes at "
            f"x={x[0]}")


def besicovitch_select(centers, radii) -> list:
    """Greedy selection by descending radius, skipping candidates whose
    center already lies in a selected open interval.  Returns selected
    indices into the input arrays.

    Each selected interval marks the centers inside it, one slice of the
    centers in sorted order; one that rounds to a point marks none.
    """
    centers = _finite("centers", centers)
    radii = _finite("radii", radii, positive=True)
    if centers.shape != radii.shape:
        raise ParameterError("centers and radii must have equal length")
    order = np.lexsort((np.arange(centers.size), -radii))
    by_center = np.argsort(centers, kind="stable")
    sorted_centers = centers[by_center]
    covered = np.zeros(centers.size, dtype=bool)
    seen = memoryview(covered)  # reads one flag faster than the array
    selected: list = []
    for idx, c, r in zip(order.tolist(), centers[order].tolist(),
                         radii[order].tolist()):
        if seen[idx]:
            continue
        selected.append(idx)
        covered[by_center[np.searchsorted(sorted_centers, c - r, "right"):
                          np.searchsorted(sorted_centers, c + r)]] = True
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
        def plain(d):
            return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                    for k, v in d.items()}
        return {**plain(vars(self)), "meta": plain(self.meta)}

    def csv_rows(self) -> list:
        ev = self.meta.get("alpha_beta")
        return [(self.centers[i], self.radii[i],
                 *(ev[i] if ev is not None else (None, None)),
                 self.balance_residuals[i]) for i in range(self.centers.size)]


def cover_bytes(n: int, m: int) -> int:
    """Footprint of `build_cover` on n nodes from a stack to order m: the
    stack, the two run tables of levels x (2^levels + 1) entries, and 72
    working arrays of n values for the radii search.  The traced peaks of
    `cover` over the corpus at full centre resolution held at most 65
    arrays of n besides the stack and the tables at 1025 nodes, where the
    command's fixed allocations weigh most, 31 at 8193 and 28 at 65537."""
    levels = max(1, (n - 1).bit_length())
    return 8 * ((m + 1 + 72) * n + 2 * levels * ((1 << levels) + 1))


def build_cover(u: GridFunction, spec: BalanceSpec,
                e_resolution: int | None = None,
                threshold: float = DEFAULT_THRESHOLD) -> CoverReport:
    """Full pipeline: working set, critical radii, greedy selection,
    and the three verification passes.

    The working set is discretized on the function's own grid; when
    e_resolution is coarser than the grid, centers are taken on a strided
    subgrid but the coverage deficit is always measured against the full
    grid, so refining e_resolution can only help coverage.  Real-line mode
    needs kbar < m - 1, which guarantees that alpha - beta changes sign;
    the boundary case kbar = m - 1 reduces to a single-norm inequality and
    is refused.
    """
    if spec.mode == "real-line" and not spec.kbar < spec.m - 1:
        raise ParameterError(
            "real-line mode needs kbar < m-1 for a guaranteed crossing; the "
            "boundary case reduces to a single-norm inequality")
    ev = BalanceEvaluator(u, spec)
    e_resolution = _count("e_resolution",
                          u.n if e_resolution is None else e_resolution, 2)
    if e_resolution > u.n:
        raise ParameterError("e_resolution must be in [2, grid size]")
    stride = max(1, round((u.n - 1) / (e_resolution - 1)))
    full = ev.working_set(threshold)
    idx = full[full % stride == 0]
    grid = u.grid
    meta = {"mode": spec.mode, "threshold": threshold,
            "e_resolution": e_resolution, "n": u.n}
    if idx.size == 0:
        return CoverReport(np.zeros(0), np.zeros(0), np.zeros((0, 2)), 0, 0,
                           0.0, np.zeros(0), meta=meta)
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

    # the working-set nodes inside each open interval are one slice of
    # them; a node is left out where no slice covers it
    ref, slots = grid[full], full.size + 1
    first = np.searchsorted(ref, intervals[:, 0], "right")
    past = np.maximum(np.searchsorted(ref, intervals[:, 1]), first)
    depth = np.cumsum(np.bincount(first, minlength=slots)
                      - np.bincount(past, minlength=slots))
    deficit = int(np.count_nonzero(depth[:-1] == 0))

    return CoverReport(
        centers=centers, radii=rs, intervals=intervals,
        max_overlap=max_overlap, deficit_cells=deficit,
        deficit_measure=deficit * u.dx,
        balance_residuals=residuals,
        meta={**meta, "alpha_beta": np.stack([alphas, betas], axis=1)})
