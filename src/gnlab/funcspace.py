"""Smooth test functions with exact derivatives.

Everything here is built around the compactly supported bump

    chi(t) = exp(-1/(t(1-t)))  on (0,1),  0 elsewhere,

whose derivatives have the closed form D^i chi = R_i * chi with R_i a
rational function.  The R_i satisfy the recurrence

    R_1 = d/dt(-1/(t(1-t))),   R_{i+1} = R_i' + R_i * R_1,

and carrying the recurrence at the level of numerator polynomials keeps
every coefficient an integer: writing R_i = P_i / (t(1-t))^{2i} gives
P_1 = 1 - 2t and

    P_{i+1} = P_i' D^2 + (1 - 2t)(1 - 2iD) P_i,    D = t(1-t).

Evaluation clamps to zero once the exponent -1/(t(1-t)) drops below
log(MIN_POSITIVE) + 64, so the rational prefactors can never overflow the
vanishing exponential.

Function families (bump, scaled bumps, sine bumps, spline bumps) return
their whole exact derivative stack D^0..D^m, m up to MAX_ORDER, in one
pass (one chi_stack call; for a spline, one de Boor recurrence gives every
derivative order), and evaluate to exactly zero outside their supports.
A support follows from the family's own parameters (the bump, the sine
and the spline bumps live on [0, 1]) and is never a constructor option; a
spline bump is always the clamped uniform quintic of its coefficients.
`AnalyticFunction.stack` alone checks the order against MAX_ORDER, and
its one path builds every stack in blocks of STACK_BLOCK nodes: the rows
are elementwise in the node, so blocks give the same floats, and only the
stack is O(n).  A block wholly inside the support (for chi, clear of its
clamp) is written in place with no mask or scatter, by the masked path's
floating-point operations, so the floats are the same.  Sine and spline
bumps share one Leibniz loop.  `sample` turns any of them into a
GridFunction carrying that stack for the norm and covering machinery.
The package's one byte cap lives here too: `refuse_above_cap` refuses a
run above it before allocating, and `sample_corpus` samples a corpus
under it, one function at a time.

Spline derivatives repeat, operation for operation, the reference B-spline
evaluation and coefficient differencing that the tests compare them with,
so they are the same floats, and the package needs numpy alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ParameterError, UnsupportedOrderError
from .norms import _count, _finite, _interval

MAX_ORDER = 8
# The package's one byte cap.  Sampled corpora, the extremal search's
# candidate basis, factors, restarts and reported stack, covers and RK4
# chains above it are refused, with their cost, before they are allocated
# (`refuse_above_cap`).
BYTES_CAP = 2 ** 30
# nodes of a stack computed at a time (`AnalyticFunction.stack`): a
# stack's working arrays stay O(STACK_BLOCK) while only the stack itself
# is O(n).  Blocks of 8193, which hold the default 4097-node search grid
# whole, put perfbench `search` on its upper peak-RSS level (+3.3 MB, from
# malloc's heap reuse) for some checkout paths (CHANGES.md)
STACK_BLOCK = 4096
# degree of every spline bump: clamped uniform quintic splines on [0, 1],
# so B_i and B_j overlap iff |i - j| <= SPLINE_DEGREE
SPLINE_DEGREE = 5

# chi and all R_i * chi are flat at the support endpoints; below this
# exponent the exponential factor underflows any polynomial blowup of R_i.
CLAMP_EXPONENT = math.log(sys.float_info.min) + 64.0


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficient tuples, exact arithmetic)
# ---------------------------------------------------------------------------

def _poly_trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                       for i in range(n)])


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_derivative(a):
    if len(a) <= 1:
        return (0,)
    return _poly_trim([i * a[i] for i in range(1, len(a))])


def _poly_eval(a, t: np.ndarray) -> np.ndarray:
    """Horner evaluation of integer coefficients at an array of points."""
    acc = np.zeros_like(t, dtype=float)
    for c in reversed(a):
        acc *= t
        acc += float(c)
    return acc


_D_POLY = (0, 1, -1)  # t(1-t)


@lru_cache(maxsize=None)
def _p_polynomial(i: int) -> tuple:
    """Integer numerator P_i of R_i = P_i / (t(1-t))^{2i}."""
    if i == 1:
        return (1, -2)
    prev = _p_polynomial(i - 1)
    d2 = _poly_mul(_D_POLY, _D_POLY)
    term1 = _poly_mul(_poly_derivative(prev), d2)
    one_minus_2kd = _poly_add((1,), tuple(-2 * (i - 1) * c for c in _D_POLY))
    term2 = _poly_mul(_poly_mul((1, -2), one_minus_2kd), prev)
    return _poly_add(term1, term2)


def chi_stack(t: np.ndarray, max_i: int) -> np.ndarray:
    """Rows chi, chi', ..., chi^(max_i) evaluated at t, clamped near 0/1;
    written in place when every node is live, else scattered."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((max_i + 1,) + t.shape)
    flat = out.reshape(max_i + 1, -1)
    inside = ((t > 0.0) & (t < 1.0)).ravel()
    whole = inside.all()
    ti = t.ravel() if whole else t.ravel()[inside]
    dd = ti * (1.0 - ti)
    g = -1.0 / dd
    live = g >= CLAMP_EXPONENT
    if whole and live.all():
        _chi_rows(ti, dd, g, flat)
    elif live.any():
        rows = np.empty((max_i + 1, np.count_nonzero(live)))
        _chi_rows(ti[live], dd[live], g[live], rows)
        flat[:, np.flatnonzero(inside)[live]] = rows
    return out


def _chi_rows(t, dd, g, rows):
    """Fill rows[i] with D^i chi = P_i(t) / dd^(2i) * exp(g) at live nodes."""
    e = np.exp(g, out=rows[0])
    for i in range(1, len(rows)):
        r = _poly_eval(_p_polynomial(i), t)
        r /= dd ** (2 * i)
        np.multiply(r, e, out=rows[i])


# ---------------------------------------------------------------------------
# analytic function families
# ---------------------------------------------------------------------------

def _leibniz(factors, ch, weight=1.0) -> np.ndarray:
    """Rows D^0..D^m of g(x) * chi(x) by the Leibniz rule.

    `ch` holds chi, chi', ..., chi^(m) at the points, and
    `factors[l]` is D^l g / weight^l; factors past the end are zero (a
    spline above its degree).  Factors may carry trailing columns, one
    per function of a batch.
    """
    ch = ch.reshape(ch.shape + (1,) * (factors[0].ndim - 1))
    out = np.zeros(ch.shape[:1] + factors[0].shape)
    tmp = np.empty(factors[0].shape)
    for i in range(len(ch)):
        for l in range(min(i, len(factors) - 1) + 1):
            np.multiply(math.comb(i, l) * weight ** l, factors[l], out=tmp)
            tmp *= ch[i - l]
            out[i] += tmp
    return out


class AnalyticFunction:
    """A function on R with exact derivatives and compact support.

    Every family produces its whole derivative stack D^0..D^m in one pass:
    subclasses implement `_stack_inside(m, x)` for a flat array of points
    already known to lie inside the closed support, and the base class
    handles the blocks of STACK_BLOCK nodes (every stack, however few its
    nodes), the outside-is-zero convention, the order check against
    MAX_ORDER and shapes.  A family whose value at a node is not a
    scalar declares its `value_shape`, so the stack is allocated before
    any node is evaluated.
    """

    support: tuple
    value_shape = ()

    def stack(self, m: int, x) -> np.ndarray:
        """Rows D^0 u, ..., D^m u at x, shape (m+1,) + shape(x) +
        value_shape."""
        m = _count("derivative order", m, 0)
        if m > MAX_ORDER:
            raise UnsupportedOrderError(
                f"order {m} exceeds max_order={MAX_ORDER}")
        xa = np.asarray(x, dtype=float).ravel()
        a, b = self.support
        inside = (xa >= a) & (xa <= b)
        out = np.zeros((m + 1, xa.size) + self.value_shape)
        for lo in range(0, xa.size, STACK_BLOCK):
            keep = inside[lo:lo + STACK_BLOCK]
            keep = slice(None) if keep.all() else keep
            out[:, lo:lo + STACK_BLOCK][:, keep] = self._stack_inside(
                m, xa[lo:lo + STACK_BLOCK][keep])
        return out.reshape((m + 1,) + np.shape(x) + out.shape[2:])

    def _stack_inside(self, m: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class BumpChi(AnalyticFunction):
    """chi itself: support [0,1], strictly positive inside."""

    support = (0.0, 1.0)

    def _stack_inside(self, m, x):
        return chi_stack(x, m)

    def descriptor(self):
        return {"family": "bumpchi", "params": {}, "support": [0.0, 1.0]}


@dataclass(frozen=True)
class ScaledBump(AnalyticFunction):
    """chi((t-a)/(b-a)): the bump carried onto [a,b]."""

    a: float
    b: float

    def __post_init__(self):
        a, b = _interval("support", (self.a, self.b))
        for name, value in (("a", a), ("b", b), ("support", (a, b))):
            object.__setattr__(self, name, value)

    def _stack_inside(self, m, x):
        rows = chi_stack((x - self.a) / (self.b - self.a), m)
        for i in range(m + 1):
            rows[i] /= (self.b - self.a) ** i
        return rows

    def descriptor(self):
        return {"family": "scaledbump", "params": {"a": self.a, "b": self.b},
                "support": [self.a, self.b]}


@dataclass(frozen=True)
class SineBump(AnalyticFunction):
    """sin(pi f t) modulated by chi; support [0,1]."""

    frequency: int
    support = (0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "frequency",
                           _count("frequency", self.frequency, 1))

    def _stack_inside(self, m, x):
        w = math.pi * self.frequency
        wx = w * x
        waves = [np.sin(wx + l * math.pi / 2.0) for l in range(m + 1)]
        return _leibniz(waves, chi_stack(x, m), weight=w)

    def descriptor(self):
        return {"family": "sinebump", "params": {"frequency": self.frequency},
                "support": [0.0, 1.0]}


def uniform_quintic_knots(dimension: int) -> np.ndarray:
    """Clamped quintic knot vector on [0,1] for a given coefficient count,
    at least 6."""
    dimension = _count("quintic spline coefficient count", dimension, 6)
    interior = np.linspace(0.0, 1.0, dimension - 4)[1:-1]
    return np.concatenate([np.zeros(6), interior, np.ones(6)])


def _derivative_coeffs(knots: np.ndarray, coeffs: np.ndarray,
                       degree: int) -> list:
    """B-spline coefficients of the spline and of its derivatives 1..degree.

    Derivative l lives on knots[l:-l] with degree - l; its coefficients
    are the differences (c[1:] - c[:-1]) * (degree - l + 1) / dt of the
    ones before, in that order of operations.  Every dt is positive when
    no knot repeats inside the span [t_degree, t_n].
    """
    n = knots.size - degree - 1
    out = [coeffs]
    for l in range(1, degree + 1):
        dt = knots[degree + 1:knots.size - l] - knots[l:n]
        dt = dt.reshape(dt.shape + (1,) * (coeffs.ndim - 1))
        out.append((out[-1][1:] - out[-1][:-1]) * (degree - l + 1) / dt)
    return out


def _spline_rows(knots: np.ndarray, degree: int, coeffs: list,
                 x: np.ndarray, top: int) -> list:
    """Values at x of the spline derivatives 0..top, from `coeffs` as
    `_derivative_coeffs` returns them; 0 off the knot span [t_k, t_n].

    One Cox-de Boor recurrence (C. de Boor, "On calculating with
    B-splines", J. Approx. Theory 6, 1972) per knot interval
    t_i <= x < t_{i+1} (the last one closed).  Stage j leaves in h the
    degree-j B-splines that are nonzero on the interval, which are the
    basis of the (degree - j)-th derivative on the same knots, so every
    order reads its values off one stage as sum_a c[i + a - k] * h[a],
    added in order of a.  The points of an interval share their knots,
    and each order's coefficient terms are one broadcast product per
    interval.
    """
    k = degree
    n = knots.size - k - 1
    # nodes already in order (every sampled grid) need no sort
    perm = None if np.all(x[:-1] <= x[1:]) else np.argsort(x, kind="stable")
    xs = x if perm is None else x[perm]
    ends = np.searchsorted(xs, knots[k:n + 1])
    ends[-1] = np.searchsorted(xs, knots[n], side="right")
    cs = [c.reshape(c.shape[0], -1) for c in coeffs[:top + 1]]
    rows = [np.zeros((x.size, c.shape[1])) for c in cs]
    for i in range(k, n):
        lo, hi = ends[i - k], ends[i - k + 1]
        if lo == hi:
            continue
        xi = xs[lo:hi]
        tmp = np.empty((hi - lo, cs[0].shape[1]))
        h = [np.ones_like(xi)]
        for j in range(k + 1):
            if j:
                hh, h = h, [np.zeros_like(xi)] + [None] * j
                for a in range(1, j + 1):
                    right, left = knots[i + a], knots[i + a - j]
                    if right == left:
                        h[a] = np.zeros_like(xi)
                        continue
                    w = hh[a - 1] / (right - left)
                    h[a] = w * (xi - left)
                    w *= right - xi
                    h[a - 1] += w
            if k - j <= top:
                c = cs[k - j]
                acc = rows[k - j][lo:hi]
                np.multiply(h[0][:, None], c[i - k], out=acc)
                for a in range(1, j + 1):
                    acc += np.multiply(h[a][:, None], c[i + a - k], out=tmp)
    out = []
    for row, c in zip(rows, coeffs):
        if perm is not None:
            row, back = np.empty_like(row), row
            row[perm] = back
        out.append(row.reshape(x.shape + c.shape[1:]))
    return out


class SplineBump(AnalyticFunction):
    """Clamped uniform quintic B-spline on [0, 1] times chi: compactly
    supported, C^4 smooth.

    The chi envelope guarantees flat decay at 0 and 1 regardless of the
    clamped spline's boundary values.  Derivatives use the Leibniz rule
    with exact spline derivatives from one de Boor recurrence
    (`_spline_rows`); orders above SPLINE_DEGREE drop the spline term
    entirely.  A (dim, k) coefficient matrix makes k splines at once, and
    its stack carries one trailing column per spline.
    """

    support = (0.0, 1.0)

    def __init__(self, coeffs):
        coeffs = _finite("spline coefficients", coeffs)
        if coeffs.ndim not in (1, 2) or coeffs.shape[0] < SPLINE_DEGREE + 1:
            raise ParameterError("need at least degree+1 spline coefficients")
        self.coeffs = coeffs
        self.value_shape = coeffs.shape[1:]
        self.knots = uniform_quintic_knots(coeffs.shape[0])
        self._coeffs = _derivative_coeffs(self.knots, coeffs, SPLINE_DEGREE)

    def _stack_inside(self, m, x):
        factors = _spline_rows(self.knots, SPLINE_DEGREE, self._coeffs, x,
                               min(m, SPLINE_DEGREE))
        return _leibniz(factors, chi_stack(x, m))

    def descriptor(self):
        return {"family": "splinebump",
                "params": {"coeffs": self.coeffs.tolist(),
                           "knots": self.knots.tolist(),
                           "degree": SPLINE_DEGREE},
                "support": [0.0, 1.0]}


class Rescaled(AnalyticFunction):
    """Affine pullback of another family onto a new support interval."""

    def __init__(self, base: AnalyticFunction, a: float, b: float):
        self.base = base
        self.value_shape = base.value_shape
        a, b = self.support = _interval("support", (a, b))
        c, d = base.support
        self._scale = (d - c) / (b - a)
        self._shift = c

    def _stack_inside(self, m, x):
        a, _ = self.support
        rows = self.base.stack(m, self._shift + self._scale * (x - a))
        for i in range(m + 1):
            rows[i] *= self._scale ** i
        return rows

    def descriptor(self):
        return {"family": "rescaled",
                "params": {"a": self.support[0], "b": self.support[1],
                           "base": self.base.descriptor()},
                "support": list(self.support)}


class Sum(AnalyticFunction):
    """Finite linear combination sum_k c_k f_k."""

    def __init__(self, terms: Sequence[tuple]):
        terms = [(float(_finite("sum coefficient", c)), f) for c, f in terms]
        if not terms:
            raise ParameterError("empty sum")
        shapes = {f.value_shape for _, f in terms}
        if len(shapes) > 1:
            raise ParameterError(
                f"sum terms have different value shapes {sorted(shapes)}")
        self.terms = terms
        self.value_shape = shapes.pop()
        self.support = (min(f.support[0] for _, f in terms),
                        max(f.support[1] for _, f in terms))

    def _stack_inside(self, m, x):
        out = np.zeros((m + 1,) + x.shape + self.value_shape)
        for c, f in self.terms:
            st = f.stack(m, x)
            out += np.multiply(c, st, out=st)
        return out

    def descriptor(self):
        return {"family": "sum",
                "params": {"terms": [{"coef": c, "fn": f.descriptor()}
                                     for c, f in self.terms]},
                "support": list(self.support)}


# ---------------------------------------------------------------------------
# sampled carrier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    """Uniform samples of a function and its derivatives on [a, b].

    `stack` has shape (m+1, n): row i holds D^i u at the nodes, row 0 the
    values themselves, each from the exact derivative stack of a family.
    """

    a: float
    b: float
    stack: np.ndarray

    def __post_init__(self):
        st = np.asarray(self.stack, dtype=float)
        if st.ndim != 2 or st.shape[1] < 2:
            raise ParameterError("stack must be (m+1, n) with n >= 2")
        a, b = _interval("grid interval", (self.a, self.b))
        for name, value in (("a", a), ("b", b), ("stack", st)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.stack.shape[1]

    @property
    def max_derivative(self) -> int:
        return self.stack.shape[0] - 1

    @property
    def dx(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)


def refuse_above_cap(what: str, need: int) -> None:
    """ParameterError, with the cost, when ``what`` needs more than
    BYTES_CAP bytes; called before anything of it is allocated.  The
    callers' formulas bound library calls: a command-line run also holds
    argparse's parser (47 KB traced) and lazily imported modules (115 KB)."""
    if need > BYTES_CAP:
        raise ParameterError(
            f"{what} needs {need} bytes, above the {BYTES_CAP}-byte cap")


def sample(f: AnalyticFunction, interval, n: int, m: int = 0) -> GridFunction:
    """GridFunction of f's exact stack to order m on a closed uniform grid
    of n >= 2 nodes."""
    n = _count("node count", n, 2)
    a, b = _interval("interval", interval)
    return GridFunction(a, b, f.stack(m, np.linspace(a, b, n)))


def sampled_bytes(n: int, order: int, arrays: int = 20) -> int:
    """Bytes of one sampled stack to `order` on n nodes and the larger of
    two working sets: `arrays` arrays of n values while it is evaluated
    (20 bounds every norm: up to 19 were traced, for the fractional
    seminorm; the Simpson norms take 3 to 4.6), or, while it is sampled,
    its nodes, their mask and one block's arrays (traced: up to
    5.3 * order + 15.1 arrays of min(n, STACK_BLOCK) values, for the
    perturbed sine bump, whose sum over a rescaled sine bump nests six
    stacks of a block)."""
    sampling = n + n // 8 + min(n, STACK_BLOCK) * (6 * order + 16)
    return 8 * ((order + 1) * n + max(arrays * n, sampling))


def sample_corpus(selection, n: int, order: int):
    """(name, GridFunction) pairs of the selected functions' stacks to
    `order` on n nodes of [0, 1], each sampled as it is read, so one stack
    is held when the reader drops each before it reads the next, as every
    reader (`check`, `cover`, `corpus emit`) does; refused up front,
    before the first is sampled, when `sampled_bytes` puts one stack
    above the byte cap."""
    refuse_above_cap(
        f"{len(selection)} sampled stack(s) to order {order} on {n} nodes",
        sampled_bytes(n, order))
    return ((name, sample(f, (0.0, 1.0), n, order)) for name, f in selection)


# ---------------------------------------------------------------------------
# nowhere-polynomial perturbation and the standard corpus
# ---------------------------------------------------------------------------

def perturb_nowhere_polynomial(u: AnalyticFunction, eps: float) -> Sum:
    """u + eps * psi with psi a bump positive on a neighborhood of supp u.

    Requires supp u compactly inside (0,1) so that such a psi exists with
    support still inside (0,1).  As eps -> 0 the sum converges to u
    uniformly together with all derivatives up to MAX_ORDER.
    """
    _finite("eps", eps, positive=True)
    a, b = u.support
    if not (0.0 < a and b < 1.0):
        raise ParameterError("support of u must be compactly inside (0,1)")
    psi = ScaledBump(a / 2.0, (1.0 + b) / 2.0)
    return Sum([(1.0, u), (eps, psi)])


_CORPUS_SPLINE_COEFFS = (0.6, -1.0, 0.8, 0.4, -0.9, 1.0, -0.3, 0.7)


def standard_corpus() -> list:
    """The seven-function corpus used across the inequality experiments.

    Returns (name, function) pairs: the bump, three sine bumps, a fixed
    spline bump, and two nowhere-polynomial perturbations of interior
    bumps.
    """
    return [
        ("bumpchi", BumpChi()),
        ("sinebump1", SineBump(1)),
        ("sinebump3", SineBump(3)),
        ("sinebump7", SineBump(7)),
        ("splinebump", SplineBump(_CORPUS_SPLINE_COEFFS)),
        ("perturbed_scaled",
         perturb_nowhere_polynomial(ScaledBump(0.3, 0.7), 1e-2)),
        ("perturbed_sine",
         perturb_nowhere_polynomial(Rescaled(SineBump(3), 0.2, 0.8), 5e-3)),
    ]


def corpus_function(name: str) -> AnalyticFunction:
    for key, fn in standard_corpus():
        if key == name:
            return fn
    raise ParameterError(f"unknown corpus function {name!r}")
