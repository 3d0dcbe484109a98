"""Lebesgue, derivative-product, and fractional norms on grid functions.

Finite-exponent norms use composite Simpson on the uniform grid, so the
node count over the integration domain must be odd.  `simpson` is the one
quadrature rule of the package: `gn` integrates with it too, `control`
sums it block by block as the chain is swept (`_SimpsonSweep`), and
`simpson_weights` gives its weights for callers that fold the rule into a
precomputed form.  The input rules live here too: the exact-number,
exponent, finite-real, interval, order, count and Simpson-grid rules.
The infinity norm is the grid maximum.  The fractional seminorm is the
standard double-integral Gagliardo form discretized by midpoint double
summation over the grid domain padded by one support length on each side,
with the zero padding in closed form and O(n) memory.  Pairs of cells are
swept by offset; for p = 2, 4, 6 only the offsets of a near band (1/16 of
the grid) are swept and the rest come from FFT correlations, so the cost
is n^2/16 pair terms plus O(n log n).  Other p sweep every offset: O(n^2).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError

if TYPE_CHECKING:
    from .funcspace import GridFunction

INF = float("inf")
_MAX_EXPONENT = Fraction(np.finfo(float).max)

#: relative accuracy target of the Simpson rule at the reference resolution
QUADRATURE_RTOL = 1e-6
#: even orders whose seminorm takes the far field from FFT correlations
FAR_FIELD_ORDERS = (2.0, 4.0, 6.0)
#: near band of the seminorm's offset sweep, as a fraction of the grid
SEMINORM_NEAR_BAND = 1 / 16


def simpson(y, dx: float):
    """Composite Simpson integral of y along axis 0 on nodes spaced dx:
    the one-block case of `_SimpsonSweep`.

    Performs the floating-point operations of SciPy's
    `simpson(y, dx=dx, axis=0)`, so results match it bit for bit: an even
    node count takes Simpson up to the next-to-last node plus SciPy's
    equal-spacing correction for the last interval.
    """
    y = np.asarray(y)
    n = y.shape[0] if y.ndim else 0
    if n < 3:
        raise ParameterError(f"Simpson quadrature needs >= 3 nodes, got {n}")
    sweep = _SimpsonSweep(n, dx)
    sweep.add(0, y)
    return sweep.result()


class _SimpsonSweep:
    """`simpson` of n nodes of values that arrive along axis 0 in blocks,
    each starting at the last node of the one before and spanning an even
    number of intervals but the last, float for float.

    A block's pair terms y[2k] + 4 y[2k+1] + y[2k+2] are added into a
    carried row, as numpy's axis-0 sum of two or more columns adds one row
    at a time; one column numpy sums pairwise, so the terms of several
    blocks are kept and summed once.  The last interval of an even node
    count takes SciPy's weights 5dx/12, 2dx/3, -dx/12, same operations.
    """

    def __init__(self, n: int, dx: float):
        self.n, self.dx = n, dx
        self.kept = self.total = self.last_interval = None

    def add(self, lo: int, y: np.ndarray) -> None:
        """Takes y at the nodes lo, lo + 1, ... of one block."""
        odd = (y.shape[0] - 1) % 2  # only the last block can be odd
        z = y[:-1] if odd else y
        pairs = z[0:-2:2] + 4.0 * z[1:-1:2] + z[2::2]
        if y.shape[0] < self.n and y[0].size == 1:  # one column, in blocks
            if self.kept is None:
                self.kept = np.empty(((self.n - 1) // 2,) + y.shape[1:])
            self.kept[lo // 2:lo // 2 + len(pairs)] = pairs
        else:
            if self.total is not None:
                pairs[0] += self.total
            self.total = np.sum(pairs, axis=0)
        if odd:
            dx = self.dx
            alpha = (2 * dx ** 2 + 3 * dx * dx) / (6 * (dx + dx))
            beta = (dx ** 2 + 3.0 * dx * dx) / (6 * dx)
            eta = dx ** 3 / (6 * dx * (dx + dx))
            self.last_interval = alpha * y[-1] + beta * y[-2] - eta * y[-3]

    def result(self):
        total = self.total if self.kept is None else np.sum(self.kept, 0)
        total *= self.dx / 3.0
        if self.last_interval is not None:
            total += self.last_interval
        return total


def _check_grid_n(n) -> None:
    """The one Simpson-grid rule: an odd integer node count >= 3."""
    if not isinstance(n, numbers.Integral) or n < 3 or n % 2 == 0:
        raise ParameterError(
            f"grids need an odd integer node count >= 3, got {n!r}")


def simpson_weights(n: int, dx: float) -> np.ndarray:
    """Weights w of the composite Simpson rule on n nodes, odd n only.

    `w @ y` is `simpson(y, dx)` summed in another order, so the two agree
    up to roundoff.
    """
    _check_grid_n(n)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (dx / 3.0)


def _exact(name: str, x):
    """x as an exact Fraction, or INF: an int, Fraction, float, numpy
    number or text such as '3/2', '1.5' or 'inf'.  A bool (a flag is not a
    number), NaN, -inf or malformed text is a ParameterError."""
    try:
        if isinstance(x, (bool, np.bool_)):
            raise TypeError
        if str(x).strip().lower() in ("inf", "infinity"):
            return INF
        return Fraction(float(x) if isinstance(x, np.floating) else x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ParameterError(f"{name} must be a number, got {x!r}") from None


def _exponent(name: str, p):
    """p by `_exact`, if it is >= 1 and within the float range, or INF:
    the one exponent rule."""
    value = _exact(name, p)
    if value != INF and not 1 <= value <= _MAX_EXPONENT:
        raise ParameterError(f"{name} must be >= 1 or inf, got {p!r}")
    return value


def _float_exponent(name: str, p) -> float:
    """float() of `_exponent`; a float >= 1 is its own value, since
    float(Fraction(x)) == x, so it skips the Fraction."""
    return p if type(p) is float and p >= 1.0 else float(_exponent(name, p))


def _finite(name: str, a, positive: bool = False) -> np.ndarray:
    """a as a float array (a valid Python float cheaply, as np.float64):
    the one finite-real rule.  A bool (a flag is not a number), an entry
    not finite or, if ``positive``, not above 0 is a ParameterError."""
    if type(a) is float and math.isfinite(a) and (a > 0.0 or not positive):
        return np.float64(a)
    need = "finite and positive" if positive else "finite"
    try:
        x = np.asarray(a)
        if x.dtype == bool:
            raise TypeError
        x = x.astype(float, copy=False)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be {need}, got {a!r}") from None
    ok = np.isfinite(x) & (x > 0.0) if positive else np.isfinite(x)
    if not ok.all():
        raise ParameterError(f"{name} must be {need}, got {x[~ok].flat[0]}")
    return x


def _interval(name: str, ends, within=None) -> tuple:
    """ends as a (lo, hi) pair of floats: the one interval rule.  Exactly
    two ends, each a number (not an array) finite by `_finite`, with
    lo < hi; given the enclosing interval ``within`` = (a, b), [lo, hi]
    must lie in it up to a slack of 1e-9 (b - a)."""
    try:
        lo, hi = ends
    except (TypeError, ValueError):
        raise ParameterError(
            f"{name} must be a pair lo, hi, got {ends!r}") from None
    lo, hi = _finite(name, lo), _finite(name, hi)
    if lo.ndim or hi.ndim:
        raise ParameterError(f"{name} ends must be numbers, got {ends!r}")
    lo, hi = float(lo), float(hi)
    a, b = within or (-INF, INF)
    slack = 1e-9 * (b - a)
    if not a - slack <= lo < hi <= b + slack:
        raise ParameterError(
            f"{name} [{lo}, {hi}] must have lo < hi and lie in [{a}, {b}]")
    return lo, hi


def _order(name: str, k) -> int:
    """k as an int: the one derivative-order rule, so an order that is not
    a whole number is refused rather than truncated."""
    try:
        if k == int(k):
            return int(k)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{name} must be an integer, got {k!r}")


def _count(name: str, k, minimum: int) -> int:
    """k as an int: the one count rule, a whole number by `_order` that is
    not a bool (a flag is not a count) and is at least `minimum`."""
    try:
        count = _order(name, k)
    except ParameterError:
        count = None
    if isinstance(k, (bool, np.bool_)) or count is None or count < minimum:
        raise ParameterError(
            f"{name} must be an integer >= {minimum}, got {k!r}")
    return count


def _orders(name: str, ks) -> tuple:
    """ks as a tuple of ints: the one order-list rule, so every entry is
    an order by `_order` and the list is nonempty, sorted ascending and
    nonnegative."""
    ks = tuple(_order(f"{name} entry", k) for k in ks)
    if not ks or list(ks) != sorted(ks) or ks[0] < 0:
        raise ParameterError(
            f"{name} must be nonempty, sorted ascending and >= 0, got {ks}")
    return ks


@dataclass(frozen=True)
class NormSpec:
    """Which norm: L^p of the j-th derivative over a subinterval."""

    p: float
    j: int = 0
    domain: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", _float_exponent("p", self.p))
        object.__setattr__(self, "j", _count("derivative order", self.j, 0))
        if self.domain is not None:
            object.__setattr__(self, "domain", _interval("domain", self.domain))


@dataclass(frozen=True)
class ProductSpec:
    """L^q norm of the pointwise product of derivatives D^{k_1}..D^{k_kappa}."""

    ks: tuple
    q: float
    domain: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "ks", _orders("order list", self.ks))
        object.__setattr__(self, "q", _float_exponent("q", self.q))
        if self.domain is not None:
            object.__setattr__(self, "domain", _interval("domain", self.domain))


def _domain_slice(g: GridFunction, domain) -> slice:
    """The whole grid, or a subinterval snapped to grid nodes and widened
    by one node if the count comes out even, so Simpson stays applicable."""
    if domain is None:
        _check_grid_n(g.n)
        return slice(0, g.n)
    lo, hi = _interval("domain", domain, (g.a, g.b))
    i0 = max(0, min(int(round((lo - g.a) / g.dx)), g.n - 2))
    i1 = max(i0 + 1, min(int(round((hi - g.a) / g.dx)), g.n - 1))
    if (i1 - i0 + 1) % 2 == 0:
        if i1 < g.n - 1:
            i1 += 1
        elif i0 > 0:
            i0 -= 1
        else:
            raise ParameterError("cannot form an odd-count Simpson subgrid")
    return slice(i0, i1 + 1)


def _lp_of_values(vals: np.ndarray, p: float, dx: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(vals))) if vals.size else 0.0
    integral = float(simpson(np.abs(vals) ** p, dx))
    return max(integral, 0.0) ** (1.0 / p)


def _check_held(g: GridFunction, k: int) -> None:
    """The stack of g must hold D^k u."""
    if k > g.max_derivative:
        raise ParameterError(
            f"derivative {k} not available (stack holds {g.max_derivative})")


def lebesgue_norm(g: GridFunction, spec: NormSpec) -> float:
    """(integral |D^j u|^p)^{1/p} over spec.domain; grid max for p = inf."""
    _check_held(g, spec.j)
    sl = _domain_slice(g, spec.domain)
    return _lp_of_values(g.stack[spec.j][sl], spec.p, g.dx)


def derivative_product(g: GridFunction, ks) -> np.ndarray:
    """Pointwise product D^{k_1}u * ... * D^{k_kappa}u on the full grid."""
    ks = tuple(ks)
    _check_held(g, max(ks))
    v = np.ones(g.n)
    for k in ks:
        v = v * g.stack[k]
    return v


def product_norm(g: GridFunction, spec: ProductSpec) -> float:
    """L^q norm of the derivative product over spec.domain."""
    v = derivative_product(g, spec.ks)
    sl = _domain_slice(g, spec.domain)
    return _lp_of_values(v[sl], spec.q, g.dx)


def _far_field(mid_u: np.ndarray, p: int, w: np.ndarray, band: int) -> float:
    """sum over offsets k > band of w[k] sum_i (m_{i+k} - m_i)^p, even p.

    With a = m - mean(m) the binomial expansion gives every offset at
    once: the two end terms are a prefix and a suffix sum of a^p, and
    the others are the correlations sum_i a_{i+k}^j a_i^(p-j), 0 < j < p,
    from one zero-padded rfft per power of a and one irfft of their
    weighted spectra.  Terms j and p - j have conjugate spectra, so each
    pair enters once, as twice the real part.  Padding to a power of two
    >= 2 ncell - 1 keeps the lags apart.
    """
    ncell = mid_u.size
    a = mid_u - mid_u.mean()
    size = 1 << (2 * ncell - 2).bit_length()
    cross = np.zeros(size // 2 + 1)
    for j in range(1, p // 2 + 1):
        lo = np.fft.rfft(a ** j, size)
        hi = lo if 2 * j == p else np.fft.rfft(a ** (p - j), size)
        weight = math.comb(p, j) * (-1) ** j * (1 if 2 * j == p else 2)
        cross += weight * (lo * hi.conj()).real
    a_p = a ** p
    # at offset k: sum of a_t^p over t <= ncell-1-k plus over t >= k
    ends = (np.cumsum(a_p) + np.cumsum(a_p[::-1]))[::-1]
    lags = slice(band + 1, ncell)
    return float(w[lags] @ (np.fft.irfft(cross, size)[lags] + ends[lags]))


def gagliardo_seminorm(g: GridFunction, s: float, p: float) -> float:
    """Discrete fractional seminorm of order s in L^p.

    Computes (sum_{i != j} |u(x_i)-u(x_j)|^p / |x_i-x_j|^{1+sp} dx^2)^{1/p}
    over cell midpoints of the grid interval padded by one support length
    on each side; u is taken as zero on the padding, which is exact for
    compactly supported samples.  Pairs of grid cells are swept by offset k
    with the kernel w_k = (k dx)^{-(1+sp)}; cell i meets the padding through
    |m_i|^p times a range sum of w, taken from suffix sums (prefix sums
    lose about 8 digits to cancellation).  O(n) memory.

    For p in FAR_FIELD_ORDERS the offsets beyond the near band,
    k > SEMINORM_NEAR_BAND * ncell, come from FFT correlations
    (`_far_field`) in O(n log n); the band keeps the direct sweep, since
    the binomial expansion cancels where m_{i+k} - m_i is small.  Error
    budget of the band, worst relative difference from the full sweep over
    the seven corpus functions at n = 1025, 2049, 4097, 8193 and
    (s, p) in {(1/2, 4), (0.1, 4), (0.9, 6), (1/2, 2)}: 7.6e-15 for a
    band of 1/16 of the grid, 3.2e-13 for 1/32; without centring on the
    mean, 1.4e-13 and 6.3e-12.  Any other p sweeps every offset: O(n^2).
    """
    if not 0.0 < s < 1.0:
        raise ParameterError("s must lie in (0,1)")
    p = _float_exponent("p", p)
    if math.isinf(p):
        raise ParameterError("p must be finite for the seminorm")
    u = g.stack[0]
    ncell = g.n - 1
    mid_u = 0.5 * (u[1:] + u[:-1])
    # w[k] for offsets k = 1 .. 2 ncell - 1; tail[k] = sum of w[k:]
    w = np.zeros(2 * ncell + 1)
    w[1:-1] = (np.arange(1, 2 * ncell) * g.dx) ** -(1.0 + s * p)
    tail = np.cumsum(w[::-1])[::-1]
    # cell i sees the left pad at offsets i+1 .. i+ncell; the right pad is
    # the mirror image, at the left-pad offsets of cell ncell-1-i
    near = tail[1:ncell + 1] - tail[ncell + 1:]
    pad = near + near[::-1]
    band = ncell - 1
    if p in FAR_FIELD_ORDERS:
        band = min(band, math.ceil(SEMINORM_NEAR_BAND * ncell))
    inner = sum(w[k] * float(np.sum(np.abs(mid_u[k:] - mid_u[:-k]) ** p))
                for k in range(1, band + 1))
    if band < ncell - 1:
        inner += _far_field(mid_u, int(p), w, band)
    total = 2.0 * (inner + float(np.sum(np.abs(mid_u) ** p * pad))) * g.dx ** 2
    return max(total, 0.0) ** (1.0 / p)
