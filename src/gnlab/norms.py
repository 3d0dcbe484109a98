"""Lebesgue, derivative-product, and fractional norms on grid functions.

Finite-exponent norms use composite Simpson on the uniform grid, so the
node count over the integration domain must be odd.  `simpson` is the one
quadrature rule of the package: `gn` and `control` integrate with it too,
and `simpson_weights` gives its weights for callers that fold the rule
into a precomputed form.
The infinity norm is the grid maximum.  The fractional seminorm is the
standard double-integral Gagliardo form discretized by midpoint double
summation over the grid domain padded by one support length on each side.
It is an offset sweep, each pair of cells once, with the zero padding in
closed form: O(n^2) time and O(n) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .funcspace import GridFunction

INF = float("inf")

#: relative accuracy target of the Simpson rule at the reference resolution
QUADRATURE_RTOL = 1e-6


def simpson(y, dx: float):
    """Composite Simpson integral of y along axis 0 on nodes spaced dx.

    Performs the floating-point operations of SciPy's
    `simpson(y, dx=dx, axis=0)`, so results match it bit for bit: an even
    node count takes Simpson up to the next-to-last node plus SciPy's
    equal-spacing correction for the last interval.
    """
    y = np.asarray(y)
    n = y.shape[0] if y.ndim else 0
    if n < 3:
        raise ParameterError(f"Simpson quadrature needs >= 3 nodes, got {n}")
    stop = n - 2 if n % 2 else n - 3
    result = np.sum(y[0:stop:2] + 4.0 * y[1:stop + 1:2] + y[2:stop + 2:2],
                    axis=0)
    result *= dx / 3.0
    if n % 2 == 0:
        # SciPy's last-interval weights 5dx/12, 2dx/3, -dx/12, same operations
        alpha = (2 * dx ** 2 + 3 * dx * dx) / (6 * (dx + dx))
        beta = (dx ** 2 + 3.0 * dx * dx) / (6 * dx)
        eta = dx ** 3 / (6 * dx * (dx + dx))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def simpson_weights(n: int, dx: float) -> np.ndarray:
    """Weights w of the composite Simpson rule on n nodes, odd n only.

    `w @ y` is `simpson(y, dx)` summed in another order, so the two agree
    up to roundoff.
    """
    if n < 3 or n % 2 == 0:
        raise ParameterError(
            f"Simpson weights need an odd node count >= 3, got {n}")
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (dx / 3.0)


def _check_exponent(p) -> float:
    """p as a float: the one exponent rule, p >= 1 or p = +inf."""
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise ParameterError(f"exponent must be a number, got {p!r}") from None
    if not (p >= 1.0):
        raise ParameterError(f"exponent must be >= 1 or inf, got {p}")
    return p


def _order(name: str, k) -> int:
    """k as an int: the one derivative-order rule, so an order that is not
    a whole number is refused rather than truncated."""
    try:
        if k == int(k):
            return int(k)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{name} must be an integer, got {k!r}")


@dataclass(frozen=True)
class NormSpec:
    """Which norm: L^p of the j-th derivative over a subinterval."""

    p: float
    j: int = 0
    domain: tuple | None = None

    def __post_init__(self):
        _check_exponent(self.p)
        j = _order("derivative order", self.j)
        if j < 0:
            raise ParameterError("derivative order must be >= 0")
        object.__setattr__(self, "j", j)


@dataclass(frozen=True)
class ProductSpec:
    """L^q norm of the pointwise product of derivatives D^{k_1}..D^{k_kappa}."""

    ks: tuple
    q: float
    domain: tuple | None = None

    def __post_init__(self):
        ks = tuple(_order("order", k) for k in self.ks)
        if not ks:
            raise ParameterError("order list must be nonempty")
        if list(ks) != sorted(ks):
            raise ParameterError("order list must be sorted ascending")
        if ks[0] < 0:
            raise ParameterError("orders must be >= 0")
        _check_exponent(self.q)
        object.__setattr__(self, "ks", ks)

    @property
    def kappa(self) -> int:
        return len(self.ks)


def _domain_slice(g: GridFunction, domain) -> slice:
    """Snap a subinterval to grid nodes; widen by one node if the count
    comes out even so Simpson stays applicable."""
    if domain is None:
        i0, i1 = 0, g.n - 1
    else:
        lo, hi = float(domain[0]), float(domain[1])
        tol = 1e-9 * (g.b - g.a)
        if lo < g.a - tol or hi > g.b + tol or hi <= lo:
            raise ParameterError(
                f"domain [{lo}, {hi}] not inside grid [{g.a}, {g.b}]")
        i0 = int(round((lo - g.a) / g.dx))
        i1 = int(round((hi - g.a) / g.dx))
        i0 = max(0, min(i0, g.n - 2))
        i1 = max(i0 + 1, min(i1, g.n - 1))
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
    if vals.size % 2 == 0:
        raise ParameterError("Simpson quadrature needs an odd node count")
    integral = float(simpson(np.abs(vals) ** p, dx))
    return max(integral, 0.0) ** (1.0 / p)


def lebesgue_norm(g: GridFunction, spec: NormSpec) -> float:
    """(integral |D^j u|^p)^{1/p} over spec.domain; grid max for p = inf."""
    if spec.j > g.max_derivative:
        raise ParameterError(
            f"derivative {spec.j} not available (stack holds {g.max_derivative})")
    sl = _domain_slice(g, spec.domain)
    return _lp_of_values(g.stack[spec.j][sl], float(spec.p), g.dx)


def derivative_product(g: GridFunction, ks) -> np.ndarray:
    """Pointwise product D^{k_1}u * ... * D^{k_kappa}u on the full grid."""
    ks = tuple(ks)
    if max(ks) > g.max_derivative:
        raise ParameterError(
            f"derivative {max(ks)} not available (stack holds {g.max_derivative})")
    v = np.ones(g.n)
    for k in ks:
        v = v * g.stack[k]
    return v


def product_norm(g: GridFunction, spec: ProductSpec) -> float:
    """L^q norm of the derivative product over spec.domain."""
    v = derivative_product(g, spec.ks)
    sl = _domain_slice(g, spec.domain)
    return _lp_of_values(v[sl], float(spec.q), g.dx)


def gagliardo_seminorm(g: GridFunction, s: float, p: float) -> float:
    """Discrete fractional seminorm of order s in L^p.

    Computes (sum_{i != j} |u(x_i)-u(x_j)|^p / |x_i-x_j|^{1+sp} dx^2)^{1/p}
    over cell midpoints of the grid interval padded by one support length
    on each side; u is taken as zero on the padding, which is exact for
    compactly supported samples.  Pairs of grid cells are swept by offset k
    with the kernel w_k = (k dx)^{-(1+sp)}; cell i meets the padding through
    |m_i|^p times a range sum of w, taken from suffix sums (prefix sums
    lose about 8 digits to cancellation).  O(n^2) time, O(n) memory.
    """
    if not 0.0 < s < 1.0:
        raise ParameterError("s must lie in (0,1)")
    p = _check_exponent(p)
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
    inner = sum(w[k] * float(np.sum(np.abs(mid_u[k:] - mid_u[:-k]) ** p))
                for k in range(1, ncell))
    total = 2.0 * (inner + float(np.sum(np.abs(mid_u) ** p * pad))) * g.dx ** 2
    return max(total, 0.0) ** (1.0 / p)
