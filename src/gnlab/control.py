"""Simulation of a four-state control-affine chain with a sign obstruction.

The system is

    x1' = w,   x2' = x1,   x3' = x2,   x4' = (x1 x2 x3)^2 - x1^p,

integrated from x(0) = 0.  Writing u := x3 makes x2 = u' and x1 = u''
along any trajectory, and when the control returns the chain (x1,x2,x3)
to zero at time T the terminal value collapses to

    x4(T) = int_0^T (u u' u'')^2 dt - int_0^T (u'')^p dt.

The laboratory integrates the system with a classical fixed-step
fourth-order scheme.  Because the chain is triangular and x4 feeds back
into nothing, the steps are swept in blocks one state at a time, each
state an elementwise increment array and a cumulative sum along time;
the result is bit-identical to stepping the scheme one step at a time.
The sweep reads its stage controls a block of rows at a time and yields
its blocks of states one at a time, and every caller reduces each block
before it asks for the next (Simpson sums, extreme values, the terminal
row), so no run holds more than one block of states whatever the number
of steps.  Control laws become a chain in one place, `integrate`, which
checks and prices them and evaluates each into a column of controls.
The obstruction's controls are never stored whole: they
are a sine matrix times per-trial coefficients, less a quadratic
correction, times a scale, and each block of them is built as it is read.
The power term x1^p is |x1|^p with x1's sign restored for odd p, in the
sweep and in the quadrature check alike.
A run whose chain (the stage-grid arrays it holds and the larger of its
setup and one sweep block) would take more than the package's byte cap
(`funcspace.BYTES_CAP`) is refused before anything is allocated.
It cross-checks the terminal formula by quadrature, fits the
epsilon-scaling exponents of the bump control family
w(t) = eps * chi'''(t * eps^{-a}), and probes the p >= 12 sign
obstruction with random constrained controls.

For the bump family the chain integrates exactly to

    x1 = eps^{1+a} chi''(s),  x2 = eps^{1+2a} chi'(s),
    x3 = eps^{1+3a} chi(s),   s = t * eps^{-a},

so the two terminal terms scale as eps^{6+13a} * int (chi chi' chi'')^2
and eps^{p(1+a)+a} * int (chi'')^p, and the observable log-slope of
|x4(T)| is the smaller of the two exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from . import funcspace as fs
from .errors import (ParameterError, PreconditionError, InvariantError,
                     DivergenceError)
from .norms import _count, _finite, _SimpsonSweep, simpson, simpson_weights

DEFAULT_STEPS = 2 ** 14
TERMINAL_TOL = 1e-8
OBSTRUCTION_TOL = 1e-10
MONOTONE_TOL = 1e-10
P1_RANDOM_LAWS = 3
NOISE_MODES = 16
# steps x batch state entries per block of the RK4 sweep, so each block
# temporary holds 512 KB whatever the batch; a streamed run holds about 20
# of them.  Of 2^15 to 2^18, 2^16 and 2^17 swept the obstruction batch
# fastest (the block stays in cache), and 2^16 holds the least of the two
_BLOCK_ENTRIES = 2 ** 16
# stage-grid arrays that `integrate` holds while it evaluates its laws and
# frees before the sweep: the grid and one law's values and temporaries on
# the whole grid (4 traced, a grid law sampled at every stage point), and a
# bump-triple law's on its support's share of the grid (16.1 traced,
# chi_stack to order 3)
_SETUP_ARRAYS, _BUMP_ARRAYS = 5, 17
_COEFF_GRID_N = 2 ** 16 + 1


@dataclass(frozen=True)
class ControlSystem:
    """Exponent p and horizon T of the chain system."""

    p: int
    T: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "p", _count("p", self.p, 1))
        _finite("horizon", self.T, positive=True)


@dataclass(frozen=True)
class Zero:
    """The zero control."""

    def __call__(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def descriptor(self) -> dict:
        return {"family": "zero"}


@dataclass(frozen=True)
class ScaledBumpTriple:
    """w(t) = eps * chi'''(t * eps^{-a}); support [0, eps^a]."""

    epsilon: float
    a: float = 0.0

    def __post_init__(self):
        _finite("epsilon", self.epsilon, positive=True)
        if _finite("scaling exponent a", self.a) < 0:
            raise ParameterError(f"a must be >= 0, got {self.a}")

    @property
    def support_end(self) -> float:
        return self.epsilon ** self.a

    def __call__(self, t):
        w = np.array(t, dtype=float)  # the scaled times, then the control
        w *= self.epsilon ** (-self.a)
        inside = (w > 0.0) & (w < 1.0)  # chi_stack only on the support
        w[inside] = self.epsilon * fs.chi_stack(w[inside], 3)[3]
        w[~inside] = 0.0
        return w

    def descriptor(self) -> dict:
        return {"family": "scaled-bump-triple",
                "epsilon": self.epsilon, "a": self.a}


@dataclass(frozen=True, eq=False)
class GridSamples:
    """Control given by samples at 2K+1 uniform stage points on [0, T].

    Linear interpolation between samples; when the integrator runs with
    steps = K every stage evaluation hits a stored sample exactly.  The
    samples are kept as a read-only float64 copy of ``values``.
    """

    values: np.ndarray
    horizon: float

    def __post_init__(self):
        vals = np.array(_finite("samples", self.values))
        if vals.ndim != 1 or vals.size < 5 or vals.size % 2 == 0:
            raise ParameterError("need an odd sample count >= 5 (2K+1 stages)")
        _finite("horizon", self.horizon, positive=True)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, t):
        grid = np.linspace(0.0, self.horizon, self.values.size)
        return np.interp(np.asarray(t, dtype=float), grid, self.values)

    def descriptor(self) -> dict:
        return {"family": "grid-samples", "count": self.values.size,
                "horizon": self.horizon,
                "sup": float(np.max(np.abs(self.values)))}


ControlLaw = Union[Zero, ScaledBumpTriple, GridSamples]


def _power(y: np.ndarray, p: int) -> np.ndarray:
    """y^p as |y|^p with y's sign restored for odd p.

    numpy's float power on a negative base costs several times its cost
    on |y|; both are within an ulp of the exact power, and copysign keeps
    -0.0, +-inf and NaN as y ** p does.
    """
    mag = np.abs(y) ** p
    return np.copysign(mag, y, out=mag) if p % 2 else mag


def _block_rows(batch: int) -> int:
    """Steps per sweep block: `_BLOCK_ENTRIES` state entries, rounded down
    to an even count so that no Simpson pair straddles two blocks."""
    return max(2, _BLOCK_ENTRIES // max(batch, 1) // 2 * 2)


def _block_spans(steps: int, batch: int):
    """(lo, hi) step ranges of the sweep's blocks: `_block_rows` steps
    each, except the last, which takes the rest: at least two steps, one
    more than an even block when a single step would be left over."""
    rows = _block_rows(batch)
    lo = 0
    while lo < steps:
        hi = lo + rows if steps - lo - rows >= 2 else steps
        yield lo, hi
        lo = hi


def check_chain_size(steps: int, batch: int, held: float,
                     setup: float) -> None:
    """Refuse, before anything is allocated, a chain whose footprint is
    above the package's byte cap.

    Counted in float64 entries on the stage grid (2*steps+1 points), a
    fraction of one for a share of the grid or a block of it: `held`
    arrays that the caller keeps through the sweep (`integrate`'s law
    columns, the obstruction's sine matrix and one block of its controls),
    and the larger of `setup` arrays that it frees before the sweep
    (`integrate`'s grid and law temporaries) and the sweep's own: one
    block, its four states and 16 temporaries of one state's size (13
    traced, the callers' reductions included), and, for one run, the pair
    terms that its two Simpson sums keep, steps/2 each.
    """
    grid = 2 * steps + 1
    block = (min(steps, _block_rows(batch) + 1) + 1) * batch
    sweep = 20 * block + (steps if batch == 1 else 0)
    fs.refuse_above_cap(f"the chain for {steps} steps x {batch} runs",
                        8 * math.ceil(held * grid + max(sweep, setup * grid)))


def _rk4_blocks(rows, batch: int, T: float, steps: int, p: int):
    """Batched classical RK4 for the chain, swept in blocks of steps;
    yields (lo, block) with block the (4, m+1, batch) states at nodes
    lo, ..., lo + m.

    The controls come from `rows(a, b)`: their values at stage points
    a, ..., b-1 of the 2*steps+1 nodes and midpoints, shape (b-a, batch).
    A caller that stores them answers with a slice; the obstruction
    builds each block as it is asked.  The stage grid makes every RK4
    substep land on a control value, preserving the scheme's fourth
    order.  Each block reads its rows once, [2*lo, 2*hi+1), and takes the
    substeps' values as strided views of them.

    Every block is a view of one buffer that the next block overwrites,
    so a caller reduces it before asking for the next.  Its row 0 is the
    state carried in from the block before (the origin for the first).
    The blocks are `_block_spans`.

    The chain is triangular: x1's stage values depend only on w, x2's on
    x1 and w, x3's on x2, x1 and w, and x4 feeds back into nothing.  So
    each block is swept state by state: each state's increments over the
    block are one elementwise expression in the node values of the states
    before it, written with the stepwise scheme's operands in the
    stepwise order, and a cumulative sum along time turns them into node
    values.  The carried state is added into the first increment, and the
    cumulative sum is sequential, so every state is the same float the
    step-by-step loop produces.
    """
    h = T / steps
    buf = np.zeros((4, min(steps, _block_rows(batch) + 1) + 1, batch))

    def power_term(y1, y2, y3):
        return (y1 * y2 * y3) ** 2 - _power(y1, p)

    def advance(block, state, a, b, c, d):
        inc = (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        inc[0] += block[state, 0]
        np.cumsum(inc, axis=0, out=block[state, 1:])

    m = 0
    for lo, hi in _block_spans(steps, batch):
        buf[:, 0] = buf[:, m]  # the last node of the block before
        m = hi - lo
        block = buf[:, :m + 1]
        ws = rows(2 * lo, 2 * hi + 1)
        if ws.shape != (2 * m + 1, batch):
            raise ParameterError("stage rows a..b-1 must be (b-a, batch)")
        # overflow is the divergence signal here: let it produce inf/nan
        # silently and trip the per-block finiteness check instead
        with np.errstate(over="ignore", invalid="ignore"):
            wa, wm, wb = ws[:-1:2], ws[1::2], ws[2::2]
            advance(block, 0, wa, wm, wm, wb)
            x1 = block[0, :-1]
            b2 = x1 + 0.5 * h * wa
            c2 = x1 + 0.5 * h * wm
            d2 = x1 + h * wm
            advance(block, 1, x1, b2, c2, d2)
            x2 = block[1, :-1]
            b3 = x2 + 0.5 * h * x1
            c3 = x2 + 0.5 * h * b2
            d3 = x2 + h * c2
            advance(block, 2, x2, b3, c3, d3)
            x3 = block[2, :-1]
            advance(block, 3, power_term(x1, x2, x3),
                    power_term(b2, b3, x3 + 0.5 * h * x2),
                    power_term(c2, c3, x3 + 0.5 * h * b3),
                    power_term(d2, d3, x3 + h * c3))
            finite = (np.isfinite(block[0, 1:])
                      & np.isfinite(block[3, 1:])).all(axis=1)
        if not finite.all():
            raise DivergenceError(lo + 1 + int(np.argmin(finite)))
        del b2, c2, d2, b3, c3, d3  # the caller's reductions reuse the room
        yield lo, block


def integrate(sys: ControlSystem, laws: Sequence[ControlLaw],
              steps: int = DEFAULT_STEPS):
    """The `_rk4_blocks` sweep of the chain from the origin under each of
    `laws`, one run per law: (4, m+1, len(laws)) states a block, the last
    block's last row the terminal states.  The steps, every law's support
    and the footprint are checked on the call, before anything is
    allocated; each law is evaluated on the stage grid into one column of
    the controls that the sweep reads, and the grid is dropped."""
    steps = _count("steps", steps, 2)
    batch = _count("law count", len(laws), 1)
    widest = max([law.support_end for law in laws
                  if isinstance(law, ScaledBumpTriple)], default=0.0)
    if widest > sys.T * (1 + 1e-12):
        raise PreconditionError(
            f"bump support [0, {widest:g}] exceeds the horizon {sys.T:g}")
    if any(isinstance(law, GridSamples)
           and abs(law.horizon - sys.T) > 1e-12 * max(1.0, sys.T)
           for law in laws):
        raise PreconditionError("grid-sample horizon differs from the system's")
    check_chain_size(steps, batch, batch,
                     _SETUP_ARRAYS + _BUMP_ARRAYS * widest / sys.T)
    stage_t = np.linspace(0.0, sys.T, 2 * steps + 1)
    w = np.empty((stage_t.size, batch))
    for col, law in enumerate(laws):
        w[:, col] = law(stage_t)
    return _rk4_blocks(lambda a, b: w[a:b], batch, sys.T, steps, sys.p)


def terminal_formula_check(sys: ControlSystem, law: ControlLaw,
                           steps: int = DEFAULT_STEPS) -> dict:
    """Relative gap between x4(T) and its quadrature form on the grid, the
    two Simpson integrals summed block by block as the chain is swept.

    Requires the chain to have returned: |x_i(T)| <= TERMINAL_TOL for
    i = 1, 2, 3 (the formula only holds on the constraint set).
    """
    steps = _count("steps", steps, 2)
    h = sys.T / steps
    pos, neg = _SimpsonSweep(steps + 1, h), _SimpsonSweep(steps + 1, h)
    for lo, block in integrate(sys, [law], steps):
        x1, x2, x3 = block[:3, :, 0]
        pos.add(lo, (x3 * x2 * x1) ** 2)
        neg.add(lo, _power(x1, sys.p))
    terminal = block[:, -1, 0]
    triple = np.abs(terminal[:3])
    if np.any(triple > TERMINAL_TOL):
        raise PreconditionError(
            f"terminal chain state {triple} exceeds {TERMINAL_TOL:g}; "
            "the quadrature identity needs x1(T)=x2(T)=x3(T)=0")
    quad = pos.result() - neg.result()
    x4t = float(terminal[3])
    residual = abs(x4t - quad) / max(abs(x4t), 1e-30)
    return {"x4_terminal": x4t, "quadrature": float(quad),
            "residual": float(residual), "terminal_triple": triple.tolist(),
            "steps": steps, "p": sys.p, "T": sys.T}


@lru_cache(maxsize=None)
def bump_integrals(p: int) -> tuple:
    """(int_0^1 (chi chi' chi'')^2, int_0^1 (chi'')^p), the coefficients of
    the quadratic and the p-th power terms, from one sampled chi stack."""
    ch = fs.chi_stack(np.linspace(0.0, 1.0, _COEFF_GRID_N), 2)
    dx = 1.0 / (_COEFF_GRID_N - 1)
    return (float(simpson((ch[0] * ch[1] * ch[2]) ** 2, dx)),
            float(simpson(ch[2] ** p, dx)))


def expected_terms(p: int, a: float) -> dict:
    """Exponents, coefficients, and the predicted slope and sign.

    x4(T) = eps^{6+13a} A - eps^{p(1+a)+a} B_p with A = int (chi chi' chi'')^2
    and B_p = int (chi'')^p; as eps -> 0 the smaller exponent wins and the
    observable sign is that of its coefficient.
    """
    e_quad = 6.0 + 13.0 * a
    e_pow = p * (1.0 + a) + a
    coeff_a, coeff_b = bump_integrals(p)
    if e_quad < e_pow - 1e-12:
        sign = 1
    elif e_pow < e_quad - 1e-12:
        sign = -int(np.sign(coeff_b))
    else:
        sign = int(np.sign(coeff_a - coeff_b))
    return {"exponent_quadratic": e_quad, "exponent_power": e_pow,
            "expected_slope": min(e_quad, e_pow), "expected_sign": sign,
            "coefficient_quadratic": coeff_a, "coefficient_power": coeff_b}


@dataclass(frozen=True)
class ScalingReport:
    """Per-epsilon terminal values and the fitted log-log slope."""

    p: int
    a: float
    T: float
    steps: int
    rows: tuple
    slope: Optional[float]
    expected_slope: float
    expected_sign: int

    def to_dict(self) -> dict:
        return {"p": self.p, "a": self.a, "T": self.T, "steps": self.steps,
                "rows": [{"eps": e, "x4": v, "sign": s} for e, v, s in self.rows],
                "slope": self.slope, "expected_slope": self.expected_slope,
                "expected_sign": self.expected_sign}

    def csv_rows(self) -> list:
        return [(e, v, s) for e, v, s in self.rows]


def scaling_experiment(p: int, a: float, eps: Sequence[float], T: float = 1.0,
                       steps: int = DEFAULT_STEPS) -> ScalingReport:
    """Fit the epsilon-exponent of |x4(T)| for the bump control family.

    The epsilon list must be geometric (constant ratio); every scaled
    support [0, eps^a] must fit inside [0, T].  Zero terminal values are
    dropped from the fit; a single surviving point yields no slope.  p and
    T follow ControlSystem's rule.
    """
    p = ControlSystem(p, T).p
    steps = _count("steps", steps, 2)
    eps = _finite("epsilon list", eps, positive=True)
    if eps.ndim != 1 or not eps.size:
        raise ParameterError("epsilon list must be nonempty and flat")
    eps = eps.tolist()
    if len(eps) >= 3:
        ratios = [eps[i + 1] / eps[i] for i in range(len(eps) - 1)]
        if any(abs(r / ratios[0] - 1.0) > 1e-9 for r in ratios):
            raise ParameterError("epsilon list must be geometric")
    for _, block in integrate(ControlSystem(p, T),
                              [ScaledBumpTriple(e, a) for e in eps], steps):
        pass  # only the last block's terminal row is read
    x4 = block[3, -1]
    rows = tuple((e, float(v), int(np.sign(v))) for e, v in zip(eps, x4))
    kept = [(e, abs(v)) for e, v, _ in rows if v != 0.0]
    slope = None
    if len(kept) >= 2:
        le = np.log([e for e, _ in kept])
        lv = np.log([v for _, v in kept])
        slope = float(np.polyfit(le, lv, 1)[0])
    terms = expected_terms(p, a)
    return ScalingReport(p=p, a=a, T=T, steps=steps, rows=rows, slope=slope,
                         expected_slope=terms["expected_slope"],
                         expected_sign=terms["expected_sign"])


def _constraint_matrix(T: float) -> np.ndarray:
    """Terminal functionals of the monomial controls 1, t, t^2.

    Row i is the linear functional giving x_{i+1}(T); column j the
    monomial t^j.  Closed forms of iterated integrals:
    x1(T) = int w, x2(T) = int (T-s) w, x3(T) = int (T-s)^2/2 w.
    """
    m = np.empty((3, 3))
    for j in range(3):
        m[0, j] = T ** (j + 1) / (j + 1)
        m[1, j] = T ** (j + 2) / ((j + 1) * (j + 2))
        m[2, j] = T ** (j + 3) / ((j + 1) * (j + 2) * (j + 3))
    return m


def _noise_modes(stage_t: np.ndarray, T: float, trials: int,
                 seed: int) -> tuple:
    """The low-pass noise sum_k c_k sin(pi k t / T) of each trial as its
    two factors: the (stage points, modes) sine matrix and the (modes,
    trials) coefficients c_k ~ N(0, 1)/k, drawn from the stream seeded by
    (seed, trial)."""
    modes = np.arange(1, NOISE_MODES + 1)
    coeffs = np.empty((NOISE_MODES, trials))
    for idx in range(trials):
        rng = np.random.default_rng([seed, idx])
        coeffs[:, idx] = rng.standard_normal(NOISE_MODES) / modes
    return np.sin(np.pi * np.outer(stage_t, modes) / T), coeffs


def _terminal_targets(rows, stage_t: np.ndarray, T: float,
                      batch: int) -> np.ndarray:
    """x1(T), x2(T), x3(T) of each control column: Simpson on the stage
    grid of the weights 1, T - t, (T - t)^2 / 2 times the controls, with
    the weights folded into the rule's.  The controls are read a sweep
    block of stage rows at a time, `rows(a, b)` as in `_rk4_blocks`, and
    each block adds its (3, b - a) @ (b - a, batch) product; no row is
    read twice."""
    steps = (stage_t.size - 1) // 2
    weights = np.stack([np.ones_like(stage_t), T - stage_t,
                        0.5 * (T - stage_t) ** 2])
    weights *= simpson_weights(stage_t.size, T / (stage_t.size - 1))
    out = np.zeros((3, batch))
    for lo, hi in _block_spans(steps, batch):
        end = 2 * hi + (hi == steps)  # the last block takes the end point
        out += weights[:, 2 * lo:end] @ rows(2 * lo, end)
    return out


def _obstruction_sums(rows, batch: int, T: float, steps: int,
                      p: int) -> tuple:
    """(pos, neg, chain_scale, terminal) of the chains driven by the
    `batch` controls that `rows` gives, as `_rk4_blocks` reads them: the
    Simpson integrals of (x1 x2 x3)^2 and |x1|^p, the largest of 1 and
    |x1|, |x2|, |x3| along the chain, and the (4, batch) terminal states,
    each reduced from a block of `_rk4_blocks` as it is swept and equal to
    its value from the stored states."""
    pos = _SimpsonSweep(steps + 1, T / steps)
    neg = _SimpsonSweep(steps + 1, T / steps)
    chain_scale = np.ones(batch)
    for lo, block in _rk4_blocks(rows, batch, T, steps, p):
        pos.add(lo, (block[0] * block[1] * block[2]) ** 2)
        neg.add(lo, np.abs(block[0]) ** p)
        for state in block[:3]:
            np.maximum(chain_scale, np.max(np.abs(state), axis=0),
                       out=chain_scale)
    return pos.result(), neg.result(), chain_scale, block[:, -1]


@dataclass(frozen=True)
class ObstructionReport:
    """Sign check of x4(T) over random constrained controls."""

    p: int
    T: float
    eta: float
    trials: int
    seed: int
    steps: int
    tol: float
    margins: tuple
    worst: float
    worst_trial: int
    worst_x4: float
    passed: bool
    skipped: tuple


def obstruction_check(p: int, T: float, eta: float, trials: int = 100,
                      seed: int = 7, steps: int = DEFAULT_STEPS
                      ) -> ObstructionReport:
    """Random constrained controls and the normalized sign of x4(T).

    Controls are low-pass Fourier noise sum c_k sin(pi k t / T) with
    c_k ~ N(0,1)/k from per-trial streams seeded by (seed, trial), made
    terminal-constraint-satisfying by subtracting the quadratic-polynomial
    control whose chain response cancels x1(T), x2(T), x3(T), then scaled
    to sup-norm eta.  The margin is x4(T) divided by the sum of the two
    terminal integrals, so a violation is relative to the terms' size.
    p and T follow ControlSystem's rule, and p >= 12.

    The controls are never stored whole: each sweep block's are built into
    one reused buffer from the sine matrix, the coefficients, the
    correction and the scale, in three passes over the blocks: the noise's
    terminal targets, each control's sup, and the sweep.
    """
    p = _count("obstruction regime p", ControlSystem(p, T).p, 12)
    trials, seed = _count("trials", trials, 1), _count("seed", seed, 0)
    steps = _count("steps", steps, 2)
    _finite("eta", eta, positive=True)
    budget = T ** (p - 12) * eta ** (p - 6)
    if budget > 1 + 1e-12:
        raise ParameterError(
            f"T^(p-12) eta^(p-6) = {budget:g} exceeds 1; outside the regime")

    # the grid, the sine matrix and one temporary of its size while it is
    # built (the room of the basis and the targets' weights after), and
    # one block of controls
    buf_rows = min(2 * steps + 1, 2 * _block_rows(trials) + 3)
    check_chain_size(steps, trials, 1 + 2 * NOISE_MODES
                     + buf_rows * trials / (2 * steps + 1), setup=0)
    stage_t = np.linspace(0.0, T, 2 * steps + 1)
    sines, coeffs = _noise_modes(stage_t, T, trials, seed)
    basis = np.stack([np.ones_like(stage_t), stage_t, stage_t ** 2], axis=1)
    buf = np.empty((buf_rows, trials))

    def noise(a, b):
        return np.matmul(sines[a:b], coeffs, out=buf[:b - a])

    def controls(a, b):
        """Stage rows a..b-1 of the projected, scaled controls, in the
        buffer that the next call overwrites."""
        out = noise(a, b)
        out -= basis[a:b] @ correction
        out *= scale
        return out

    correction = np.linalg.solve(_constraint_matrix(T),
                                 _terminal_targets(noise, stage_t, T, trials))
    # the sup of the projected controls, built as the sweep builds them
    scale = np.ones(trials)
    sup = np.zeros(trials)
    for lo, hi in _block_spans(steps, trials):
        np.maximum(sup, np.max(np.abs(controls(2 * lo, 2 * hi + 1)), axis=0),
                   out=sup)
    scale = np.where(sup > 0, eta / np.where(sup > 0, sup, 1.0), 0.0)

    pos, neg, chain_scale, terminal = _obstruction_sums(controls, trials, T,
                                                        steps, p)
    x4t = terminal[3]

    # a trial whose chain did not return to 1e-6 of its size is skipped
    skip = (np.abs(terminal[:3]) > 1e-6 * chain_scale).any(axis=0)
    if skip.all():
        raise InvariantError("every trial was skipped; no margins to report")
    denom = pos + neg
    margins = np.where(denom > 0, x4t / np.where(denom > 0, denom, 1.0), 0.0)
    worst_trial = int(np.argmin(np.where(skip, np.inf, margins)))
    worst = float(margins[worst_trial])
    reason = "terminal constraint violated after projection"
    return ObstructionReport(p=p, T=T, eta=eta, trials=trials, seed=seed,
                             steps=steps, tol=OBSTRUCTION_TOL,
                             margins=tuple(margins[~skip].tolist()),
                             worst=worst,
                             worst_trial=worst_trial,
                             worst_x4=float(x4t[worst_trial]),
                             passed=bool(worst >= -OBSTRUCTION_TOL),
                             skipped=tuple((int(idx), reason) for idx
                                           in np.flatnonzero(skip)))


def default_p1_laws(T: float, steps: int, seed: int = 0) -> list:
    """Zero, a bump triple, and P1_RANDOM_LAWS bounded random controls."""
    steps, seed = _count("steps", steps, 2), _count("seed", seed, 0)
    # each random law keeps its samples, one array on the stage grid,
    # beside one `integrate` run of the bump law on the whole horizon
    check_chain_size(steps, 1, P1_RANDOM_LAWS + 1,
                     _SETUP_ARRAYS + _BUMP_ARRAYS)
    laws = [Zero(), ScaledBumpTriple(1e-2, 0.0)]
    for i in range(P1_RANDOM_LAWS):
        rng = np.random.default_rng([seed, i])
        vals = rng.standard_normal(2 * steps + 1)
        vals /= max(np.max(np.abs(vals)), 1e-30)
        laws.append(GridSamples(vals, T))
    return laws


def monotone_check_p1(T: float = 1.0, steps: int = 2 ** 12,
                      seed: int = 0) -> dict:
    """x2 + x4 must be non-decreasing along every p=1 trajectory of the
    default laws (`default_p1_laws`).

    For p = 1 the sum satisfies (x2+x4)' = (x1 x2 x3)^2 >= 0; each RK4
    increment is a nonnegative combination of stage values, so the
    discrete sequence is non-decreasing up to roundoff.  Its smallest
    increment and largest size are kept as the chain is swept (a block's
    row 0 is the state carried in, so block edges are included).
    """
    sys = ControlSystem(1, T)
    steps, seed = _count("steps", steps, 2), _count("seed", seed, 0)
    rows = []
    for law in default_p1_laws(T, steps, seed):
        drop, scale = 0.0, 1.0
        for _, block in integrate(sys, [law], steps):
            seq = block[1, :, 0] + block[3, :, 0]
            drop = min(drop, float(np.diff(seq).min()))
            scale = max(scale, float(np.max(np.abs(seq))))
        del block, seq  # the next law is evaluated in their room
        rows.append({"law": law.descriptor(), "worst_drop": drop / scale})
    worst = min([0.0] + [row["worst_drop"] for row in rows])
    return {"passed": bool(worst >= -MONOTONE_TOL), "worst_drop": worst,
            "rows": rows, "T": T, "steps": steps, "tol": MONOTONE_TOL,
            "seed": seed}
