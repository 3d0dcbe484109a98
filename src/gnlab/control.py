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
A run whose chain (states and stage controls, times the batch) would take
more than the package's byte cap is refused before anything is allocated.
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
from .extremal import BASIS_BYTES_CAP
from .norms import simpson

DEFAULT_STEPS = 2 ** 14
TERMINAL_TOL = 1e-8
OBSTRUCTION_TOL = 1e-10
MONOTONE_TOL = 1e-10
NOISE_MODES = 16
# steps x batch state entries per block of the RK4 sweep, so each block
# temporary holds 2 MB whatever the batch
_BLOCK_ENTRIES = 2 ** 18
_COEFF_GRID_N = 2 ** 16 + 1


@dataclass(frozen=True)
class ControlSystem:
    """Exponent p and horizon T of the chain system."""

    p: int
    T: float = 1.0

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise ParameterError("p must be an integer >= 1")
        if not self.T > 0:
            raise ParameterError("horizon T must be positive")


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
        if not self.epsilon > 0:
            raise ParameterError("epsilon must be positive")
        if not (math.isfinite(self.a) and self.a >= 0):
            raise ParameterError(
                f"scaling exponent a must be finite and >= 0, got {self.a}")

    @property
    def support_end(self) -> float:
        return self.epsilon ** self.a

    def __call__(self, t):
        s = np.asarray(t, dtype=float) * self.epsilon ** (-self.a)
        return self.epsilon * fs.chi_stack(s, 3)[3]

    def descriptor(self) -> dict:
        return {"family": "scaled-bump-triple",
                "epsilon": self.epsilon, "a": self.a}


@dataclass(frozen=True)
class GridSamples:
    """Control given by samples at 2K+1 uniform stage points on [0, T].

    Linear interpolation between samples; when the integrator runs with
    steps = K every stage evaluation hits a stored sample exactly.
    """

    values: tuple
    horizon: float

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 5 or len(vals) % 2 == 0:
            raise ParameterError("need an odd sample count >= 5 (2K+1 stages)")
        if not self.horizon > 0:
            raise ParameterError("horizon must be positive")
        if not all(math.isfinite(v) for v in vals):
            raise ParameterError("samples must be finite")
        object.__setattr__(self, "values", vals)

    def __call__(self, t):
        grid = np.linspace(0.0, self.horizon, len(self.values))
        return np.interp(np.asarray(t, dtype=float), grid, self.values)

    def descriptor(self) -> dict:
        return {"family": "grid-samples", "count": len(self.values),
                "horizon": self.horizon,
                "sup": max(abs(v) for v in self.values)}


ControlLaw = Union[Zero, ScaledBumpTriple, GridSamples]


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step solution: node times, 4 x (steps+1) states, control."""

    times: np.ndarray
    states: np.ndarray
    control: np.ndarray
    law: dict

    def __post_init__(self):
        if self.states.shape[0] != 4 or self.states.shape[1] < 3:
            raise ParameterError("states must be 4 x (steps+1) with steps >= 2")
        if np.any(self.states[:, 0] != 0.0):
            raise InvariantError("trajectories start at the origin")

    @property
    def steps(self) -> int:
        return self.states.shape[1] - 1

    @property
    def terminal(self) -> np.ndarray:
        return self.states[:, -1]


def _stage_times(T: float, steps: int, batch: int = 1) -> np.ndarray:
    """Nodes and midpoints of the step grid; the one check of `steps`, of
    a finite horizon and of the chain's footprint, which every integration
    passes first.  The footprint is the states (4, steps+1) and the stage
    controls (2*steps+1) of each of `batch` runs, refused above the
    package's byte cap before anything is allocated."""
    if steps < 2:
        raise ParameterError(f"steps must be >= 2, got {steps}")
    if not math.isfinite(T):
        raise ParameterError(f"horizon T must be finite, got {T}")
    need = 8 * batch * (4 * (steps + 1) + 2 * steps + 1)
    if need > BASIS_BYTES_CAP:
        raise ParameterError(
            f"the chain for {steps} steps x {batch} runs needs {need} bytes, "
            f"above the {BASIS_BYTES_CAP}-byte cap")
    return np.linspace(0.0, T, 2 * steps + 1)


def _rk4_chain(w_stages: np.ndarray, T: float, steps: int, p: int) -> np.ndarray:
    """Batched classical RK4 for the chain; returns (4, steps+1, batch).

    `w_stages` holds the control at nodes and midpoints, shape
    (2*steps+1, batch); the stage grid makes every RK4 substep land on a
    stored control value, preserving the scheme's fourth order.

    The chain is triangular: x1's stage values depend only on w, x2's on
    x1 and w, x3's on x2, x1 and w, and x4 feeds back into nothing.  So
    the steps are swept in blocks of rows, state by state: each state's
    increments over a block are one elementwise expression in the node
    values of the states before it, written with the stepwise scheme's
    operands in the stepwise order, and a cumulative sum along time turns
    them into node values.  The block's starting state is added into the
    first increment, and the cumulative sum is sequential, so every state
    is the same float the step-by-step loop produces.
    """
    if w_stages.ndim != 2 or w_stages.shape[0] != 2 * steps + 1:
        raise ParameterError("w_stages must be (2*steps+1, batch)")
    batch = w_stages.shape[1]
    h = T / steps
    out = np.zeros((4, steps + 1, batch))
    rows = max(1, _BLOCK_ENTRIES // max(batch, 1))

    def power_term(y1, y2, y3):
        return (y1 * y2 * y3) ** 2 - y1 ** p

    def advance(state, lo, hi, a, b, c, d):
        inc = (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        inc[0] += out[state, lo]
        np.cumsum(inc, axis=0, out=out[state, lo + 1:hi + 1])

    # overflow is the divergence signal here: let it produce inf/nan
    # silently and trip the per-block finiteness check instead
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps, rows):
            hi = min(lo + rows, steps)
            wa = w_stages[2 * lo:2 * hi:2]
            wm = w_stages[2 * lo + 1:2 * hi + 1:2]
            wb = w_stages[2 * lo + 2:2 * hi + 2:2]
            advance(0, lo, hi, wa, wm, wm, wb)
            x1 = out[0, lo:hi]
            b2 = x1 + 0.5 * h * wa
            c2 = x1 + 0.5 * h * wm
            d2 = x1 + h * wm
            advance(1, lo, hi, x1, b2, c2, d2)
            x2 = out[1, lo:hi]
            b3 = x2 + 0.5 * h * x1
            c3 = x2 + 0.5 * h * b2
            d3 = x2 + h * c2
            advance(2, lo, hi, x2, b3, c3, d3)
            x3 = out[2, lo:hi]
            advance(3, lo, hi, power_term(x1, x2, x3),
                    power_term(b2, b3, x3 + 0.5 * h * x2),
                    power_term(c2, c3, x3 + 0.5 * h * b3),
                    power_term(d2, d3, x3 + h * c3))
            finite = (np.isfinite(out[0, lo + 1:hi + 1])
                      & np.isfinite(out[3, lo + 1:hi + 1])).all(axis=1)
            if not finite.all():
                raise DivergenceError(lo + 1 + int(np.argmin(finite)))
    return out


def _law_support_check(law: ControlLaw, T: float) -> None:
    if isinstance(law, ScaledBumpTriple) and law.support_end > T * (1 + 1e-12):
        raise PreconditionError(
            f"bump support [0, {law.support_end:g}] exceeds the horizon {T:g}")
    if isinstance(law, GridSamples) and abs(law.horizon - T) > 1e-12 * max(1.0, T):
        raise PreconditionError("grid-sample horizon differs from the system's")


def integrate(sys: ControlSystem, law: ControlLaw,
              steps: int = DEFAULT_STEPS) -> Trajectory:
    """Fixed-step fourth-order solution of the chain from the origin."""
    stage_t = _stage_times(sys.T, steps)
    _law_support_check(law, sys.T)
    stage_w = np.asarray(law(stage_t), dtype=float)
    states = _rk4_chain(stage_w[:, None], sys.T, steps, sys.p)[:, :, 0]
    return Trajectory(times=np.linspace(0.0, sys.T, steps + 1),
                      states=states, control=stage_w[::2],
                      law=law.descriptor())


def scaled_triple_reference(law: ScaledBumpTriple, times) -> np.ndarray:
    """Exact (x1, x2, x3) chain states for the bump family.

    Integrating w = eps chi'''(t eps^{-a}) through the chain gives
    x1 = eps^{1+a} chi''(s), x2 = eps^{1+2a} chi'(s), x3 = eps^{1+3a} chi(s).
    """
    s = np.asarray(times, dtype=float) * law.epsilon ** (-law.a)
    ch = fs.chi_stack(s, 2)
    e = law.epsilon
    return np.stack([e ** (1 + law.a) * ch[2],
                     e ** (1 + 2 * law.a) * ch[1],
                     e ** (1 + 3 * law.a) * ch[0]])


def terminal_formula_check(sys: ControlSystem, law: ControlLaw,
                           steps: int = DEFAULT_STEPS,
                           terminal_tol: float = TERMINAL_TOL) -> dict:
    """Relative gap between x4(T) and its quadrature form on the grid.

    Requires the chain to have returned: |x_i(T)| <= terminal_tol for
    i = 1, 2, 3 (the formula only holds on the constraint set).
    """
    traj = integrate(sys, law, steps)
    x1, x2, x3, x4 = traj.states
    triple = np.abs(traj.terminal[:3])
    if np.any(triple > terminal_tol):
        raise PreconditionError(
            f"terminal chain state {triple} exceeds {terminal_tol:g}; "
            "the quadrature identity needs x1(T)=x2(T)=x3(T)=0")
    h = sys.T / steps
    quad = simpson((x3 * x2 * x1) ** 2, h) - simpson(x1 ** sys.p, h)
    x4t = float(x4[-1])
    residual = abs(x4t - quad) / max(abs(x4t), 1e-30)
    return {"x4_terminal": x4t, "quadrature": float(quad),
            "residual": float(residual), "terminal_triple": triple.tolist(),
            "steps": steps, "p": sys.p, "T": sys.T}


@lru_cache(maxsize=None)
def bump_triple_integral() -> float:
    """int_0^1 (chi chi' chi'')^2, the coefficient of the quadratic term."""
    x = np.linspace(0.0, 1.0, _COEFF_GRID_N)
    ch = fs.chi_stack(x, 2)
    return float(simpson((ch[0] * ch[1] * ch[2]) ** 2,
                         1.0 / (_COEFF_GRID_N - 1)))


@lru_cache(maxsize=None)
def bump_power_integral(p: int) -> float:
    """int_0^1 (chi'')^p, the coefficient of the p-th power term."""
    x = np.linspace(0.0, 1.0, _COEFF_GRID_N)
    ch = fs.chi_stack(x, 2)
    return float(simpson(ch[2] ** p, 1.0 / (_COEFF_GRID_N - 1)))


def expected_terms(p: int, a: float) -> dict:
    """Exponents, coefficients, and the predicted slope and sign.

    x4(T) = eps^{6+13a} A - eps^{p(1+a)+a} B_p with A = int (chi chi' chi'')^2
    and B_p = int (chi'')^p; as eps -> 0 the smaller exponent wins and the
    observable sign is that of its coefficient.
    """
    e_quad = 6.0 + 13.0 * a
    e_pow = p * (1.0 + a) + a
    coeff_a = bump_triple_integral()
    coeff_b = bump_power_integral(p)
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
    dropped from the fit; a single surviving point yields no slope.
    """
    stage_t = _stage_times(T, steps, len(eps))
    eps = [float(e) for e in eps]
    if not eps or any(e <= 0 for e in eps):
        raise ParameterError("epsilon list must be nonempty and positive")
    if len(eps) >= 3:
        ratios = [eps[i + 1] / eps[i] for i in range(len(eps) - 1)]
        if any(abs(r / ratios[0] - 1.0) > 1e-9 for r in ratios):
            raise ParameterError("epsilon list must be geometric")
    laws = [ScaledBumpTriple(e, a) for e in eps]
    for law in laws:
        _law_support_check(law, T)
    w = np.stack([law(stage_t) for law in laws], axis=1)
    states = _rk4_chain(w, T, steps, p)
    x4 = states[3, -1, :]
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

    def to_dict(self) -> dict:
        return {"p": self.p, "T": self.T, "eta": self.eta,
                "trials": self.trials, "seed": self.seed, "steps": self.steps,
                "tol": self.tol, "margins": list(self.margins),
                "worst": self.worst, "worst_trial": self.worst_trial,
                "worst_x4": self.worst_x4, "passed": self.passed,
                "skipped": list(self.skipped)}


def obstruction_check(p: int, T: float, eta: float, trials: int = 100,
                      seed: int = 7, steps: int = DEFAULT_STEPS,
                      tol: float = OBSTRUCTION_TOL) -> ObstructionReport:
    """Random constrained controls and the normalized sign of x4(T).

    Controls are low-pass Fourier noise sum c_k sin(pi k t / T) with
    c_k ~ N(0,1)/k from per-trial streams seeded by (seed, trial), made
    terminal-constraint-satisfying by subtracting the quadratic-polynomial
    control whose chain response cancels x1(T), x2(T), x3(T), then scaled
    to sup-norm eta.  The margin is x4(T) divided by the sum of the two
    terminal integrals, so a violation is relative to the terms' size.
    """
    if not isinstance(p, int) or p < 12:
        raise ParameterError("obstruction regime needs integer p >= 12")
    if trials < 1:
        raise ParameterError("need at least one trial")
    if not (T > 0 and eta > 0):
        raise ParameterError("T and eta must be positive")
    budget = T ** (p - 12) * eta ** (p - 6)
    if budget > 1 + 1e-12:
        raise ParameterError(
            f"T^(p-12) eta^(p-6) = {budget:g} exceeds 1; outside the regime")

    stage_t = _stage_times(T, steps, trials)
    modes = np.arange(1, NOISE_MODES + 1)
    sin_mat = np.sin(np.pi * np.outer(stage_t, modes) / T)
    coeffs = np.empty((NOISE_MODES, trials))
    for idx in range(trials):
        rng = np.random.default_rng([seed, idx])
        coeffs[:, idx] = rng.standard_normal(NOISE_MODES) / modes
    w = sin_mat @ coeffs

    basis = np.stack([np.ones_like(stage_t), stage_t, stage_t ** 2], axis=1)
    weights = np.stack([np.ones_like(stage_t), T - stage_t,
                        0.5 * (T - stage_t) ** 2])
    targets = np.stack([simpson(weights[i][:, None] * w, T / (2 * steps))
                        for i in range(3)])
    correction = np.linalg.solve(_constraint_matrix(T), targets)
    w = w - basis @ correction

    sup = np.max(np.abs(w), axis=0)
    scale = np.where(sup > 0, eta / np.where(sup > 0, sup, 1.0), 0.0)
    w = w * scale

    states = _rk4_chain(w, T, steps, p)
    pos = simpson((states[0] * states[1] * states[2]) ** 2, T / steps)
    neg = simpson(np.abs(states[0]) ** p, T / steps)
    x4t = states[3, -1, :]

    margins = []
    skipped = []
    chain_scale = np.maximum(np.max(np.abs(states[:3]), axis=(0, 1)), 1.0)
    for idx in range(trials):
        triple = np.abs(states[:3, -1, idx])
        if np.any(triple > 1e-6 * chain_scale[idx]):
            skipped.append((idx, "terminal constraint violated after projection"))
            continue
        denom = pos[idx] + neg[idx]
        margins.append(float(x4t[idx] / denom) if denom > 0 else 0.0)
    if not margins:
        raise InvariantError("every trial was skipped; no margins to report")
    worst_pos = int(np.argmin(margins))
    skipped_idx = {i for i, _ in skipped}
    kept_idx = [i for i in range(trials) if i not in skipped_idx]
    worst_trial = kept_idx[worst_pos]
    worst = margins[worst_pos]
    return ObstructionReport(p=p, T=T, eta=eta, trials=trials, seed=seed,
                             steps=steps, tol=tol, margins=tuple(margins),
                             worst=worst, worst_trial=worst_trial,
                             worst_x4=float(x4t[worst_trial]),
                             passed=bool(worst >= -tol),
                             skipped=tuple(skipped))


def default_p1_laws(T: float, steps: int, seed: int = 0,
                    random_laws: int = 3) -> list:
    """Zero, a bump triple, and bounded random grid controls."""
    count = _stage_times(T, steps).size
    laws = [Zero(), ScaledBumpTriple(1e-2, 0.0)]
    for i in range(random_laws):
        rng = np.random.default_rng([seed, i])
        vals = rng.standard_normal(count)
        vals /= max(np.max(np.abs(vals)), 1e-30)
        laws.append(GridSamples(tuple(vals), T))
    return laws


def monotone_check_p1(T: float = 1.0, laws: Optional[Sequence] = None,
                      steps: int = 2 ** 12, seed: int = 0,
                      tol: float = MONOTONE_TOL) -> dict:
    """x2 + x4 must be non-decreasing along every p=1 trajectory.

    For p = 1 the sum satisfies (x2+x4)' = (x1 x2 x3)^2 >= 0; each RK4
    increment is a nonnegative combination of stage values, so the
    discrete sequence is non-decreasing up to roundoff.
    """
    sys = ControlSystem(1, T)
    if laws is None:
        laws = default_p1_laws(T, steps, seed)
    rows = []
    worst = 0.0
    for law in laws:
        traj = integrate(sys, law, steps)
        seq = traj.states[1] + traj.states[3]
        drops = np.diff(seq)
        scale = max(1.0, float(np.max(np.abs(seq))))
        worst_drop = float(min(0.0, drops.min()) / scale)
        rows.append({"law": law.descriptor(), "worst_drop": worst_drop})
        worst = min(worst, worst_drop)
    return {"passed": bool(worst >= -tol), "worst_drop": worst,
            "rows": rows, "T": T, "steps": steps, "tol": tol, "seed": seed}
