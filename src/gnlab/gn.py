"""Exponent algebra and inequality evaluation.

The central relation ties the exponents of

    ||D^j u||_p  <=  C ||D^m u||_r^theta * ||D^{k_1}u...D^{k_kappa}u||_q^{(1-theta)/kappa}

together:

    1/p - j = theta (1/r - m) + (1-theta) (1/(q kappa) - kbar),

with kbar the mean of the product orders and theta running from the
critical value theta* = (j - kbar)/(m - kbar) up to 1.  At theta = theta*
the relation collapses to the dual form 1/p = theta/r + (1-theta)/(q kappa)
and the two residuals must agree identically.

All exponent arithmetic is exact (Fractions, with 1/inf = 0) so residuals
of valid tuples are exactly zero rather than float noise.  The relation is
written once, affine in each of 1/p, 1/q and theta, and `solve_exponent`
finds the missing unknown from its values at 0 and 1.  Exponents (exact,
from 3/2, '3/2', 1.5 or 'inf' alike), theta and derivative orders are
checked by the rules of `norms`.  `ibp_identities` returns both residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (InfeasibleError, InvariantError, ParameterError,
                     PreconditionError)
from .funcspace import GridFunction
from .norms import (INF, NormSpec, ProductSpec, _check_held, _count, _exact,
                    _exponent, _float_exponent, _interval, _order, _orders,
                    gagliardo_seminorm, lebesgue_norm, product_norm, simpson)

RESIDUAL_TOL = 1e-12


def _inv(x) -> Fraction:
    """1/x with the 1/inf = 0 convention."""
    if x == INF:
        return Fraction(0)
    return Fraction(1) / Fraction(x)


def theta_star(ks, j: int, m: int) -> Fraction:
    """Critical interpolation weight (j - kbar)/(m - kbar); the one check
    of the order chain k_kappa <= j < m."""
    ks = _orders("ks", ks)
    j, m = _order("j", j), _order("m", m)
    if not ks[-1] <= j < m:
        raise ParameterError(
            f"need k_kappa <= j < m, got ks={ks} j={j} m={m}")
    kbar = Fraction(sum(ks), len(ks))
    return (Fraction(j) - kbar) / (Fraction(m) - kbar)


@dataclass(frozen=True)
class GNParams:
    """The full exponent tuple of the generalized inequality.

    Construction validates everything: exponents >= 1, order chain
    k_1 <= ... <= k_kappa <= j < m, theta in [theta*, 1], and a vanishing
    relation residual.  The tuple is frozen, so the evaluators take it as
    valid and check it no more.
    """

    p: object
    q: object
    r: object
    ks: tuple
    j: int
    m: int
    theta: object

    def __post_init__(self):
        for name, value in (("p", _exponent("p", self.p)),
                            ("q", _exponent("q", self.q)),
                            ("r", _exponent("r", self.r)),
                            ("theta", _exact("theta", self.theta)),
                            ("ks", _orders("ks", self.ks)),
                            ("j", _order("j", self.j)),
                            ("m", _order("m", self.m))):
            object.__setattr__(self, name, value)
        ts = self.theta_star
        if not (ts <= self.theta <= 1):
            raise ParameterError(
                f"theta={self.theta} outside [theta*={ts}, 1]")
        res = relation_residual(self)
        if abs(res) > RESIDUAL_TOL:
            raise ParameterError(f"relation residual {res} exceeds tolerance")

    @property
    def kappa(self) -> int:
        return len(self.ks)

    @property
    def kbar(self) -> Fraction:
        return Fraction(sum(self.ks), self.kappa)

    @property
    def theta_star(self) -> Fraction:
        return theta_star(self.ks, self.j, self.m)

    def echo(self) -> dict:
        def enc(x):
            return "inf" if x == INF else str(x)
        return {"p": enc(self.p), "q": enc(self.q), "r": enc(self.r),
                "ks": list(self.ks), "j": self.j, "m": self.m,
                "theta": str(self.theta), "kappa": self.kappa,
                "kbar": str(self.kbar), "theta_star": str(self.theta_star)}


def _relation(inv_p, inv_q, inv_r, ks, j, m, theta) -> Fraction:
    """1/p - j - theta (1/r - m) - (1 - theta) (1/(q kappa) - kbar): the
    relation's one transcription, affine in each of 1/p, 1/q and theta."""
    kappa = len(ks)
    kbar = Fraction(sum(ks), kappa)
    return ((inv_p - j) - theta * (inv_r - m)
            - (1 - theta) * (inv_q / kappa - kbar))


def relation_residual(params: GNParams):
    """Signed residual of the exponent relation; exactly 0 for valid tuples.

    At theta = theta* the dual-form residual 1/p - theta/r - (1-theta)/(q kappa)
    is computed as well and must agree with the primary residual.
    """
    th = params.theta
    res = _relation(_inv(params.p), _inv(params.q), _inv(params.r),
                    params.ks, params.j, params.m, th)
    if th == params.theta_star:
        res_dual = (_inv(params.p) - th * _inv(params.r)
                    - (1 - th) * _inv(params.q) / params.kappa)
        if abs(res - res_dual) > RESIDUAL_TOL:
            raise InvariantError(
                f"critical-form residual {res_dual} disagrees with {res}")
    return res


def solve_exponent(p=None, q=None, r=None, ks=(), j=0, m=1, theta=None) -> GNParams:
    """Complete a tuple with exactly one of {p, q, theta} unknown (None).

    The relation is affine in the unknown x (1/p, 1/q or theta), so its
    values at x = 0 and x = 1 give the root exactly.  A vanishing slope, a
    1/p or 1/q outside [0, 1] or a theta outside [theta*, 1] is an
    InfeasibleError; otherwise the validated GNParams is returned.
    """
    tup = {"p": p, "q": q, "theta": theta}
    unknowns = [name for name, v in tup.items() if v is None]
    if len(unknowns) != 1:
        raise ParameterError(
            f"exactly one of p, q, theta must be unknown, got {unknowns}")
    [name] = unknowns
    ks, j, m = _orders("ks", ks), _order("j", j), _order("m", m)
    ts = theta_star(ks, j, m)
    lo = ts if name == "theta" else 0
    inv = {k: _exact(k, v) if k == "theta" else _inv(_exponent(k, v))
           for k, v in tup.items() if v is not None}
    inv_r = _inv(_exponent("r", r))

    def residual(x):
        inv[name] = Fraction(x)
        return _relation(inv["p"], inv["q"], inv_r, ks, j, m, inv["theta"])

    at0 = residual(0)
    slope = residual(1) - at0
    if slope == 0:
        raise InfeasibleError(
            f"{name} drops out of the relation; cannot solve for it")
    x = -at0 / slope
    if not lo <= x <= 1:
        what = name if name == "theta" else f"1/{name}"
        raise InfeasibleError(f"solved {what} = {x} outside [{lo}, 1]")
    tup[name] = x if name == "theta" else INF if x == 0 else 1 / x
    return GNParams(tup["p"], tup["q"], r, ks, j, m, tup["theta"])


def l12_params() -> GNParams:
    """kappa=3 worked tuple: ks=(0,1,2), j=2, m=3, q=2, r=inf, theta=1/2, p=12."""
    return GNParams(12, 2, INF, (0, 1, 2), 2, 3, Fraction(1, 2))


def l6_params(k: int) -> GNParams:
    """kappa=2 worked tuple: ks=(0,k), j=k, m=2k, q=2, r=inf, theta=1/3, p=6."""
    k = _count("k", k, 1)
    return GNParams(6, 2, INF, (0, k), k, 2 * k, Fraction(1, 3))


# ---------------------------------------------------------------------------
# inequality evaluation
# ---------------------------------------------------------------------------

@dataclass
class InequalityReport:
    lhs: float
    rhs_terms: dict
    rhs: float
    ratio: float
    params: dict
    grid: dict
    degenerate: bool = False
    violation_candidate: bool = False


def _finish_report(lhs, rhs_terms, rhs, params, u) -> InequalityReport:
    degenerate = rhs == 0.0 and lhs == 0.0
    violation = rhs == 0.0 and lhs > 0.0
    ratio = 0.0 if rhs == 0.0 else lhs / rhs
    grid = {"n": u.n, "a": u.a, "b": u.b, "provenance": "exact"}
    return InequalityReport(lhs=lhs, rhs_terms=rhs_terms, rhs=rhs,
                            ratio=ratio, params=params, grid=grid,
                            degenerate=degenerate,
                            violation_candidate=violation)


def _check_compact_support(u: GridFunction):
    scale = float(np.max(np.abs(u.stack[0]))) or 1.0
    if abs(u.stack[0][0]) > 1e-9 * scale or abs(u.stack[0][-1]) > 1e-9 * scale:
        raise PreconditionError(
            "function is not compactly supported inside the grid interval")


def _multiplicative(u: GridFunction, params: GNParams, omega=None):
    """||D^j u||_p, and top^theta * prod^((1-theta)/kappa) with its terms,
    the product measured on omega (None: the whole grid)."""
    th = float(params.theta)
    power = (1.0 - th) / params.kappa
    lhs = lebesgue_norm(u, NormSpec(float(params.p), params.j))
    top = lebesgue_norm(u, NormSpec(float(params.r), params.m))
    prod = product_norm(u, ProductSpec(params.ks, float(params.q), omega))
    terms = {"top": top, "product": prod,
             "top_power": th, "product_power": power}
    return lhs, top ** th * prod ** power, terms


def evaluate_generalized(u: GridFunction, params: GNParams) -> InequalityReport:
    """Ratio report for the whole-line inequality on a compact support."""
    _check_compact_support(u)
    lhs, rhs, terms = _multiplicative(u, params)
    return _finish_report(lhs, terms, rhs, params.echo(), u)


@dataclass(frozen=True)
class BoundedExtras:
    """Supplementary low-order term of the bounded-domain inequality."""

    k0: int = 0
    s: float = 1.0
    omega: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "k0", _count("k0", self.k0, 0))
        object.__setattr__(self, "s", _float_exponent("s", self.s))
        if self.omega is not None:
            object.__setattr__(self, "omega", _interval("omega", self.omega))


def evaluate_bounded(u: GridFunction, params: GNParams,
                     extras: BoundedExtras) -> InequalityReport:
    """Bounded-domain form: multiplicative term plus a low-order norm.

    The function need not vanish at the interval ends.  For kappa = 1 the
    report additionally carries the classical decomposition, whose low
    factor is ||u||_q rather than a derivative product.
    """
    if extras.k0 > params.ks[0]:
        raise ParameterError("k0 must not exceed k_1")
    lhs, rhs, terms = _multiplicative(u, params, extras.omega)
    low = lebesgue_norm(u, NormSpec(extras.s, extras.k0))
    rhs += low
    terms["low_order"] = low
    if params.kappa == 1:
        th = terms["top_power"]
        base = lebesgue_norm(u, NormSpec(float(params.q), 0))
        terms["classical_rhs"] = terms["top"] ** th * base ** (1.0 - th) + low
    return _finish_report(lhs, terms, rhs, params.echo(), u)


def evaluate_localized(u: GridFunction, params: GNParams,
                       omega: tuple) -> InequalityReport:
    """Additive localized form: the product term is measured on omega only."""
    lo, hi = _interval("omega", omega)
    lhs, _, terms = _multiplicative(u, params, (lo, hi))
    rhs = terms["top"] + terms["product"] ** (1.0 / params.kappa)
    terms = {"top": terms["top"], "product_on_omega": terms["product"],
             "product_power": 1.0 / params.kappa, "omega": [lo, hi]}
    return _finish_report(lhs, terms, rhs, params.echo(), u)


# ---------------------------------------------------------------------------
# integration-by-parts identities and the special ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IbpResiduals:
    l4: float
    l6: float


def ibp_identities(u: GridFunction) -> IbpResiduals:
    """Normalized residuals of the two derivative-product identities.

    L4: integral (u')^4 + 3 integral u (u')^2 u''  (vanishes for compact u)
    L6: integral (u')^6 + 5 integral u (u')^4 u''
    Each residual is normalized by its positive term; zero functions give 0.
    """
    _check_held(u, 2)
    u0, u1, u2 = u.stack[0], u.stack[1], u.stack[2]
    dx = u.dx

    def residual(power, factor):
        pos = float(simpson(u1 ** power, dx))
        if pos == 0.0:
            return 0.0
        cross = float(simpson(u0 * u1 ** (power - 2) * u2, dx))
        return (pos + factor * cross) / pos

    return IbpResiduals(residual(4, 3.0), residual(6, 5.0))


#: proof ceilings for the two derivative-product ratios
RATIO4_BOUND = math.sqrt(3.0)
RATIO6_BOUND = 5.0 ** (1.0 / 3.0)


@dataclass
class SpecialRow:
    name: str
    ratio4: float | None
    ratio6: float | None
    ratio_half: float | None
    skipped: tuple = ()


def ratio4(u: GridFunction) -> float:
    """||u'||_4 / ||u u''||_2^{1/2}; 0 when the denominator vanishes."""
    den = product_norm(u, ProductSpec((0, 2), 2.0))
    if den == 0.0:
        return 0.0
    return lebesgue_norm(u, NormSpec(4.0, 1)) / math.sqrt(den)


def ratio6(u: GridFunction) -> float:
    """||u'||_6 / ||u u' u''||_2^{1/3}; 0 when the denominator vanishes."""
    den = product_norm(u, ProductSpec((0, 1, 2), 2.0))
    if den == 0.0:
        return 0.0
    return lebesgue_norm(u, NormSpec(6.0, 1)) / den ** (1.0 / 3.0)


def ratio_half(u: GridFunction) -> float:
    """Fractional ratio ||u||_{W^{1/2,4}} / ||u u'||_2^{1/2}."""
    den = product_norm(u, ProductSpec((0, 1), 2.0))
    if den == 0.0:
        return 0.0
    return gagliardo_seminorm(u, 0.5, 4.0) / math.sqrt(den)


def special_constants(corpus, include_fractional: bool = True) -> list:
    """Table of the three special ratios over (name, GridFunction) pairs.

    Rows with vanishing denominators are kept but marked in `skipped`.
    """
    checks = [("ratio4", ratio4, NormSpec(4.0, 1)),
              ("ratio6", ratio6, NormSpec(6.0, 1)),
              ("ratio_half", ratio_half, NormSpec(4.0, 0))]
    rows = []
    for name, u in corpus:
        values, skipped = {"ratio_half": None}, []
        for tag, ratio, spec in checks[:3 if include_fractional else 2]:
            values[tag] = ratio(u)
            if values[tag] == 0.0 and lebesgue_norm(u, spec) > 0:
                skipped.append(tag)
                values[tag] = None
        rows.append(SpecialRow(name, skipped=tuple(skipped), **values))
        del u  # released before the corpus samples the next stack
    return rows


def open_problem_probe(corpus, q, ks) -> list:
    """Exploratory ratios ||D^{kbar}u||_{q kappa} / ||product||_q^{1/kappa}.

    Integer kbar uses the plain Lebesgue norm of the mean-order
    derivative.  The only supported non-integer pattern is ks=(0,1),
    where the fractional seminorm of order 1/2 in L^{q kappa} stands in.
    No pass/fail: exploration output only.
    """
    ks = _orders("ks", ks)
    kappa = len(ks)
    q = _float_exponent("q", q)
    kbar = Fraction(sum(ks), kappa)
    fractional = kbar.denominator != 1
    if fractional and ks != (0, 1):
        raise ParameterError(
            "non-integer mean order is supported only for the (0,1) pattern")
    rows = []
    for name, u in corpus:
        den = product_norm(u, ProductSpec(ks, q))
        if den == 0.0:
            row = {"name": name, "lhs": 0.0, "rhs": 0.0, "ratio": None,
                   "skipped": True}
        else:
            if fractional:
                lhs = gagliardo_seminorm(u, 0.5, q * kappa)
            else:
                lhs = lebesgue_norm(u, NormSpec(q * kappa, int(kbar)))
            rhs = den ** (1.0 / kappa)
            row = {"name": name, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
                   "skipped": False}
        rows.append(row)
        del u  # released before the corpus samples the next stack
    return rows
