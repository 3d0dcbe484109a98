"""Lebesgue norms, derivative products, and the fractional seminorm.

Closed forms on monomials pin the quadrature; hypothesis properties pin
homogeneity and domain monotonicity, which the inequality evaluations
lean on.  The seminorm, its direct offset sweep and its FFT far field
alike, is checked against the direct blocked double sum over the padded
grid.
"""

import json
import math
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson as scipy_simpson

import gnlab.cli as cli
import gnlab.control as ct
import gnlab.covering as cov
import gnlab.extremal as ex
import gnlab.funcspace as fs
import gnlab.gn as gn
import gnlab.norms as nm
from gnlab.errors import ParameterError

NONZERO = st.floats(min_value=0.01, max_value=100.0).flatmap(
    lambda c: st.sampled_from([c, -c]))


def _monomial(n=2049):
    x = np.linspace(0.0, 1.0, n)
    return fs.GridFunction(0.0, 1.0, np.stack([x, np.ones(n)]))


def test_closed_form_lebesgue_norms():
    g = _monomial()
    # ||x||_p on [0,1] equals (p+1)^{-1/p}
    assert nm.lebesgue_norm(g, nm.NormSpec(2.0, 0)) == pytest.approx(
        3.0 ** -0.5, rel=1e-12, abs=0.0)
    assert nm.lebesgue_norm(g, nm.NormSpec(5.0, 0)) == pytest.approx(
        6.0 ** -0.2, rel=1e-12, abs=0.0)
    assert nm.lebesgue_norm(g, nm.NormSpec("inf", 0)) == 1.0
    assert nm.lebesgue_norm(g, nm.NormSpec(2.0, 1)) == pytest.approx(1.0)


def test_domain_restriction_closed_form():
    g = _monomial()
    # integral of x^2 over [0, 1/2] is 1/24
    half = nm.lebesgue_norm(g, nm.NormSpec(2.0, 0, domain=(0.0, 0.5)))
    assert half == pytest.approx((1.0 / 24.0) ** 0.5, rel=1e-10, abs=0.0)
    with pytest.raises(ParameterError):
        nm.lebesgue_norm(g, nm.NormSpec(2.0, 0, domain=(0.5, 0.2)))
    with pytest.raises(ParameterError):
        nm.lebesgue_norm(g, nm.NormSpec(2.0, 0, domain=(-0.5, 0.2)))


def test_exponent_validation():
    g = _monomial()
    with pytest.raises(ParameterError):
        nm.lebesgue_norm(g, nm.NormSpec(0.5, 0))
    with pytest.raises(ParameterError):
        nm.lebesgue_norm(g, nm.NormSpec(2.0, 5))


@given(c=NONZERO, p=st.sampled_from([1.0, 2.0, 4.0, 6.0, float("inf")]))
@settings(max_examples=40, deadline=None)
def test_lebesgue_homogeneity(c, p, ):
    x = np.linspace(0.0, 1.0, 257)
    base = np.sin(np.pi * x) ** 2
    g = fs.GridFunction(0.0, 1.0, np.stack([base]))
    gc = fs.GridFunction(0.0, 1.0, np.stack([c * base]))
    spec = nm.NormSpec(p, 0)
    assert nm.lebesgue_norm(gc, spec) == pytest.approx(
        abs(c) * nm.lebesgue_norm(g, spec), rel=1e-12, abs=0.0)


@given(c=NONZERO)
@settings(max_examples=25, deadline=None)
def test_product_norm_homogeneity_degree_kappa(c):
    u = fs.sample(fs.BumpChi(), (0.0, 1.0), 513, 2)
    uc = fs.GridFunction(0.0, 1.0, c * u.stack)
    spec = nm.ProductSpec((0, 1, 2), 2.0)
    assert nm.product_norm(uc, spec) == pytest.approx(
        abs(c) ** 3 * nm.product_norm(u, spec), rel=1e-11, abs=0.0)


def test_product_matches_manual_pointwise_product(bump_4097):
    v = nm.derivative_product(bump_4097, (0, 1, 2))
    manual = bump_4097.stack[0] * bump_4097.stack[1] * bump_4097.stack[2]
    assert np.array_equal(v, manual)


@given(hi=st.floats(min_value=0.3, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_domain_monotonicity(hi):
    g = _monomial()
    sub = nm.lebesgue_norm(g, nm.NormSpec(2.0, 0, domain=(0.0, hi)))
    full = nm.lebesgue_norm(g, nm.NormSpec(2.0, 0))
    assert sub <= full * (1 + 1e-12)


def test_even_count_quadrature_rejected():
    x = np.linspace(0.0, 1.0, 256)
    g = fs.GridFunction(0.0, 1.0, np.stack([x]))
    with pytest.raises(ParameterError):
        nm.lebesgue_norm(g, nm.NormSpec(2.0, 0))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 1024, 1025, 4096, 4097])
@pytest.mark.parametrize("cols", [None, 7])
def test_simpson_matches_scipy_bit_for_bit(n, cols):
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n if cols is None else (n, cols))
    for dx in (1.0 / (n - 1), 0.37, 2.0 ** -14):
        got = nm.simpson(y, dx)
        want = scipy_simpson(y, dx=dx, axis=0)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.floor
@pytest.mark.parametrize("n", [3, 4, 5, 6, 17, 18, 33, 34, 1000, 1001])
@pytest.mark.parametrize("cols", [None, 1, 2, 5])
@pytest.mark.parametrize("intervals", [2, 4, 16])
def test_sweep_in_blocks_equals_simpson(n, cols, intervals):
    """Blocks of an even number of intervals, each starting at the last
    node of the one before, the last taking the rest (one more when a
    single interval would be left over), sum to `simpson`'s floats."""
    rng = np.random.default_rng([n, intervals])
    y = rng.standard_normal(n if cols is None else (n, cols))
    for dx in (1.0 / (n - 1), 0.37):
        sweep = nm._SimpsonSweep(n, dx)
        lo = 0
        while lo < n - 1:
            m = intervals if n - 1 - lo - intervals >= 2 else n - 1 - lo
            sweep.add(lo, y[lo:lo + m + 1].copy())
            lo += m
        got, want = sweep.result(), nm.simpson(y, dx)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("y", [np.zeros(0), np.ones(1), np.ones(2),
                               np.ones((2, 5)), np.float64(1.0)])
def test_simpson_needs_three_nodes(y):
    with pytest.raises(ParameterError):
        nm.simpson(y, 0.5)


def blocked_seminorm(g, s, p):
    """Reference: the direct double sum of `gagliardo_seminorm` over n
    grid-cell rows and all 3n padded columns, in row blocks."""
    u = g.stack[0]
    ncell = g.n - 1
    dx = g.dx
    mid_u = 0.5 * (u[1:] + u[:-1])
    total_cells = 3 * ncell
    xs = (np.arange(total_cells) + 0.5) * dx
    full_u = np.zeros(total_cells)
    full_u[ncell:2 * ncell] = mid_u
    expo = 1.0 + s * p
    acc_all = 0.0
    acc_mid = 0.0
    block = 1024
    mid_lo, mid_hi = ncell, 2 * ncell
    for start in range(mid_lo, mid_hi, block):
        stop = min(start + block, mid_hi)
        du = np.abs(full_u[start:stop, None] - full_u[None, :]) ** p
        dist = np.abs(xs[start:stop, None] - xs[None, :])
        np.fill_diagonal(dist[:, start:stop], np.inf)
        kern = du / dist ** expo
        acc_all += float(np.sum(kern))
        acc_mid += float(np.sum(kern[:, mid_lo:mid_hi]))
    total = (2.0 * acc_all - acc_mid) * dx * dx
    return max(total, 0.0) ** (1.0 / p)


# frozen by refinement study of the double-integral discretization:
# values at successive grids differ in the seventh digit, consistent
# with first-order midpoint convergence of the singular kernel
SEMINORM_1025 = 0.03143220683408171
SEMINORM_2049 = 0.03143236613823257


def test_seminorm_refinement_stability():
    u1 = fs.sample(fs.BumpChi(), (0.0, 1.0), 1025, 0)
    u2 = fs.sample(fs.BumpChi(), (0.0, 1.0), 2049, 0)
    a = nm.gagliardo_seminorm(u1, 0.5, 4.0)
    b = nm.gagliardo_seminorm(u2, 0.5, 4.0)
    assert a == pytest.approx(SEMINORM_1025, rel=1e-12, abs=0.0)
    assert b == pytest.approx(SEMINORM_2049, rel=1e-12, abs=0.0)
    assert abs(a - b) / b < 1e-5


def test_seminorm_dilation_exponent():
    """[u(lam .)] = lam^{s-1/p} [u] for the order-s seminorm in L^p."""
    s, p, lam = 0.5, 4.0, 2.0
    u = fs.sample(fs.BumpChi(), (0.0, 1.0), 2049, 0)
    ud = fs.sample(fs.Rescaled(fs.BumpChi(), 0.0, 0.5), (0.0, 0.5), 1025, 0)
    ratio = nm.gagliardo_seminorm(ud, s, p) / nm.gagliardo_seminorm(u, s, p)
    assert ratio == pytest.approx(lam ** (s - 1.0 / p), rel=1e-4, abs=0.0)


@given(c=NONZERO)
@settings(max_examples=15, deadline=None)
def test_seminorm_homogeneity(c):
    u = fs.sample(fs.BumpChi(), (0.0, 1.0), 257, 0)
    uc = fs.GridFunction(0.0, 1.0, c * u.stack)
    assert nm.gagliardo_seminorm(uc, 0.5, 4.0) == pytest.approx(
        abs(c) * nm.gagliardo_seminorm(u, 0.5, 4.0), rel=1e-11, abs=0.0)


def test_seminorm_parameter_validation():
    u = fs.sample(fs.BumpChi(), (0.0, 1.0), 129, 0)
    with pytest.raises(ParameterError):
        nm.gagliardo_seminorm(u, 0.0, 4.0)
    with pytest.raises(ParameterError):
        nm.gagliardo_seminorm(u, 1.0, 4.0)
    with pytest.raises(ParameterError):
        nm.gagliardo_seminorm(u, 0.5, math.inf)


@pytest.mark.parametrize("n", [2, 3, 4, 18, 257, 1025])
def test_seminorm_matches_blocked_double_sum(n):
    """Samples that do not vanish at the ends make the pad term large."""
    x = np.linspace(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    u = 1.0 + x + 0.3 * np.sin(7.0 * x) + 0.05 * rng.standard_normal(n)
    g = fs.GridFunction(0.0, 1.0, np.stack([u]))
    for s in (0.1, 0.5, 0.9):
        for p in (1.0, 2.5, 4.0, 6.0):
            assert nm.gagliardo_seminorm(g, s, p) == pytest.approx(
                blocked_seminorm(g, s, p), rel=1e-13, abs=0.0)


CORPUS_NAMES = [name for name, _ in fs.standard_corpus()]
FAR_FIELD_CASES = [(n, s, p) for n in (1025, 2049) for s in (0.1, 0.5, 0.9)
                   for p in (2.0, 4.0, 6.0)]


@pytest.mark.parametrize("n,s,p,name", [
    case + (CORPUS_NAMES[i % len(CORPUS_NAMES)],)
    for i, case in enumerate(FAR_FIELD_CASES)])
def test_far_field_matches_blocked_double_sum_on_the_corpus(n, s, p, name):
    """Compactly supported samples keep the pad term small, so an error in
    the FFT far field shows; each case takes the next corpus function."""
    g = fs.sample(fs.corpus_function(name), (0.0, 1.0), n, 0)
    # abs=0: approx's default absolute 1e-12 is 1e-11 relative here
    assert nm.gagliardo_seminorm(g, s, p) == pytest.approx(
        blocked_seminorm(g, s, p), rel=1e-13, abs=0.0)


def sweep_seminorm(g, s, p):
    """Reference: the seminorm's direct sweep over every offset, with no
    far field."""
    u = g.stack[0]
    ncell = g.n - 1
    mid_u = 0.5 * (u[1:] + u[:-1])
    w = np.zeros(2 * ncell + 1)
    w[1:-1] = (np.arange(1, 2 * ncell) * g.dx) ** -(1.0 + s * p)
    tail = np.cumsum(w[::-1])[::-1]
    near = tail[1:ncell + 1] - tail[ncell + 1:]
    pad = near + near[::-1]
    inner = sum(w[k] * float(np.sum(np.abs(mid_u[k:] - mid_u[:-k]) ** p))
                for k in range(1, ncell))
    total = 2.0 * (inner + float(np.sum(np.abs(mid_u) ** p * pad))) * g.dx ** 2
    return max(total, 0.0) ** (1.0 / p)


@pytest.mark.parametrize("n", [2, 3, 18, 257, 1025])
def test_seminorm_without_far_field_is_the_sweep(n, monkeypatch):
    """Odd and fractional p, and even p with the band set to every offset,
    run the sweep float for float."""
    x = np.linspace(0.0, 1.0, n)
    gs = [fs.sample(fs.BumpChi(), (0.0, 1.0), n, 0),
          fs.GridFunction(0.0, 1.0, np.stack([1.0 + x + np.sin(7 * x)]))]
    for g in gs:
        for s in (0.1, 0.5, 0.9):
            for p in (1.0, 2.5, 3.0):
                assert nm.gagliardo_seminorm(g, s, p) == sweep_seminorm(g, s, p)
    monkeypatch.setattr(nm, "SEMINORM_NEAR_BAND", 1.0)
    for g in gs:
        for s in (0.1, 0.5, 0.9):
            for p in (2.0, 4.0, 6.0):
                assert nm.gagliardo_seminorm(g, s, p) == sweep_seminorm(g, s, p)


def test_seminorm_memory_is_linear_in_n():
    n = 8193
    u = fs.sample(fs.BumpChi(), (0.0, 1.0), n, 0)
    tracemalloc.start()
    try:
        nm.gagliardo_seminorm(u, 0.5, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * n


@pytest.mark.parametrize("n", [3, 5, 65, 1025, 4097])
def test_simpson_weights_dot_matches_simpson(n):
    rng = np.random.default_rng(n)
    dx = 1.0 / (n - 1)
    w = nm.simpson_weights(n, dx)
    for scale in (1e-3, 1.0, 1e5):
        y = scale * rng.random(n)
        assert w @ y == pytest.approx(nm.simpson(y, dx), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 4, 1024])
def test_simpson_weights_need_an_odd_node_count(n):
    with pytest.raises(ParameterError):
        nm.simpson_weights(n, 0.1)


def _bump_cover(**kwargs):
    u = fs.sample(fs.BumpChi(), (0.0, 1.0), 257, 3)
    return cov.build_cover(u, cov.BalanceSpec(ks=(0, 1, 2), q=2, m=3, r="inf"),
                           **kwargs)


def _working_set(stride):
    u = fs.sample(fs.BumpChi(), (0.0, 1.0), 257, 3)
    ev = cov.BalanceEvaluator(u, cov.BalanceSpec(ks=(0, 1, 2), q=2, m=3,
                                                 r="inf"))
    return ev.working_set(stride=stride)


SYSTEM = ct.ControlSystem(3, 1.0)
#: (entry point, its count argument as a call, the minimum, a whole float)
COUNTS = {
    "SearchConfig-restarts": (lambda v: ex.SearchConfig(restarts=v), 1, 8.0),
    "SearchConfig-budget": (lambda v: ex.SearchConfig(budget=v), 1, 8.0),
    "SearchConfig-seed": (lambda v: ex.SearchConfig(seed=v), 0, 8.0),
    "SearchConfig-dimension": (lambda v: ex.SearchConfig(dimension=v), 6,
                               8.0),
    "random_ratio_batch-count": (lambda v: ex.random_ratio_batch(
        "ratio4", count=v, grid_n=513), 1, 8.0),
    "random_ratio_batch-dimension": (lambda v: ex.random_ratio_batch(
        "ratio4", count=4, dimension=v, grid_n=513), 6, 8.0),
    "random_ratio_batch-seed": (lambda v: ex.random_ratio_batch(
        "ratio4", count=4, seed=v, grid_n=513), 0, 8.0),
    "ControlSystem-p": (lambda v: ct.ControlSystem(v, 1.0), 1, 3.0),
    "integrate-steps": (lambda v: ct.integrate(SYSTEM, ct.Zero(), v), 2,
                        64.0),
    "terminal_formula_check-steps": (lambda v: ct.terminal_formula_check(
        SYSTEM, ct.Zero(), v), 2, 64.0),
    "scaling_experiment-steps": (lambda v: ct.scaling_experiment(
        7, 0.0, [1e-2], steps=v), 2, 64.0),
    "obstruction_check-trials": (lambda v: ct.obstruction_check(
        12, 1.0, 0.5, trials=v, steps=64), 1, 2.0),
    "obstruction_check-seed": (lambda v: ct.obstruction_check(
        12, 1.0, 0.5, trials=2, seed=v, steps=64), 0, 8.0),
    "obstruction_check-steps": (lambda v: ct.obstruction_check(
        12, 1.0, 0.5, trials=2, steps=v), 2, 64.0),
    "monotone_check_p1-steps": (lambda v: ct.monotone_check_p1(steps=v), 2,
                                64.0),
    "monotone_check_p1-seed": (lambda v: ct.monotone_check_p1(
        steps=64, seed=v), 0, 8.0),
    "default_p1_laws-steps": (lambda v: ct.default_p1_laws(1.0, v), 2, 64.0),
    "default_p1_laws-seed": (lambda v: ct.default_p1_laws(1.0, 64, v), 0,
                             8.0),
    "sample-n": (lambda v: fs.sample(fs.BumpChi(), (0.0, 1.0), v), 2, 9.0),
    "stack-order": (lambda v: fs.BumpChi().stack(v, 0.5), 0, 2.0),
    "chi_derivative-order": (fs.chi_derivative, 1, 2.0),
    "SineBump-frequency": (fs.SineBump, 1, 2.0),
    "uniform_quintic_knots-dimension": (fs.uniform_quintic_knots, 6, 8.0),
    "build_cover-e_resolution": (lambda v: _bump_cover(e_resolution=v), 2,
                                 9.0),
    "working_set-stride": (_working_set, 1, 8.0),
    "NormSpec-j": (lambda v: nm.NormSpec(2.0, v), 0, 1.0),
    "l6_params-k": (gn.l6_params, 1, 2.0),
    "BoundedExtras-k0": (lambda v: gn.BoundedExtras(k0=v), 0, 1.0),
}


@pytest.mark.floor
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_counts_are_whole_numbers_not_flags_and_at_least_a_minimum(entry):
    """Every count of the package goes through the one count rule: 2.5, a
    bool and a value below the minimum are refused with a ParameterError,
    and a whole float is the count it equals."""
    call, minimum, whole = COUNTS[entry]
    for bad in (2.5, True, np.bool_(True), minimum - 1):
        with pytest.raises(ParameterError):
            call(bad)
    call(whole)


BUMP_65 = fs.sample(fs.BumpChi(), (0.0, 1.0), 65, 2)
#: (entry point, its exponent argument as a call, what it gives at inf:
#: the exponent itself (math.inf), a value computed with it (None), or a
#: refusal (ParameterError))
EXPONENTS = {
    "GNParams-p": (lambda v: gn.GNParams(v, v, 2, (0,), 0, 1, 0).p,
                   math.inf),
    "GNParams-q": (lambda v: gn.GNParams(v, v, 2, (0,), 0, 1, 0).q,
                   math.inf),
    # at theta = theta* = 0 the relation leaves r free
    "GNParams-r": (lambda v: gn.GNParams(2, 2, v, (0,), 0, 1, 0).r,
                   math.inf),
    "solve_exponent-q": (lambda v: gn.solve_exponent(
        q=v, r="inf", ks=(0,), j=0, m=1, theta=0).p, math.inf),
    "solve_exponent-r": (lambda v: gn.solve_exponent(
        q=2, r=v, ks=(0,), j=0, m=1, theta=0).r, math.inf),
    "NormSpec-p": (lambda v: nm.NormSpec(v, 0).p, math.inf),
    "ProductSpec-q": (lambda v: nm.ProductSpec((0, 1), v).q, math.inf),
    "BalanceSpec-q": (lambda v: cov.BalanceSpec(ks=(0, 1, 2), q=v, m=3,
                                                r="inf").q, math.inf),
    "BalanceSpec-r": (lambda v: cov.BalanceSpec(ks=(0, 1, 2), q=2, m=3,
                                                r=v).r, math.inf),
    "BoundedExtras-s": (lambda v: gn.BoundedExtras(s=v).s, math.inf),
    "gagliardo_seminorm-p": (lambda v: nm.gagliardo_seminorm(BUMP_65, 0.5, v),
                             ParameterError),
    "open_problem_probe-q": (lambda v: gn.open_problem_probe(
        [("bumpchi", BUMP_65)], v, (0, 1, 2))[0]["lhs"], None),
}


@pytest.mark.floor
@pytest.mark.parametrize("entry", sorted(EXPONENTS))
def test_exponents_are_one_rule_exact_text_and_numpy_alike(entry):
    """Every exponent of the package goes through the one exponent rule:
    1.5, '3/2', Fraction(3, 2) and np.float64(1.5) give one value, 'inf'
    and math.inf give +inf, and a bool, a value below 1, NaN, -inf or
    malformed text is refused with a ParameterError."""
    call, at_inf = EXPONENTS[entry]
    values = [call(v) for v in (1.5, "3/2", Fraction(3, 2), np.float64(1.5))]
    assert all(v == values[0] and type(v) is type(values[0]) for v in values)
    if at_inf is ParameterError:
        for inf in ("inf", math.inf):
            with pytest.raises(ParameterError):
                call(inf)
    else:
        assert call("inf") == call(math.inf)
        if at_inf is not None:
            assert call("inf") == at_inf
    for bad in (True, np.bool_(True), 0.5, math.nan, -math.inf, "banana"):
        with pytest.raises(ParameterError):
            call(bad)


def _balance():
    return cov.BalanceEvaluator(fs.sample(fs.BumpChi(), (0.0, 1.0), 257, 3),
                                cov.BalanceSpec(ks=(0, 1, 2), q=2, m=3,
                                                r="inf"))


#: (entry point, its real argument as a call, whether it must be positive);
#: an array argument is v in every entry
REALS = {
    "ControlSystem-T": (lambda v: ct.ControlSystem(3, v), True),
    "GridSamples-horizon": (lambda v: ct.GridSamples(np.zeros(5), v), True),
    "GridSamples-values": (lambda v: ct.GridSamples(np.full(5, v), 1.0),
                           False),
    "ScaledBumpTriple-epsilon": (lambda v: ct.ScaledBumpTriple(v), True),
    "ScaledBumpTriple-a": (lambda v: ct.ScaledBumpTriple(1e-2, v), False),
    "scaling_experiment-eps": (lambda v: ct.scaling_experiment(
        7, 0.0, [v], steps=64), True),
    "obstruction_check-eta": (lambda v: ct.obstruction_check(
        12, 1.0, v, trials=2, steps=64), True),
    "SearchConfig-tol": (lambda v: ex.SearchConfig(tol=v), False),
    "ScaledBump-a": (lambda v: fs.ScaledBump(v, 2.0), False),
    "ScaledBump-b": (lambda v: fs.ScaledBump(0.0, v), False),
    "Rescaled-b": (lambda v: fs.Rescaled(fs.BumpChi(), 0.0, v), False),
    "GridFunction-b": (lambda v: fs.GridFunction(0.0, v, np.zeros((1, 5))),
                       False),
    "sample-interval": (lambda v: fs.sample(fs.BumpChi(), (0.0, v), 9),
                        False),
    "from_samples-interval": (lambda v: fs.GridFunction.from_samples(
        np.zeros(5), (0.0, v), 1), False),
    "perturb_nowhere_polynomial-eps": (lambda v: fs.perturb_nowhere_polynomial(
        fs.ScaledBump(0.2, 0.8), v), True),
    "alpha-x": (lambda v: _balance().alpha(v, 0.1), False),
    "alpha-h": (lambda v: _balance().alpha(0.5, v), True),
    "beta-x": (lambda v: _balance().beta(v, 0.1), False),
    "beta-h": (lambda v: _balance().beta(0.5, v), True),
    "critical_radii-xs": (lambda v: _balance().critical_radii(
        np.full(2, v)), False),
    "critical_radius-x": (lambda v: cov.critical_radius(
        fs.sample(fs.BumpChi(), (0.0, 1.0), 257, 3), v,
        cov.BalanceSpec(ks=(0, 1, 2), q=2, m=3, r="inf")), False),
    "besicovitch_select-centers": (lambda v: cov.besicovitch_select(
        np.full(2, v), [0.1, 0.1]), False),
    "besicovitch_select-radii": (lambda v: cov.besicovitch_select(
        [0.3, 0.6], np.full(2, v)), True),
    "working_set-threshold": (lambda v: _balance().working_set(threshold=v),
                              False),
    "SplineBump-coeffs": (lambda v: fs.SplineBump(np.full(8, v)), False),
    "Sum-coefficient": (lambda v: fs.Sum([(v, fs.BumpChi())]), False),
    "cli-eps-bound": (lambda v: cli._parse_eps_range(f"1e-2:{v}:3", 64), True),
}


@pytest.mark.floor
@pytest.mark.parametrize("entry", sorted(REALS))
def test_reals_are_finite_numbers_not_flags(entry):
    """Every real parameter of the package goes through the one finite-real
    rule: inf, NaN and a bool are refused with a ParameterError, and so
    are 0 and -1 where the value must be positive."""
    call, positive = REALS[entry]
    for bad in (math.inf, math.nan, True) + ((0, -1) if positive else ()):
        with pytest.raises(ParameterError):
            call(bad)


BUMP3_65 = fs.sample(fs.BumpChi(), (0.0, 1.0), 65, 3)
#: (entry point, its interval as a call, whether the interval is a pair
#: argument, whether the call checks it against the [0, 1] grid); the
#: calls return a report, a spec or a function, compared through JSON
INTERVALS = {
    "ScaledBump": (lambda v: fs.ScaledBump(*v).descriptor(), False, False),
    "Rescaled": (lambda v: fs.Rescaled(fs.BumpChi(), *v).descriptor(), False,
                 False),
    "GridFunction": (lambda v: asdict(fs.GridFunction(
        *v, stack=np.ones((1, 5)))), False, False),
    "sample": (lambda v: asdict(fs.sample(fs.BumpChi(), v, 9)), True, False),
    "from_samples": (lambda v: asdict(fs.GridFunction.from_samples(
        np.arange(5.0), v, 1)), True, False),
    "NormSpec": (lambda v: asdict(nm.NormSpec(2, 0, v)), True, False),
    "ProductSpec": (lambda v: asdict(nm.ProductSpec((0, 1), 2, v)), True,
                    False),
    "lebesgue_norm": (lambda v: nm.lebesgue_norm(
        BUMP3_65, nm.NormSpec(2, 0, v)), True, True),
    "product_norm": (lambda v: nm.product_norm(
        BUMP3_65, nm.ProductSpec((0, 1), 2, v)), True, True),
    "BoundedExtras": (lambda v: asdict(gn.BoundedExtras(omega=v)), True,
                      False),
    "evaluate_bounded": (lambda v: asdict(gn.evaluate_bounded(
        BUMP3_65, gn.l12_params(), gn.BoundedExtras(omega=v))), True, True),
    "evaluate_localized": (lambda v: asdict(gn.evaluate_localized(
        BUMP3_65, gn.l12_params(), v)), True, True),
}


@pytest.mark.floor
@pytest.mark.parametrize("entry", sorted(INTERVALS))
def test_intervals_are_one_rule_ordered_finite_pairs(entry):
    """Every interval of the package goes through the one interval rule:
    ends written as ints or numpy floats give what (0.0, 1.0) gives, and a
    NaN, infinite, bool, text or array end, a count of ends other than two
    or an empty interval is refused with a ParameterError; so is an interval
    past the grid where the call measures on one.  Ends given as two
    arguments take their count from the call, so a wrong count is
    Python's TypeError there."""
    call, pair, contained = INTERVALS[entry]

    def result(v):
        return json.dumps(call(v), default=cli._json_default, sort_keys=True)

    assert result((0, 1)) == result((0.0, 1.0))
    assert result((np.float64(0.0), np.float64(1.0))) == result((0.0, 1.0))
    bad = [(math.nan, 0.5), (0.0, True), (0.0, np.bool_(True)), ("a", "b"),
           (0.5, 0.5), (0.6, 0.4), (0.0, math.inf),
           (0.0, np.array([1.0, 2.0])), ((0.1,), 0.5), (np.array([0.1]), 0.5)]
    if contained:
        bad.append((0.5, 1.5))
    for ends in bad + [(0.2,), (0.1, 0.2, 0.3)] * pair:
        with pytest.raises(ParameterError):
            call(ends)
    if not pair:
        for ends in [(0.2,), (0.1, 0.2, 0.3)]:
            with pytest.raises(TypeError):
                call(ends)
