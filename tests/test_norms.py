"""Lebesgue norms, derivative products, and the fractional seminorm.

Closed forms on monomials pin the quadrature; hypothesis properties pin
homogeneity and domain monotonicity, which the inequality evaluations
lean on.  The seminorm, its direct offset sweep and its FFT far field
alike, is checked against the direct blocked double sum over the padded
grid.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson as scipy_simpson

import gnlab.funcspace as fs
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
