"""Exact bump derivatives, grid sampling, and the function corpus.

The rational-prefactor recurrence admits exact evaluation at rational
points, which pins the derivative machinery without any quadrature in
the loop.  The finite-difference cross-checks then confirm that the
exact stacks and plain numerics agree to second order.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

import gnlab.control as ct
import gnlab.extremal as ex
import gnlab.funcspace as fs
from gnlab.errors import ParameterError, UnsupportedOrderError


# first prefactor == derivative of the exponent -1/(t(1-t))
_E_PRIME = fs.chi_derivative(1)


def test_chi_midpoint_value():
    assert fs.chi(0.5) == pytest.approx(math.exp(-4.0), rel=1e-15, abs=0.0)


def test_second_prefactor_at_midpoint_is_minus_32():
    # R1 and R3 vanish at the symmetry point, R2 does not
    assert fs.chi_derivative(1)(Fraction(1, 2)) == 0
    assert fs.chi_derivative(2)(Fraction(1, 2)) == -32
    assert fs.chi_derivative(3)(Fraction(1, 2)) == 0


def test_second_derivative_midpoint_value():
    st_ = fs.chi_stack(np.array([0.5]), 2)
    assert st_[2, 0] == pytest.approx(-32.0 * math.exp(-4.0),
                                      rel=1e-15, abs=0.0)


@given(num=st.integers(min_value=1, max_value=30),
       den=st.integers(min_value=31, max_value=64),
       order=st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_prefactor_recurrence_exact_at_rationals(num, den, order):
    """R_{i+1} = R_i' + R_i * R_1 as exact rational arithmetic."""
    t = Fraction(num, den)
    r_i = fs.chi_derivative(order)
    lhs = fs.chi_derivative(order + 1)(t)
    rhs = r_i.derivative()(t) + (r_i * _E_PRIME)(t)
    assert lhs == rhs


def test_prefactor_rejects_order_zero():
    with pytest.raises(ParameterError):
        fs.chi_derivative(0)


def test_chi_vanishes_outside_unit_interval_without_warnings():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = fs.chi(np.array([-1.0, 0.0, 1e-300, 1e-12, 1 - 1e-9, 1.0, 2.0]))
        stack = fs.chi_stack(np.array([1e-12, 1e-300, 2.0]), 6)
    assert np.all(vals[np.abs(vals) < 1e-100] == 0.0)
    assert vals.max() == 0.0  # all listed points are outside or in the tail
    assert np.isfinite(stack).all()
    assert np.all(stack[:, 1] == 0.0)
    assert np.all(stack[:, 2] == 0.0)


def test_chi_symmetry_on_grid():
    x = np.linspace(0.0, 1.0, 513)
    st_ = fs.chi_stack(x, 1)
    assert np.allclose(st_[0], st_[0][::-1], rtol=0, atol=1e-17)
    assert np.allclose(st_[1], -st_[1][::-1], rtol=0, atol=1e-13)


def _fd_order(f, i, ns=(513, 1025, 2049)):
    """Convergence order of central differences of D^{i-1} against D^i."""
    errs = []
    for n in ns:
        g = fs.sample(f, (0.0, 1.0), n, i)
        lo = g.stack[i - 1]
        fd = (lo[2:] - lo[:-2]) / (2.0 * g.dx)
        err = np.max(np.abs(fd - g.stack[i][1:-1]))
        errs.append(err)
    rates = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    return min(rates)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_bump_fd_convergence_order(order):
    assert _fd_order(fs.BumpChi(), order) >= 1.9


@pytest.mark.parametrize("order", [1, 2])
def test_spline_bump_fd_convergence_order(order):
    # the quintic spline factor is C^4, so orders above 2 are not probed
    f = fs.SplineBump((0.6, -1.0, 0.8, 0.4, -0.9, 1.0, -0.3, 0.7))
    assert _fd_order(f, order) >= 1.9


def test_scaled_bump_is_translated_dilated_chi():
    f = fs.ScaledBump(0.3, 0.7)
    x = np.linspace(0.0, 1.0, 801)
    assert f.support == (0.3, 0.7)
    expect = fs.chi((x - 0.3) / 0.4)
    assert np.allclose(f.derivative(0, x), expect, rtol=0, atol=1e-16)
    # chain rule brings one factor of 1/width per order
    inner = fs.chi_stack((x - 0.3) / 0.4, 2)
    assert np.allclose(f.derivative(2, x), inner[2] / 0.4 ** 2,
                       rtol=1e-13, atol=1e-13)


def test_sum_derivatives_are_linear():
    f = fs.Sum([(2.0, fs.BumpChi()), (-0.5, fs.SineBump(2))])
    x = np.linspace(0.0, 1.0, 257)
    for i in range(3):
        expect = (2.0 * fs.BumpChi().derivative(i, x)
                  - 0.5 * fs.SineBump(2).derivative(i, x))
        assert np.allclose(f.derivative(i, x), expect, rtol=1e-14, atol=1e-14)


def test_sample_rejects_orders_beyond_stack():
    with pytest.raises(UnsupportedOrderError):
        fs.sample(fs.BumpChi(), (0.0, 1.0), 65, fs.MAX_ORDER + 1)
    with pytest.raises(ParameterError):
        fs.sample(fs.BumpChi(), (0.0, 1.0), 1, 0)


def test_grid_function_properties(bump_4097):
    g = bump_4097
    assert g.n == 4097
    assert g.max_derivative == 3
    assert g.dx == pytest.approx(1.0 / 4096)
    assert g.provenance == "exact"
    assert g.stack.shape == (g.max_derivative + 1, g.n)


@pytest.mark.parametrize("values,m", [([1.0], 0), ([1.0], 1),
                                      ([1.0, 2.0], 1), ([1.0, 2.0], 3)])
def test_from_samples_needs_enough_samples(values, m):
    with pytest.raises(ParameterError):
        fs.GridFunction.from_samples(values, (0.0, 1.0), m)


def test_from_samples_two_values_without_differencing():
    g = fs.GridFunction.from_samples([1.0, 2.0], (0.0, 1.0), 0)
    assert g.n == 2


def test_from_samples_has_fd_provenance():
    x = np.linspace(0.0, 1.0, 129)
    g = fs.GridFunction.from_samples(np.sin(np.pi * x), (0.0, 1.0), 2)
    assert g.provenance == "finite-difference"
    mid = 64
    assert g.stack[1][mid] == pytest.approx(np.pi * math.cos(np.pi * 0.5),
                                            abs=1e-3)


def test_perturbation_support_and_convergence():
    base = fs.ScaledBump(0.3, 0.7)
    pert = fs.perturb_nowhere_polynomial(base, 1e-2)
    assert pert.support == (0.15, 0.85)
    x = np.linspace(0.0, 1.0, 513)
    gap = np.max(np.abs(pert.derivative(0, x) - base.derivative(0, x)))
    tiny = fs.perturb_nowhere_polynomial(base, 1e-6)
    gap_tiny = np.max(np.abs(tiny.derivative(0, x) - base.derivative(0, x)))
    assert gap_tiny < gap * 1e-3
    # the perturbation is alive strictly outside supp(base)
    probe = pert.derivative(0, np.array([0.2]))
    assert probe[0] > 0.0


def test_perturbation_rejects_full_width_support():
    with pytest.raises(ParameterError):
        fs.perturb_nowhere_polynomial(fs.BumpChi(), 1e-2)
    with pytest.raises(ParameterError):
        fs.perturb_nowhere_polynomial(fs.ScaledBump(0.3, 0.7), 0.0)


def test_standard_corpus_names_and_orders():
    names = [name for name, _ in fs.standard_corpus()]
    assert names == ["bumpchi", "sinebump1", "sinebump3", "sinebump7",
                     "splinebump", "perturbed_scaled", "perturbed_sine"]
    for _, f in fs.standard_corpus():
        assert np.all(np.isfinite(f.stack(3, np.linspace(0.0, 1.0, 9))))
    assert isinstance(fs.corpus_function("splinebump"), fs.SplineBump)
    with pytest.raises(ParameterError):
        fs.corpus_function("nosuch")


# ---------------------------------------------------------------------------
# oracle: the per-order derivative bodies that the one-pass stacks replaced
# ---------------------------------------------------------------------------

def _ref_inside(f, i, x):
    if isinstance(f, fs.BumpChi):
        return fs.chi_stack(x, i)[i]
    if isinstance(f, fs.ScaledBump):
        s = (x - f.a) / (f.b - f.a)
        return fs.chi_stack(s, i)[i] / (f.b - f.a) ** i
    if isinstance(f, fs.SineBump):
        ch = fs.chi_stack(x, i)
        w = math.pi * f.frequency
        out = np.zeros_like(x)
        for l in range(i + 1):
            out += (math.comb(i, l) * w ** l
                    * np.sin(w * x + l * math.pi / 2.0) * ch[i - l])
        return out
    if isinstance(f, fs.SplineBump):
        ch = fs.chi_stack(x, i)
        spline = BSpline(f.knots, f.coeffs, 5, extrapolate=False)
        out = np.zeros_like(x)
        for l in range(i + 1):
            value = (np.nan_to_num(spline(x), nan=0.0) if l <= 5
                     else np.zeros_like(x))
            out += math.comb(i, l) * value * ch[i - l]
            if l < 5:
                spline = spline.derivative()
        return out
    if isinstance(f, fs.Rescaled):
        a, b = f.support
        c, d = f.base.support
        scale = (d - c) / (b - a)
        return ref_derivative(f.base, i, c + scale * (x - a)) * scale ** i
    if isinstance(f, fs.Sum):
        out = np.zeros_like(x)
        for c, g in f.terms:
            out += c * ref_derivative(g, i, x)
        return out
    raise TypeError(type(f).__name__)


def ref_derivative(f, i, x):
    """D^i f at x, one order at a time, zero outside the support."""
    a, b = f.support
    out = np.zeros_like(x)
    mask = (x >= a) & (x <= b)
    if np.any(mask):
        out[mask] = _ref_inside(f, i, x[mask])
    return out


def ref_basis(dimension, n, max_order):
    """Per-order columns D^i(B_j * chi) from their own Leibniz loop."""
    knots = fs.uniform_quintic_knots(dimension)
    degree = 5
    x = np.linspace(0.0, 1.0, n)
    ch = fs.chi_stack(x, max_order)
    spline = BSpline(knots, np.eye(dimension), degree, extrapolate=False)
    b_mats = []
    top = min(max_order, degree)
    for l in range(top + 1):
        b_mats.append(np.nan_to_num(spline(x), nan=0.0))
        if l < top:
            spline = spline.derivative()
    out = []
    for i in range(max_order + 1):
        acc = np.zeros((n, dimension))
        for l in range(min(i, degree) + 1):
            acc += math.comb(i, l) * b_mats[l] * ch[i - l][:, None]
        out.append(acc)
    return out


def _oracle_functions():
    rng = np.random.default_rng(2024)
    seeded = [(f"seeded{d}", fs.SplineBump(rng.uniform(-1.0, 1.0, d)))
              for d in (6, 11, 16)]
    return (fs.standard_corpus() + seeded
            + [("rescaled_spline", fs.Rescaled(fs.SplineBump(
                   (0.6, -1.0, 0.8, 0.4, -0.9, 1.0, -0.3, 0.7)), 0.1, 0.7))])


_ORACLE = dict(_oracle_functions())


@pytest.mark.parametrize("n", [65, 1025, 65537])
@pytest.mark.parametrize("name", list(_ORACLE))
def test_sampled_stack_matches_per_order_oracle(name, n):
    f = _ORACLE[name]
    x = np.linspace(0.0, 1.0, n)
    ref = [ref_derivative(f, i, x) for i in range(5)]
    for m in range(5):
        got = fs.sample(f, (0.0, 1.0), n, m).stack
        assert np.array_equal(got, np.stack(ref[:m + 1]))


@pytest.mark.parametrize("name", list(_ORACLE))
def test_stack_rows_do_not_depend_on_the_top_order(name):
    f = _ORACLE[name]
    x = np.linspace(-0.25, 1.25, 1029)
    top = f.stack(fs.MAX_ORDER, x)
    for i in range(fs.MAX_ORDER + 1):
        assert np.array_equal(top[i], f.stack(i, x)[i])
        assert np.array_equal(f.derivative(i, x), top[i])
    # one cap for every family, Rescaled (rescaled_spline) and Sum
    # (the perturbed corpus functions) included
    with pytest.raises(UnsupportedOrderError):
        f.stack(fs.MAX_ORDER + 1, x)


@pytest.mark.parametrize("n", [65, 1025, 65537])
def test_basis_is_the_per_order_leibniz_loop(n):
    for dimension, order in ((8, 4), (16, 2)):
        basis = ex._basis_matrices.__wrapped__(dimension, n, order)
        assert basis.shape == (order + 1, n, dimension)
        assert np.array_equal(basis, np.stack(ref_basis(dimension, n, order)))


def test_stack_rejects_orders_outside_range():
    f = fs.SineBump(2)
    with pytest.raises(ParameterError):
        f.stack(-1, np.linspace(0.0, 1.0, 9))
    with pytest.raises(UnsupportedOrderError):
        f.stack(fs.MAX_ORDER + 1, np.linspace(0.0, 1.0, 9))


@pytest.mark.parametrize("build", [
    lambda: fs.BumpChi(support=(0.2, 0.4)),
    lambda: fs.SineBump(1, support=(0.0, 0.5)),
    lambda: fs.BumpChi(max_order=3),
    lambda: fs.ScaledBump(0.2, 0.4, max_order=3),
    lambda: fs.SineBump(1, max_order=3),
    lambda: fs.SplineBump(np.ones(8), fs.uniform_quintic_knots(8)),
    lambda: fs.SplineBump(np.ones(8), degree=3),
    lambda: ct.monotone_check_p1(laws=[ct.Zero()]),
], ids=["bump-support", "sine-support", "bump-max-order",
        "scaled-max-order", "sine-max-order", "spline-knots",
        "spline-degree", "p1-laws"])
def test_support_and_order_cap_are_not_options(build):
    # a support option kept chi's [0, 1] formula and cut it off at the
    # new ends; a family on another interval is ScaledBump or Rescaled.
    # A spline bump is always the clamped uniform quintic, and the p1
    # check always runs its default laws
    with pytest.raises(TypeError):
        build()


def test_stack_keeps_the_shape_of_x():
    f = fs.SineBump(3)
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    assert f.stack(2, x).shape == (3, 3, 4)
    assert f.stack(2, 0.5).shape == (3,)
    assert f.derivative(1, 0.5) == f.stack(1, np.array([0.5]))[1, 0]
    assert f.derivative(1, 2.0) == 0.0


_BLOCK_EDGE = dict(fs.standard_corpus() + [
    ("scaledbump", fs.ScaledBump(0.2, 0.9)),
    ("splinebump-2d", fs.SplineBump(
        np.random.default_rng(5).uniform(-1.0, 1.0, (10, 3)))),
    ("rescaled", fs.Rescaled(fs.SineBump(2), 0.1, 0.7)),
    ("sum", fs.Sum([(0.5, fs.SineBump(2)), (-1.5, fs.ScaledBump(0.3, 0.6))])),
])


@pytest.mark.floor
@pytest.mark.parametrize("name", list(_BLOCK_EDGE))
def test_blocked_stack_is_one_unblocked_evaluation(name, monkeypatch):
    """A stack built in blocks of STACK_BLOCK nodes holds the floats of one
    `_stack_inside` call on all its nodes: every row is elementwise in the
    node, also where the vectorized loops of exp, sin and pow meet their
    tails at a block edge.  Node counts straddle the edges; the wider
    grid puts nodes outside the support, where the rows are 0."""
    f, block = _BLOCK_EDGE[name], fs.STACK_BLOCK
    counts = (2, block - 1, block, block + 1, 3 * block + 5)
    grids = [np.linspace(lo, hi, n) for n in counts
             for lo, hi in ((0.0, 1.0), (-0.25, 1.25))]
    blocked = [f.stack(fs.MAX_ORDER, x) for x in grids]
    monkeypatch.setattr(fs, "STACK_BLOCK", 4 * block)  # the inner stacks
    for x, got in zip(grids, blocked):
        assert np.array_equal(got, f._stack_inside(fs.MAX_ORDER, x))


# ---------------------------------------------------------------------------
# the de Boor recurrence against scipy's BSpline, float for float
# ---------------------------------------------------------------------------

def bspline_rows(knots, coeffs, degree, x, top):
    """Derivatives 0..top by BSpline and .derivative(), NaN off the span
    set to 0."""
    spline = BSpline(knots, coeffs, degree, extrapolate=False)
    rows = []
    for l in range(top + 1):
        rows.append(np.nan_to_num(spline(x), nan=0.0))
        if l < top:
            spline = spline.derivative()
    return rows


def deboor_rows(knots, coeffs, degree, x, top):
    return fs._spline_rows(knots, degree,
                           fs._derivative_coeffs(knots, coeffs, degree),
                           x, top)


def _assert_rows_equal(knots, coeffs, degree, x, top):
    want = bspline_rows(knots, coeffs, degree, x, top)
    got = deboor_rows(knots, coeffs, degree, x, top)
    assert len(got) == top + 1
    for l in range(top + 1):
        assert got[l].shape == want[l].shape
        assert np.array_equal(got[l], want[l]), f"order {l}"


_COEFF_KINDS = ("vector", "matrix", "identity")


def _coeffs(kind, dimension, rng):
    if kind == "vector":
        return rng.uniform(-1.0, 1.0, dimension)
    if kind == "matrix":
        return rng.standard_normal((dimension, 3))
    return np.eye(dimension)


@pytest.mark.parametrize("kind", _COEFF_KINDS)
@pytest.mark.parametrize("dimension", [6, 8, 16, 17])
@pytest.mark.parametrize("n", [65, 4097])
def test_deboor_matches_bspline_on_clamped_quintic_knots(kind, dimension, n):
    rng = np.random.default_rng(dimension * n)
    knots = fs.uniform_quintic_knots(dimension)
    # past both ends, and through every knot of the span exactly
    x = np.concatenate([np.linspace(-0.1, 1.1, n), knots])
    _assert_rows_equal(knots, _coeffs(kind, dimension, rng), 5, x, 5)


@pytest.mark.parametrize("kind", _COEFF_KINDS)
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5])
def test_deboor_matches_bspline_on_unclamped_knots(kind, degree):
    # distinct random knots: the span [t_k, t_n] is strictly inside
    # [t_0, t_last], so points on either side of it read 0
    rng = np.random.default_rng(degree)
    knots = np.sort(rng.uniform(-0.3, 1.4, 15))
    count = knots.size - degree - 1
    span = knots[degree], knots[count]
    x = np.concatenate([np.linspace(knots[0] - 0.1, knots[-1] + 0.1, 3001),
                        knots, [span[0], span[1], np.nextafter(span[0], -1.0),
                                np.nextafter(span[1], 2.0)]])
    rng.shuffle(x)
    _assert_rows_equal(knots, _coeffs(kind, count, rng), degree, x, degree)


@pytest.mark.parametrize("kind", _COEFF_KINDS)
def test_deboor_matches_bspline_with_repeated_knots_outside_the_span(kind):
    # unclamped ends may repeat below t_k and above t_n: the span
    # [0.1, 0.8] of these cubic knots has every knot inside it once
    knots = np.array([0.0, 0.0, 0.1, 0.1, 0.3, 0.4, 0.5, 0.7, 0.8, 1.0, 1.0,
                      1.0])
    rng = np.random.default_rng(12)
    x = np.concatenate([np.linspace(-0.1, 1.1, 257), knots])
    _assert_rows_equal(knots, _coeffs(kind, 8, rng), 3, x, 3)


@pytest.mark.parametrize("dimension", [6, 11, 16])
def test_spline_bump_is_the_clamped_uniform_quintic(dimension):
    """`SplineBump(coeffs)` takes no knots or degree, and its descriptor
    still names the ones it uses (so `corpus list` keeps both fields):
    `uniform_quintic_knots` and degree 5.  Its order-0 row is that
    BSpline times chi, float for float."""
    coeffs = np.random.default_rng(dimension).uniform(-1.0, 1.0, dimension)
    f = fs.SplineBump(coeffs)
    knots = fs.uniform_quintic_knots(dimension)
    params = f.descriptor()["params"]
    assert params["degree"] == fs.SPLINE_DEGREE == 5
    assert params["knots"] == knots.tolist()
    assert params["coeffs"] == coeffs.tolist()
    x = np.concatenate([np.linspace(0.0, 1.0, 257), knots])
    [spline] = bspline_rows(knots, coeffs, 5, x, 0)
    assert np.array_equal(f.stack(0, x)[0], spline * fs.chi_stack(x, 0)[0])


def test_deboor_reads_the_span_ends_as_bspline_does():
    # x = t_k opens the first interval, x = t_n closes the last one
    knots = np.array([0.0, 0.1, 0.25, 0.3, 0.55, 0.6, 0.8, 0.9, 1.0, 1.2])
    coeffs = np.random.default_rng(3).standard_normal(6)
    x = np.array([knots[3], knots[6], knots[3], knots[6]])
    rows = deboor_rows(knots, coeffs, 3, x, 3)
    assert all(np.any(row != 0.0) for row in rows)
    _assert_rows_equal(knots, coeffs, 3, x, 3)
