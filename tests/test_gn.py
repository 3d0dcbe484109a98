"""Exponent algebra, inequality reports, and the derivative-product ratios."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gnlab.covering as cov
import gnlab.funcspace as fs
import gnlab.gn as gn
import gnlab.norms as nm
from gnlab.errors import InfeasibleError, ParameterError, PreconditionError

# frozen inequality ratios for the standard bump, computed once by the
# quadrature pipeline at two resolutions and cross-checked by Richardson
# extrapolation (values move only in the sixth digit between grids)
GENERALIZED_4097 = 0.7542580993240234
GENERALIZED_65537 = 0.7542579169623419
RATIO4_65537 = 0.8245385859249609
RATIO6_65537 = 1.0995155366240774


_EXPONENT = st.one_of(
    st.fractions(min_value=1, max_value=24, max_denominator=12),
    st.just(nm.INF))


@st.composite
def _valid_tuples(draw):
    """q, r, ks, j < m and theta in [theta*, 1]; p is left to solve for."""
    kappa = draw(st.integers(1, 3))
    ks = tuple(sorted(draw(st.lists(st.integers(0, 4), min_size=kappa,
                                    max_size=kappa))))
    j = draw(st.integers(ks[-1], ks[-1] + 3))
    m = draw(st.integers(j + 1, j + 4))
    ts = gn.theta_star(ks, j, m)
    theta = ts + (1 - ts) * draw(st.fractions(0, 1, max_denominator=12))
    return dict(q=draw(_EXPONENT), r=draw(_EXPONENT), ks=ks, j=j, m=m,
                theta=theta)


class TestExponentAlgebra:
    def test_worked_tuple_kappa3(self):
        params = gn.l12_params()
        assert params.theta_star == Fraction(1, 2)
        assert params.theta == Fraction(1, 2)
        assert params.p == 12
        assert gn.relation_residual(params) == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_worked_tuple_kappa2(self, k):
        params = gn.l6_params(k)
        assert params.theta_star == Fraction(1, 3)
        assert params.p == 6
        assert params.ks == (0, k)
        assert params.m == 2 * k
        assert gn.relation_residual(params) == 0

    def test_theta_star_formula(self):
        # (j - kbar) / (m - kbar) with kbar the mean of ks
        assert gn.theta_star((0, 1, 2), 2, 3) == Fraction(1, 2)
        assert gn.theta_star((0, 4), 4, 8) == Fraction(1, 3)
        assert gn.theta_star((1, 1), 1, 2) == 0

    def test_solve_for_p(self):
        solved = gn.solve_exponent(q=2, r="inf", ks=(0, 1, 2), j=2, m=3,
                                   theta=Fraction(1, 2))
        assert solved.p == 12
        assert gn.relation_residual(solved) == 0

    def test_solve_for_theta(self):
        solved = gn.solve_exponent(p=12, q=2, r="inf", ks=(0, 1, 2), j=2, m=3)
        assert solved.theta == Fraction(1, 2)

    def test_solve_for_q(self):
        solved = gn.solve_exponent(p=12, r="inf", ks=(0, 1, 2), j=2, m=3,
                                   theta=Fraction(1, 2))
        assert solved.q == 2

    @pytest.mark.parametrize("kwargs", [
        # q drops out of the relation at theta = 1
        dict(p=12, r="inf", ks=(0, 1, 2), j=2, m=3, theta=1),
        # solves to 1/q = 3
        dict(p=2, r="inf", ks=(0, 1, 2), j=2, m=3, theta=Fraction(1, 2)),
        # (1/r - m) - (1/(q kappa) - kbar) = (1 - 2) - (0 - 1) = 0
        dict(p=2, q="inf", r=1, ks=(1, 1), j=1, m=2),
    ], ids=["q-at-theta-one", "q-below-one", "theta-coefficient-zero"])
    def test_solve_without_a_legal_solution_is_infeasible(self, kwargs):
        with pytest.raises(InfeasibleError):
            gn.solve_exponent(**kwargs)

    @settings(max_examples=100, deadline=None)
    @given(tup=_valid_tuples())
    def test_solve_round_trips_each_unknown(self, tup):
        # complete the tuple for p, then drop p, q and theta in turn: each
        # solves back to the same exact value, unless it drops out of the
        # relation (q at theta = 1, theta when its coefficient vanishes)
        try:
            full = gn.solve_exponent(**tup)
        except InfeasibleError:
            assume(False)
        drops_out = {
            "p": False,
            "q": full.theta == 1,
            "theta": (gn._inv(full.r) - full.m
                      == gn._inv(full.q) / full.kappa - full.kbar)}
        for name, vanishes in drops_out.items():
            args = dict(p=full.p, q=full.q, r=full.r, ks=full.ks, j=full.j,
                        m=full.m, theta=full.theta)
            args[name] = None
            if vanishes:
                with pytest.raises(InfeasibleError):
                    gn.solve_exponent(**args)
            else:
                assert gn.solve_exponent(**args) == full

    def test_solve_rejects_wrong_unknown_count(self):
        with pytest.raises(ParameterError):
            gn.solve_exponent(ks=(0, 1, 2), j=2, m=3)  # two unknowns
        with pytest.raises(ParameterError):
            gn.solve_exponent(p=12, q=2, r="inf", ks=(0, 1, 2), j=2, m=3,
                              theta=Fraction(1, 2))  # fully determined

    def test_validation_rejects_bad_tuples(self):
        with pytest.raises(ParameterError):
            gn.GNParams(12, 2, "inf", (), 2, 3, Fraction(1, 2))
        with pytest.raises(ParameterError):
            gn.GNParams(12, 2, "inf", (2, 0), 2, 3, Fraction(1, 2))
        with pytest.raises(ParameterError):
            gn.GNParams(12, 2, "inf", (0, 1, 2), 3, 3, Fraction(1, 2))
        with pytest.raises(ParameterError):
            # theta below the critical weight
            gn.GNParams(12, 2, "inf", (0, 1, 2), 2, 3, Fraction(1, 4))
        with pytest.raises(ParameterError):
            # residual does not vanish for this p
            gn.GNParams(11, 2, "inf", (0, 1, 2), 2, 3, Fraction(1, 2))

    def test_echo_serializes_infinities(self):
        echo = gn.l12_params().echo()
        assert echo["r"] == "inf"
        assert echo["theta"] == "1/2"
        assert echo["kbar"] == "1"


class TestSharedRules:
    """Derivative orders and exponents follow the one rule of `norms`
    wherever they enter: an order that is not a whole number is refused,
    never truncated, and an exponent is >= 1 or +inf."""

    @pytest.mark.parametrize("build", [
        lambda: nm.lebesgue_norm(
            fs.GridFunction(0.0, 1.0, np.ones((3, 65))), nm.NormSpec(2.0, 1.5)),
        lambda: nm.ProductSpec((0.5, 1), 2.0),
        lambda: gn.GNParams(12, 2, "inf", (0.5, 1, 2), 2, 3, Fraction(1, 2)),
        lambda: gn.GNParams(12, 2, "inf", (0, 1, 2), 2.5, 3, Fraction(1, 2)),
        lambda: gn.theta_star((0, 1), 1, 2.5),
        lambda: gn.solve_exponent(q=2, r="inf", ks=(0, 1.5, 2), j=2, m=3,
                                  theta=Fraction(1, 2)),
        lambda: gn.open_problem_probe([], 2, (0.5, 1)),
        lambda: cov.BalanceSpec(ks=(0.5, 1), q=2, m=3, r="inf"),
    ], ids=["normspec-j", "productspec-ks", "gnparams-ks", "gnparams-j",
            "theta-star-m", "solve-ks", "probe-ks", "balancespec-ks"])
    def test_non_integral_order_is_parameter_error(self, build):
        with pytest.raises(ParameterError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: cov.BalanceSpec(ks=(0, 1, 2), q=-math.inf, m=3, r="inf"),
        lambda: cov.BalanceSpec(ks=(0, 1, 2), q=2, m=3, r=-math.inf),
        lambda: gn.BoundedExtras(s=-math.inf),
        lambda: gn.BoundedExtras(s="banana"),
        lambda: nm._exponent("p", -math.inf),
        lambda: gn.GNParams(12, 2, -math.inf, (0, 1, 2), 2, 3,
                            Fraction(1, 2)),
    ], ids=["balancespec-q", "balancespec-r", "bounded-s", "bounded-s-text",
            "as-exponent", "gnparams-r"])
    def test_exponent_below_one_is_parameter_error(self, build):
        with pytest.raises(ParameterError):
            build()

    def test_plus_inf_stays_an_exponent(self):
        assert nm._exponent("p", math.inf) == gn.INF
        assert gn.BoundedExtras(s=math.inf).s == math.inf
        assert cov.BalanceSpec(ks=(0, 1, 2), q=2, m=3, r=math.inf).r == math.inf


class TestGeneralized:
    def test_frozen_bump_ratio(self, bump_4097, bump_65537, l12):
        rep = gn.evaluate_generalized(bump_4097, l12)
        assert rep.ratio == pytest.approx(GENERALIZED_4097, rel=1e-12, abs=0.0)
        rep2 = gn.evaluate_generalized(bump_65537, l12)
        assert rep2.ratio == pytest.approx(GENERALIZED_65537,
                                           rel=1e-12, abs=0.0)
        assert not rep.degenerate
        assert not rep.violation_candidate
        assert rep.rhs_terms["top_power"] == 0.5

    def test_compact_support_precondition(self, l12):
        x = np.linspace(0.0, 1.0, 513)
        stack = np.stack([np.cos(np.pi * x) + 2.0] + [x] * 3)
        g = fs.GridFunction(0.0, 1.0, stack)
        with pytest.raises(PreconditionError):
            gn.evaluate_generalized(g, l12)

    @given(c=st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=20, deadline=None)
    def test_ratio_invariant_under_vertical_scaling(self, c, l12):
        u = fs.sample(fs.BumpChi(), (0.0, 1.0), 1025, 3)
        uc = fs.GridFunction(0.0, 1.0, c * u.stack)
        r1 = gn.evaluate_generalized(u, l12).ratio
        r2 = gn.evaluate_generalized(uc, l12).ratio
        assert r2 == pytest.approx(r1, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 2.0, 4.0])
    def test_ratio_invariant_under_dilation_at_critical_theta(self, lam, l12):
        base = gn.evaluate_generalized(
            fs.sample(fs.BumpChi(), (0.0, 1.0), 4097, 3), l12).ratio
        ud = fs.sample(fs.Rescaled(fs.BumpChi(), 0.0, 1.0 / lam),
                       (0.0, 1.0 / lam), 4097, 3)
        scaled = gn.evaluate_generalized(ud, l12).ratio
        assert scaled == pytest.approx(base, rel=1e-2, abs=0.0)

    def test_degenerate_zero_function(self, l12):
        g = fs.GridFunction(0.0, 1.0, np.zeros((4, 513)))
        rep = gn.evaluate_generalized(g, l12)
        assert rep.degenerate
        assert rep.ratio == 0.0


class TestBoundedAndLocalized:
    def test_bounded_accepts_nonvanishing_boundary(self):
        params = gn.l6_params(1)
        x = np.linspace(0.0, 1.0, 2049)
        stack = np.stack([np.cos(np.pi * x) + 1.5,
                          -np.pi * np.sin(np.pi * x),
                          -np.pi ** 2 * np.cos(np.pi * x)])
        g = fs.GridFunction(0.0, 1.0, stack)
        rep = gn.evaluate_bounded(g, params, gn.BoundedExtras(k0=0, s=2.0))
        assert rep.lhs <= rep.rhs  # additive low-order term dominates here
        assert "low_order" in rep.rhs_terms

    def test_bounded_k0_cannot_exceed_first_order(self, bump_4097):
        params = gn.l12_params()
        with pytest.raises(ParameterError):
            gn.evaluate_bounded(bump_4097, params, gn.BoundedExtras(k0=1))

    def test_classical_decomposition_for_kappa_one(self, bump_4097):
        params = gn.GNParams(4, 2, "inf", (0,), 1, 2, Fraction(1, 2))
        rep = gn.evaluate_bounded(bump_4097, params, gn.BoundedExtras())
        assert "classical_rhs" in rep.rhs_terms

    def test_localized_ratio_shrinks_as_window_grows(self, bump_4097, l12):
        windows = [(0.4, 0.6), (0.25, 0.75), (0.1, 0.9), (0.0, 1.0)]
        ratios = [gn.evaluate_localized(bump_4097, l12, w).ratio
                  for w in windows]
        assert all(r > 0 for r in ratios)
        assert all(a >= b * (1 - 1e-12) for a, b in zip(ratios, ratios[1:]))

    def test_localized_window_validation(self, bump_4097, l12):
        with pytest.raises(ParameterError):
            gn.evaluate_localized(bump_4097, l12, (0.5, 0.4))
        with pytest.raises(ParameterError):
            gn.evaluate_localized(bump_4097, l12, (-0.1, 0.5))


class TestIbpAndSpecialRatios:
    def test_identities_vanish_on_corpus(self, corpus_65537):
        worst = 0.0
        for _, u in corpus_65537:
            res = gn.ibp_identities(u)
            worst = max(worst, abs(res.l4), abs(res.l6))
        assert worst <= 1e-6

    def test_frozen_special_ratios(self, bump_65537):
        assert gn.ratio4(bump_65537) == pytest.approx(RATIO4_65537,
                                                      rel=1e-12, abs=0.0)
        assert gn.ratio6(bump_65537) == pytest.approx(RATIO6_65537,
                                                      rel=1e-12, abs=0.0)

    def test_ceilings_hold_on_corpus(self, corpus_65537):
        rows = gn.special_constants(corpus_65537, include_fractional=False)
        assert len(rows) == 7
        for row in rows:
            if row.ratio4 is not None:
                assert row.ratio4 <= gn.RATIO4_BOUND + 1e-3
            if row.ratio6 is not None:
                assert row.ratio6 <= gn.RATIO6_BOUND + 1e-3

    def test_fractional_ratio_positive(self, corpus_2049):
        rows = gn.special_constants(corpus_2049[:1], include_fractional=True)
        assert rows[0].ratio_half is not None
        assert rows[0].ratio_half > 0

    def test_zero_function_ratios_are_zero(self):
        g = fs.GridFunction(0.0, 1.0, np.zeros((3, 513)))
        assert gn.ratio4(g) == 0.0
        assert gn.ratio6(g) == 0.0


class TestOpenProblemProbe:
    def test_integer_mean_order_rows(self, corpus_2049):
        rows = gn.open_problem_probe(corpus_2049, q=2, ks=(0, 2))
        assert len(rows) == 7
        for row in rows:
            assert row["skipped"] or row["ratio"] > 0

    def test_fractional_pattern_01(self, corpus_2049):
        rows = gn.open_problem_probe(corpus_2049[:2], q=2, ks=(0, 1))
        for row in rows:
            assert not row["skipped"]
            assert math.isfinite(row["ratio"])

    def test_unsupported_fractional_pattern(self, corpus_2049):
        with pytest.raises(ParameterError):
            gn.open_problem_probe(corpus_2049, q=2, ks=(0, 1, 1))
        with pytest.raises(ParameterError):
            gn.open_problem_probe(corpus_2049, q=2, ks=())
