"""The frozen constants against their analytic bounds and oracles.

A frozen value pins one computation's float; its bounds say what any
correct computation must satisfy.  A re-freeze changes values, never a
bound or a tolerance, and both the value it replaces and the new one must
pass here: a ratio is at most its proof ceiling plus CEILING_SLACK, and a
maximizer may only go up.  The frozen seminorms, the critical radius at
x = 1/4 and the control coefficients each match an independent oracle
within rel 1e-12: the blocked double sum, the plain rung-by-rung scan and
an mpmath quadrature of the coefficients' closed forms.  The frozen
scaling slopes match the exact chain's slope, built from those
quadratures, within RK4's error.  The two frozen generalized ratios
differ by their grids' under-reads of the sup norm.  The obstruction
constants are not paired here yet.  The power family u = w^gamma,
w = x(1 - x), in Beta-function closed form, shows that the ratio4 and
ratio6 ceilings are their suprema.
"""

import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

import gnlab.covering as cov
import gnlab.extremal as ex
import gnlab.funcspace as fs
import gnlab.gn as gn
from test_control import (A_COEFF, B3_COEFF, B12_COEFF, SLOPE_P7_A0,
                          SLOPE_P7_A03)
from test_covering import RADIUS_AT_QUARTER, SPEC, _plain_scan
from test_extremal import (BATCH4_MAX, BATCH6_MAX, TINY_RATIO4,
                           TINY_RATIO4_PREVIOUS)
from test_gn import GENERALIZED_4097, GENERALIZED_65537
from test_norms import SEMINORM_1025, SEMINORM_2049, blocked_seminorm

CAP4 = gn.RATIO4_BOUND + ex.CEILING_SLACK
CAP6 = gn.RATIO6_BOUND + ex.CEILING_SLACK
# criterion 3: the default search must reach this much of the ceiling
SEARCH_FLOOR = 1.2


@pytest.mark.parametrize("value, cap", [
    pytest.param(TINY_RATIO4, CAP4, id="TINY_RATIO4"),
    pytest.param(TINY_RATIO4_PREVIOUS, CAP4, id="TINY_RATIO4_PREVIOUS"),
    pytest.param(BATCH4_MAX, CAP4, id="BATCH4_MAX"),
    pytest.param(BATCH6_MAX, CAP6, id="BATCH6_MAX")])
def test_frozen_ratios_are_at_most_their_ceilings(value, cap):
    assert 0.0 < value <= cap


def test_the_tiny_search_maximum_only_goes_up():
    assert TINY_RATIO4_PREVIOUS <= TINY_RATIO4


def test_the_default_search_is_between_its_floor_and_the_ceiling(
        criterion_3_search):
    """Criterion 3's SearchConfig() search reaches 1.2 and its own 10k
    random batch's maximum, and stays at or below the ceiling."""
    search, batch4 = criterion_3_search
    assert batch4["max"] <= search.ratio <= CAP4
    assert SEARCH_FLOOR <= search.ratio
    assert search.search_ratio <= CAP4


@pytest.mark.parametrize("n, frozen", [
    pytest.param(1025, SEMINORM_1025, id="SEMINORM_1025"),
    pytest.param(2049, SEMINORM_2049, id="SEMINORM_2049")])
def test_frozen_seminorms_match_the_blocked_double_sum(n, frozen):
    """bumpchi's (s, p) = (1/2, 4) seminorm as the direct double sum over
    the padded cells, in row blocks."""
    u = fs.sample(fs.BumpChi(), (0.0, 1.0), n, 0)
    assert blocked_seminorm(u, 0.5, 4.0) == pytest.approx(
        frozen, rel=1e-12, abs=0.0)


def test_frozen_radius_matches_the_plain_scan(bump_4097):
    ev = cov.BalanceEvaluator(bump_4097, SPEC)
    [radius], _ = _plain_scan(ev, np.array([0.25]))
    assert radius == pytest.approx(RADIUS_AT_QUARTER, rel=1e-12, abs=0.0)


def closed_form_integral(integrand) -> float:
    """int_0^1 integrand(chi, chi'/chi, chi''/chi) by mpmath's quadrature
    at 30 digits, split at t = 1/2, from chi = exp(-1/(t(1-t))) and its
    closed-form derivatives chi' = chi R1 and chi'' = chi R2, with
    R1 = (1 - 2t) / (t(1-t))^2 and R2 = R1' + R1^2.  mpmath is imported
    here: CI's numpy-floor step collects this module without installing
    it."""
    import mpmath as mp

    def parts(t):
        s = t * (1 - t)
        ds = 1 - 2 * t
        r1 = ds / s ** 2
        return mp.exp(-1 / s), r1, (-2 * s - 2 * ds ** 2) / s ** 3 + r1 ** 2

    with mp.workdps(30):
        return float(mp.quad(lambda t: integrand(*parts(t)),
                             [0, mp.mpf(1) / 2, 1]))


def a_integrand(chi, r1, r2):
    """(chi chi' chi'')^2, A's integrand."""
    return (chi ** 3 * r1 * r2) ** 2


@pytest.mark.parametrize("integrand, frozen", [
    pytest.param(a_integrand, A_COEFF, id="A_COEFF"),
    pytest.param(lambda chi, r1, r2: (chi * r2) ** 3, B3_COEFF,
                 id="B3_COEFF"),
    pytest.param(lambda chi, r1, r2: (chi * r2) ** 12, B12_COEFF,
                 id="B12_COEFF")])
def test_frozen_control_coefficients_match_their_closed_forms(integrand,
                                                              frozen):
    """A = int_0^1 (chi chi' chi'')^2 and B_p = int_0^1 (chi'')^p."""
    assert frozen == pytest.approx(closed_form_integral(integrand),
                                   rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a, eps, frozen, rel", [
    pytest.param(0.0, np.geomspace(1e-8, 1e-6, 5), SLOPE_P7_A0, 1e-12,
                 id="SLOPE_P7_A0"),
    pytest.param(0.3, np.geomspace(1e-4, 1e-2, 5), SLOPE_P7_A03, 1e-8,
                 id="SLOPE_P7_A03")])
def test_frozen_slopes_match_the_exact_chain(a, eps, frozen, rel):
    """The least-squares slope of log|x4| against log eps over
    test_control's eps lists, with the exact chain's
    x4 = eps^(6+13a) A - eps^(7(1+a)+a) B_7 and A, B_7 by quadrature.
    At a = 0.3 the frozen RK4 slope (2^14 steps) is 3.6e-9 from it: that
    gap is RK4's error, which falls 16-fold per doubling of the steps
    (9.1e-7, 5.7e-8, 3.6e-9, 2.2e-10 and 1.4e-11 from 2^12 to 2^16), so
    that pair is held at rel 1e-8."""
    coeff_a = closed_form_integral(a_integrand)
    coeff_b = closed_form_integral(lambda chi, r1, r2: (chi * r2) ** 7)
    x4 = eps ** (6 + 13 * a) * coeff_a - eps ** (7 * (1 + a) + a) * coeff_b
    slope = np.polyfit(np.log(eps), np.log(np.abs(x4)), 1)[0]
    assert frozen == pytest.approx(float(slope), rel=rel, abs=0.0)


def sup_under_read(u) -> float:
    """(refined - grid max) / refined for |D^3 u|, the refined maximum
    being four Newton steps on D^4 u = 0 from the grid argmax, on
    bumpchi's exact stack."""
    bump = fs.BumpChi()
    row = np.abs(u.stack[3])
    i = int(np.argmax(row))
    x = np.array([u.grid[i]])
    for _ in range(4):
        stack = bump.stack(5, x)
        x = x - stack[4] / stack[5]
    refined = abs(bump.stack(3, x)[3][0])
    return (refined - row[i]) / refined


def test_frozen_generalized_ratios_differ_by_the_sup_under_reads(
        bump_4097, bump_65537, l12):
    """l12's ratio divides by ||D^3 u||_inf^theta, which each grid reads
    as its largest sample: GENERALIZED_4097's relative excess over
    GENERALIZED_65537 (2.4e-7) is theta times the difference of the two
    grids' under-reads of that sup (4.8e-7 and 6.0e-10), within 8.7e-14.
    The pair pins today's grid-max definition; ROADMAP item 4's refined
    sup replaces it with the two ratios agreeing within 1e-10."""
    gap = GENERALIZED_4097 / GENERALIZED_65537 - 1
    predicted = float(l12.theta) * (sup_under_read(bump_4097)
                                    - sup_under_read(bump_65537))
    assert abs(gap - predicted) <= 1e-12


def _w_moment(a, coeffs) -> float:
    """int_0^1 w^a (c_0 + c_1 w + ...) dx for w = x(1 - x), from
    int_0^1 w^s dx = B(s + 1, s + 1) = Gamma(s + 1)^2 / Gamma(2s + 2)."""
    return sum(c * math.exp(2 * math.lgamma(a + k + 1)
                            - math.lgamma(2 * a + 2 * k + 2))
               for k, c in enumerate(coeffs))


def power_ratio(p, gamma) -> float:
    """ratio4 (p = 4) or ratio6 (p = 6) of u = w^gamma in closed form.
    With w' = 1 - 2x, w'^2 = 1 - 4w and w'' = -2, u' = gamma w^(gamma-1) w'
    and u'' = gamma w^(gamma-2) (c0 - c1 w), c0 = gamma - 1,
    c1 = 4 gamma - 2, so both integrals are polynomials in w times
    w^(p (gamma-1)):
    int u'^p = gamma^p int w^(p (gamma-1)) (1 - 4w)^(p/2), and
    int (u u'^(p/2-2) u'')^2
    = gamma^(p-2) int w^(p (gamma-1)) (1 - 4w)^(p/2-2) (c0 - c1 w)^2.
    ratio4 is finite for gamma > 3/4 and ratio6 for gamma > 5/6."""
    slope2 = P.polypow([1.0, -4.0], p // 2 - 2)
    num = _w_moment(p * (gamma - 1), P.polymul(slope2, [1.0, -8.0, 16.0]))
    den = _w_moment(p * (gamma - 1), P.polymul(slope2, P.polypow(
        [gamma - 1, -(4 * gamma - 2)], 2)))
    return (gamma ** 2 * num / den) ** (1 / p)


def test_power_family_matches_a_quadrature():
    """At gamma = 0.9 the closed forms agree with mpmath's quadrature of
    the chain-rule derivatives of w^gamma (measured 5e-16 for ratio4 and
    5e-15 for ratio6).  mpmath is imported here, as CI's numpy-floor step
    collects this module without it."""
    import mpmath as mp
    g = mp.mpf("0.9")

    def derivs(x):
        w, dw = x * (1 - x), 1 - 2 * x
        return (w ** g, g * w ** (g - 1) * dw,
                g * (g - 1) * w ** (g - 2) * dw ** 2 - 2 * g * w ** (g - 1))

    def integral(f):
        return mp.quad(lambda x: f(*derivs(x)), [0, mp.mpf(1) / 2, 1])

    with mp.workdps(30):
        r4 = (integral(lambda u, d1, d2: d1 ** 4)
              / integral(lambda u, d1, d2: (u * d2) ** 2)) ** (mp.mpf(1) / 4)
        r6 = (integral(lambda u, d1, d2: d1 ** 6)
              / integral(lambda u, d1, d2: (u * d1 * d2) ** 2)) \
            ** (mp.mpf(1) / 6)
    assert power_ratio(4, 0.9) == pytest.approx(float(r4), rel=1e-13,
                                                abs=0.0)
    assert power_ratio(6, 0.9) == pytest.approx(float(r6), rel=1e-13,
                                                abs=0.0)


def test_power_family_stays_below_the_ceilings():
    """Both ratios rise to their ceilings as gamma falls to 3/4 and 5/6
    and never pass them."""
    for gamma in 0.75 + np.geomspace(1e-5, 3.0, 60):
        assert power_ratio(4, gamma) <= gn.RATIO4_BOUND
    for gamma in 5 / 6 + np.geomspace(1e-5, 3.0, 60):
        assert power_ratio(6, gamma) <= gn.RATIO6_BOUND


def test_power_family_reaches_the_ceilings():
    """Just above the thresholds the family is within 1e-4 of each
    ceiling (about 9e-5 below sqrt 3 and 4e-5 below 5^(1/3)), so the
    ceilings are the suprema: they are limits of smooth compactly
    supported functions, by mollification."""
    assert gn.RATIO4_BOUND - power_ratio(4, 0.75 + 1e-5) <= 1e-4
    assert gn.RATIO6_BOUND - power_ratio(6, 5 / 6 + 1e-5) <= 1e-4
