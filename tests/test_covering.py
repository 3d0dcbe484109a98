"""Balance functions, critical radii, and the interval covering pipeline."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gnlab.covering as cov
import gnlab.funcspace as fs
from gnlab.errors import (InvariantError, NoCrossingError, ParameterError)

SPEC = cov.BalanceSpec(ks=(0, 1, 2), q=2, m=3, r="inf")

# frozen crossing radius for the standard bump at x = 1/4 on the 4097
# grid; an independent sign bracket around it is asserted below
RADIUS_AT_QUARTER = 0.04200615906801902


def _radius(u, x):
    """The critical radius at the one point x."""
    return cov.BalanceEvaluator(u, SPEC).critical_radii(np.array([x]))[0]


class TestBalanceFunctions:
    def test_alpha_small_window_asymptotic(self, bump_4097):
        """alpha(h) -> (2h)^kbar |v(x)|^{1/kappa} as h -> 0."""
        u = bump_4097
        v = u.stack[0] * u.stack[1] * u.stack[2]
        ix = round(0.25 / u.dx)
        h = 1e-4
        predicted = (2 * h) * abs(v[ix]) ** (1 / 3)
        actual = cov.BalanceEvaluator(u, SPEC).alpha(0.25, h)
        assert actual == pytest.approx(predicted, rel=1e-4, abs=0.0)

    def test_beta_small_window_asymptotic(self, bump_4097):
        u = bump_4097
        ix = round(0.25 / u.dx)
        h = 1e-4
        pad = int(h / u.dx) + 2
        local_sup = np.max(np.abs(u.stack[3][ix - pad:ix + pad]))
        predicted = (2 * h) ** 3 * local_sup
        actual = cov.BalanceEvaluator(u, SPEC).beta(0.25, h)
        assert actual == pytest.approx(predicted, rel=1e-2, abs=0.0)

    def test_alpha_monotone_in_window(self, bump_4097):
        hs = np.geomspace(1e-4, 0.2, 24)
        ev = cov.BalanceEvaluator(bump_4097, SPEC)
        vals = [ev.alpha(0.25, h) for h in hs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_window_integrals_survive_support_tails(self, bump_4097):
        # near the support edge the local product mass is ~1e-21 of the
        # total; the windowed quadrature must still resolve it
        x = 0.912109375
        r = _radius(bump_4097, x)
        assert 0 < r < 0.5
        ev = cov.BalanceEvaluator(bump_4097, SPEC)
        a = ev.alpha(x, r)
        b = ev.beta(x, r)
        assert abs(a - b) <= 1e-10 * max(a, b)


class TestCriticalRadius:
    def test_frozen_value_with_sign_bracket(self, bump_4097):
        r = _radius(bump_4097, 0.25)
        assert r == pytest.approx(RADIUS_AT_QUARTER, rel=1e-12, abs=0.0)
        ev = cov.BalanceEvaluator(bump_4097, SPEC)
        below = ev.alpha(0.25, r * 0.9999) - ev.beta(0.25, r * 0.9999)
        above = ev.alpha(0.25, r * 1.0001) - ev.beta(0.25, r * 1.0001)
        assert below > 0 > above

    def test_dilation_halves_radius(self, bump_4097):
        half = fs.sample(fs.Rescaled(fs.BumpChi(), 0.0, 0.5), (0.0, 0.5),
                         4097, 3)
        r = _radius(bump_4097, 0.25)
        rd = _radius(half, 0.125)
        assert rd == pytest.approx(r / 2.0, rel=5e-8, abs=0.0)

    def test_working_set_leaves_out_the_symmetry_point(self, bump_4097):
        # the product u u' u'' vanishes at x = 1/2, so no radius is asked
        # for there, and E lies inside the grid
        ws = cov.BalanceEvaluator(bump_4097, SPEC).working_set()
        assert 2048 not in ws
        assert 0 < ws.min() and ws.max() < bump_4097.n - 1

    @pytest.mark.parametrize("c,rel", [(1e2, 1e-12), (1e4, 1e-12),
                                       (1e12, 1e-9)])
    def test_analytic_crossing_in_both_scan_directions(self, c, rel):
        # u = u' = u'' = 1 and u''' = c give alpha = 2h and beta = 8 c h^3,
        # so r = 1/(2 sqrt(c)); c = 1e12 puts r below the scan start 2 dx,
        # so it takes the downward scan, where window-end roundoff is eps x/h
        rows = np.ones((4, 1025))
        rows[3] = c
        g = fs.GridFunction(0.0, 1.0, rows)
        r = _radius(g, 0.5)
        assert (r < 2 * g.dx) == (c > 1e6)
        assert r == pytest.approx(0.5 / np.sqrt(c), rel=rel, abs=0.0)

    def test_no_crossing_above_the_scan_floor(self):
        # r = 5e-21 lies below the scan floor 1e-12 * 2 dx
        rows = np.ones((4, 1025))
        rows[3] = 1e40
        with pytest.raises(NoCrossingError):
            _radius(fs.GridFunction(0.0, 1.0, rows), 0.5)

    def test_no_crossing_for_vanishing_top_derivative(self):
        # quadratic: the third derivative is identically zero, so the
        # top-order side can never catch the product side
        x = np.linspace(0.0, 1.0, 2049)
        g = fs.GridFunction(0.0, 1.0, np.stack(
            [x * x, 2.0 * x, np.full_like(x, 2.0), np.zeros_like(x)]))
        with pytest.raises(NoCrossingError):
            _radius(g, 0.5)


def _plain_scan(ev, xs):
    """The rung-by-rung scan that ``critical_radii`` gallops over: every
    rung h0 q^k from h0 = 2 dx is evaluated until alpha - beta changes
    sign, then at most 60 bisection steps, until each bracket's midpoint
    rounds onto one of its ends.  Returns the radii and the rung
    brackets."""
    h0 = 2.0 * ev.u.dx
    hmin = 1e-12 * h0
    hmax = cov.HMAX_FACTOR * (ev.u.b - ev.u.a)

    def gap(idx, h):
        return ev.alpha(xs[idx], h) - ev.beta(xs[idx], h)

    lo, hi = np.full((2, xs.size), h0)
    todo = np.arange(xs.size)
    up = gap(todo, lo) > 0.0
    while todo.size:
        go_up = up[todo]
        cur = np.where(go_up, hi[todo], lo[todo])
        nxt = np.where(go_up, cur * cov.SCAN_FACTOR, cur / cov.SCAN_FACTOR)
        if np.any((nxt > hmax) | (nxt < hmin)):
            raise NoCrossingError("plain scan left [hmin, hmax]")
        lo[todo] = np.where(go_up, cur, nxt)
        hi[todo] = np.where(go_up, nxt, cur)
        d = gap(todo, nxt)
        todo = todo[~np.where(go_up, d <= 0.0, d > 0.0)]
    rungs = lo.copy(), hi.copy()
    todo = np.arange(xs.size)
    for _ in range(60):
        mid = 0.5 * (lo[todo] + hi[todo])
        moves = (mid != lo[todo]) & (mid != hi[todo])
        todo, mid = todo[moves], mid[moves]
        if not todo.size:
            break
        take_hi = gap(todo, mid) <= 0.0
        hi[todo[take_hi]] = mid[take_hi]
        lo[todo[~take_hi]] = mid[~take_hi]
    assert not todo.size
    return 0.5 * (lo + hi), rungs


def _counted(norm, tally):
    """``norm`` counting in tally[0] the (x, h) points it evaluates."""
    def window(lo, hi, envelope=False):
        tally[0] += np.size(lo)
        return norm(lo, hi, envelope)
    return window


def _both_scans(ev, xs=None):
    """Radii from ``critical_radii`` and from the plain scan, with the
    window aggregates each evaluated (the whole working set by default),
    and the plain scan's rung brackets."""
    if xs is None:
        xs = ev.u.grid[ev.working_set()]
    tally = [0]
    for side in (ev._alpha, ev._beta):
        side.norm = _counted(side.norm, tally)
    got = ev.critical_radii(xs)
    work, tally[0] = tally[0], 0
    want, rungs = _plain_scan(ev, xs)
    return (got, work), (want, tally[0]), rungs


def _assert_certified(ev, xs, got, want, rungs):
    """Radii that may differ from the plain scan's in the last bits: each
    lies inside the plain scan's rung bracket, at a sign change of
    g = alpha - beta between adjacent floats (g(r) > 0 >= g(next r), or
    g(prev r) > 0 >= g(r)), and within rel 1e-12 of the plain scan's."""
    assert np.all((rungs[0] <= got) & (got <= rungs[1]))

    def g(h):
        return ev.alpha(xs, h) - ev.beta(xs, h)
    at = g(got)
    after = g(np.nextafter(got, np.inf))
    before = g(np.nextafter(got, 0.0))
    assert np.all(np.where(at > 0.0, after <= 0.0, before > 0.0))
    assert np.max(np.abs(got - want) / want) <= 1e-12


@pytest.fixture(scope="module")
def corpus_8193():
    return {name: fs.sample(f, (0.0, 1.0), 8193, 3)
            for name, f in fs.standard_corpus()}


class TestGallopingScan:
    """``critical_radii`` skips only rungs whose sign it has proved, so it
    brackets each crossing as the plain scan does, from fewer evaluations.
    Illinois steps inside the bracket then reach a sign change between
    adjacent floats, in real-line mode not always the one bisection
    reaches."""

    @pytest.mark.parametrize("mode", ["real-line", "bounded"])
    @pytest.mark.parametrize("name", [n for n, _ in fs.standard_corpus()])
    def test_corpus_radii_equal_the_plain_scan(self, corpus_8193, name,
                                               mode):
        ev = cov.BalanceEvaluator(corpus_8193[name],
                                  dataclasses.replace(SPEC, mode=mode))
        xs = ev.u.grid[ev.working_set()]
        (got, work), (want, plain_work), rungs = _both_scans(ev, xs)
        _assert_certified(ev, xs, got, want, rungs)
        if mode == "bounded":
            assert np.array_equal(got, want)
        # measured 0.21-0.25
        assert work <= 0.3 * plain_work

    # ks = (0,), q = 2 gives alpha = l^{-1/2} ||u||_{L^2(J)}, whose length
    # exponent is negative, so its low bound takes l from a run's wide
    # end; the second spec also takes beta from an integral, with the
    # windows clipped to [0, 1]
    @pytest.mark.parametrize("spec", [
        cov.BalanceSpec(ks=(0,), q=2, m=2, r="inf"),
        cov.BalanceSpec(ks=(0,), q=2, m=3, r=2, mode="bounded"),
    ])
    def test_other_exponents_equal_the_plain_scan(self, corpus_8193, spec):
        ev = cov.BalanceEvaluator(corpus_8193["sinebump3"], spec)
        assert ev._alpha.a == -0.5
        xs = ev.u.grid[ev.working_set()]
        (got, work), (want, plain_work), rungs = _both_scans(ev, xs)
        _assert_certified(ev, xs, got, want, rungs)
        if spec.mode == "bounded":
            assert np.array_equal(got, want)
        assert work <= plain_work

    @pytest.mark.parametrize("mode", ["real-line", "bounded"])
    def test_illinois_steps_per_point(self, corpus_8193, mode):
        # bisection takes about 48 evaluations per point; the Illinois
        # steps were measured at 10.5-12.9 on average and 42 at most, so
        # no bracket is left to the midpoint-only passes.  Every
        # refinement pass evaluates alpha - beta through ``_gap``, and
        # every point takes at least one pass
        spec = dataclasses.replace(SPEC, mode=mode)
        for name, u in corpus_8193.items():
            ev = cov.BalanceEvaluator(u, spec)
            xs = u.grid[ev.working_set()]
            sizes = []
            gap = ev._gap

            def counted(x, h):
                sizes.append(x.size)
                return gap(x, h)
            ev._gap = counted
            ev.critical_radii(xs)
            assert xs.size <= sum(sizes) <= 13.5 * xs.size, name
            assert len(sizes) <= cov.ILLINOIS_STEPS, name

    def test_without_illinois_steps_radii_equal_the_plain_scan(
            self, corpus_8193, monkeypatch):
        # midpoints from the first pass are the plain scan's bisection
        monkeypatch.setattr(cov, "ILLINOIS_STEPS", 0)
        ev = cov.BalanceEvaluator(corpus_8193["sinebump7"], SPEC)
        (got, _), (want, _), _ = _both_scans(ev)
        assert np.array_equal(got, want)

    def test_midpoints_after_a_few_illinois_steps_stay_certified(
            self, corpus_8193, monkeypatch):
        # about 11 refinement passes per point are measured, so after 3
        # Illinois passes nearly every bracket finishes on midpoints
        monkeypatch.setattr(cov, "ILLINOIS_STEPS", 3)
        ev = cov.BalanceEvaluator(corpus_8193["sinebump7"], SPEC)
        xs = ev.u.grid[ev.working_set()]
        (got, _), (want, _), rungs = _both_scans(ev, xs)
        _assert_certified(ev, xs, got, want, rungs)
        assert not np.array_equal(got, want)

    def test_a_bracket_open_after_every_pass_is_an_invariant_error(
            self, corpus_8193, monkeypatch):
        monkeypatch.setattr(cov, "ILLINOIS_STEPS", 0)
        monkeypatch.setattr(cov, "BISECT_STEPS", 20)
        ev = cov.BalanceEvaluator(corpus_8193["bumpchi"], SPEC)
        with pytest.raises(InvariantError, match="still open"):
            ev.critical_radii(np.array([0.25]))

    def test_second_crossing_just_past_the_first_is_not_skipped(self):
        # a spike of D^3 u at k1 nodes from x lifts beta over alpha, and a
        # spike of the product at k2 > k1 nodes lifts alpha back over it,
        # so alpha - beta changes sign at about k1 dx and again a rung or
        # few later; a jump that skipped the rungs between would land on
        # the second positive run and miss the first crossing
        for k1 in range(6, 36, 3):
            for k2 in (k1 + 1, k1 + 2, k1 + 3):
                rows = np.ones((4, 1025))
                rows[2, 512 + k2] = 1e6
                rows[3, 512 - k1] = 1e4
                ev = cov.BalanceEvaluator(fs.GridFunction(0.0, 1.0, rows),
                                          SPEC)
                (got, _), (want, _), _ = _both_scans(ev, np.array([0.5]))
                assert np.array_equal(got, want), (k1, k2)

    @pytest.mark.parametrize("c", [1e2, 1e12])
    def test_analytic_crossings_equal_the_plain_scan(self, c):
        # the scan goes up for c = 1e2 and down for c = 1e12
        rows = np.ones((4, 1025))
        rows[3] = c
        ev = cov.BalanceEvaluator(fs.GridFunction(0.0, 1.0, rows), SPEC)
        (got, work), (want, plain_work), _ = _both_scans(ev,
                                                         np.array([0.5]))
        assert np.array_equal(got, want)
        assert work <= plain_work


class TestWindowEnvelope:
    """Every computed window aggregate lies within delta * envelope of the
    exact max or integral of the interpolant, slivers of cells included."""

    @staticmethod
    def _exact(f, p, lo, hi):
        n = f.size
        lo, hi = Fraction(lo), Fraction(hi)

        def at(pos):
            i = min(math.floor(pos), n - 2)
            return (Fraction(f[i]) * (1 - (pos - i))
                    + Fraction(f[i + 1]) * (pos - i))
        if math.isinf(p):
            inner = f[math.ceil(lo):math.floor(hi) + 1]
            return max([at(lo), at(hi)] + [Fraction(v) for v in inner])
        total = Fraction(0)
        last = min(math.floor(hi), n - 2)
        for j in range(min(math.floor(lo), n - 2), last + 1):
            a, b = max(lo, j), min(hi, j + 1)
            total += (at(a) + at(b)) / 2 * (b - a)
        return total / (n - 1)

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_error_within_delta_envelope(self, p):
        rng = np.random.default_rng(8)
        for n in (2, 3, 17, 33):
            f = rng.random(n) ** 3
            f[rng.random(n) < 0.3] = 0.0
            f[rng.random(n) < 0.2] *= 1e-12
            norm = cov._window_norm(f, p, 1.0 / (n - 1))
            delta = (n + 64) * np.finfo(float).eps
            c = rng.uniform(0.0, n - 1.0, 40)
            h = 10.0 ** rng.uniform(-14.0, 0.5, 40)
            j = rng.integers(0, n - 1, 40).astype(float)
            # random windows, tiny windows around nodes, and slivers at
            # the top of a cell, where an end piece cancels
            lo = np.concatenate([c - h, j - h, j + 1 - h])
            hi = np.concatenate([c + h, j + h, j + 1 - h * 1e-3])
            lo = np.clip(lo, 0.0, n - 1.0)
            hi = np.clip(hi, lo, n - 1.0)
            got, env = norm(lo, hi, envelope=True)
            assert np.array_equal(got, norm(lo, hi))
            fp = f if math.isinf(p) else f ** p
            for g, e, a, b in zip(got, env, lo, hi):
                err = abs(Fraction(g) - self._exact(fp, p, a, b))
                assert err <= Fraction(delta) * Fraction(e)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("x,h", [(0.25, math.nan), (0.25, math.inf),
                                     (math.inf, 0.01), (math.nan, 0.01),
                                     (-math.inf, 0.01), (0.25, 0.0),
                                     (0.25, -0.1)])
    def test_refused_with_parameter_error(self, bump_4097, x, h):
        ev = cov.BalanceEvaluator(bump_4097, SPEC)
        for balance in (ev.alpha, ev.beta):
            with pytest.raises(ParameterError):
                balance(x, h)
            # one bad entry among good ones is refused too
            with pytest.raises(ParameterError):
                balance(np.array([0.3, x]), np.array([0.01, h]))
        if not math.isfinite(x):
            with pytest.raises(ParameterError):
                ev.critical_radii(np.array([0.3, x]))

    @pytest.mark.parametrize("centers,radii", [
        ([0.3, 0.5], [0.1, math.nan]),
        ([math.nan, 0.5], [0.1, 0.1]),
        ([0.3, 0.5], [0.1, math.inf]),
        ([0.3, -math.inf], [0.1, 0.1]),
    ])
    def test_selection_refuses_non_finite(self, centers, radii):
        with pytest.raises(ParameterError):
            cov.besicovitch_select(np.array(centers), np.array(radii))


class TestBalanceSpec:
    @pytest.mark.parametrize("ks,m", [((0.5, 1), 3), ((0, 1), 2.5),
                                      ((0, math.nan), 3), ((0, 1), None)])
    def test_rejects_non_integral_orders(self, ks, m):
        with pytest.raises(ParameterError):
            cov.BalanceSpec(ks=ks, q=2, m=m, r="inf")

    def test_integral_floats_become_ints(self):
        spec = cov.BalanceSpec(ks=(0.0, 1.0), q=2, m=3.0, r="inf")
        assert spec.ks == (0, 1) and type(spec.ks[0]) is int
        assert spec.m == 3 and type(spec.m) is int


class TestBesicovitchSelection:
    def test_trivial_cases(self):
        assert cov.besicovitch_select(np.zeros(0), np.zeros(0)) == []
        assert cov.besicovitch_select(np.array([0.3]), np.array([0.1])) == [0]

    def test_interval_rounding_to_a_point_is_picked_once(self):
        # 1 - 1e-17 and 1 + 1e-17 both round to 1.0
        assert cov.besicovitch_select(np.array([1.0]),
                                      np.array([1e-17])) == [0]

    def test_nested_intervals_pick_the_widest(self):
        centers = np.array([0.5, 0.52, 0.48])
        radii = np.array([0.2, 0.02, 0.01])
        assert cov.besicovitch_select(centers, radii) == [0]

    def test_disjoint_intervals_all_selected(self):
        centers = np.array([0.1, 0.5, 0.9])
        radii = np.array([0.05, 0.05, 0.05])
        assert sorted(cov.besicovitch_select(centers, radii)) == [0, 1, 2]

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                              st.floats(min_value=1e-3, max_value=0.3)),
                    min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_selection_covers_centers_with_bounded_overlap(self, pairs):
        centers = np.array([c for c, _ in pairs])
        radii = np.array([r for _, r in pairs])
        picked = cov.besicovitch_select(centers, radii)
        assert len(set(picked)) == len(picked)
        ivs = np.stack([centers[picked] - radii[picked],
                        centers[picked] + radii[picked]], axis=1)
        # every input center lies inside some selected interval
        inside = (centers[:, None] >= ivs[None, :, 0]) & \
                 (centers[:, None] <= ivs[None, :, 1])
        assert inside.any(axis=1).all()
        assert cov.overlap_profile(ivs) <= 4

    def test_overlap_profile_counts_stacked_intervals(self):
        ivs = np.array([[0.0, 1.0], [0.1, 0.9], [0.2, 0.8]])
        assert cov.overlap_profile(ivs) == 3

    def test_overlap_profile_is_exact_for_open_intervals(self):
        # a sliver far narrower than any probe spacing still overlaps
        sliver = np.array([[0.0, 1.0], [1 - 1e-6, 2.0]])
        assert cov.overlap_profile(sliver) == 2
        # intervals that only touch share no point
        assert cov.overlap_profile(np.array([[0.0, 1.0], [1.0, 2.0]])) == 1
        assert cov.overlap_profile(np.zeros((0, 2))) == 0


class TestSegmentIntegral:
    """Window integrals: whole cells from the run table, plus end pieces."""

    def test_integer_ends_sum_whole_cells(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 64, 100, 1025, 8193):
            f = rng.random(n) ** 2
            dx = 1.0 / (n - 1)
            window = cov._window_norm(f, 1.0, dx)
            cells = 0.5 * (f[1:] + f[:-1]) * dx
            lo = rng.integers(0, n, 300)
            hi = np.minimum(lo + rng.integers(0, n, 300), n - 1)
            got = window(lo.astype(float), hi.astype(float))
            want = [math.fsum(cells[a:b]) for a, b in zip(lo, hi)]
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_fractional_ends_are_exact_for_affine_integrands(self):
        n, dx = 1025, 1.0 / 1024
        rng = np.random.default_rng(6)
        f = 0.5 + 0.25 * np.arange(n) * dx
        lo = rng.uniform(0.0, n - 1.0, 400)
        hi = np.minimum(lo + rng.uniform(0.0, 40.0, 400), n - 1.0)
        # the midpoint rule is exact for an affine f, without cancellation
        want = (hi - lo) * dx * (0.5 + 0.125 * (lo + hi) * dx)
        got = cov._window_norm(f, 1.0, dx)(lo, hi)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


class TestRangeMax:
    """Window maxima: whole runs from the run table, interpolated ends."""

    def test_matches_slice_max(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 7, 64, 100, 1025):
            f = rng.standard_normal(n)
            runs = cov._RunTable(f, np.maximum, -np.inf)
            lo = rng.integers(0, n, 500)
            hi = np.minimum(lo + rng.integers(0, n, 500), n - 1)
            lo = np.concatenate([lo, np.arange(n), [0]])
            hi = np.concatenate([hi, np.arange(n), [n - 1]])
            want = [f[a:b + 1].max() for a, b in zip(lo, hi)]
            assert np.array_equal(runs(lo, hi), want)

    def test_empty_range_is_minus_infinity(self):
        runs = cov._RunTable(np.arange(5.0), np.maximum, -np.inf)
        out = runs(np.array([3, 0]), np.array([2, 4]))
        assert out[0] == -np.inf and out[1] == 4.0

    def test_fractional_ends_match_brute_force(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 64, 1025):
            f = rng.standard_normal(n)
            lo = rng.uniform(0.0, n - 1.0, 400)
            hi = np.minimum(lo + rng.uniform(0.0, n / 4, 400), n - 1.0)
            # ends on nodes, windows inside one cell, and the whole grid
            a = rng.uniform(0.0, n - 1.0, 50)
            lo = np.concatenate([lo, np.floor(a), a, [0.0]])
            hi = np.concatenate([hi, np.ceil(a), (a + np.ceil(a)) / 2,
                                 [n - 1.0]])

            def at(pos):
                i = min(int(pos), n - 2)
                return f[i] * (1 - (pos - i)) + f[i + 1] * (pos - i)

            want = [max([at(a), at(b)]
                        + list(f[math.ceil(a):math.floor(b) + 1]))
                    for a, b in zip(lo, hi)]
            got = cov._window_norm(f, math.inf, 1.0 / (n - 1))(lo, hi)
            assert np.array_equal(got, want)


def _masked_runs(a, op, empty):
    """The run query with masks over a (levels, 2^levels) table:
    op(T[k, i], T[k, j]) for i < j, T[0, i] for i == j and ``empty`` for
    i > j, the reference for the flat table's two reads."""
    levels = max(1, (a.size - 1).bit_length())
    padded = np.zeros(1 << levels)
    padded[:a.size] = a
    table = np.empty((levels, padded.size))
    for k in range(levels):
        blocks = padded.reshape(-1, 2, 1 << k)
        row = table[k].reshape(blocks.shape)
        row[:, 0] = op.accumulate(blocks[:, 0, ::-1], axis=1)[:, ::-1]
        row[:, 1] = op.accumulate(blocks[:, 1], axis=1)

    def runs(i, j):
        out = np.full(i.shape, empty)
        one = i == j
        out[one] = table[0, i[one]]
        run = i < j
        i, j = i[run], j[run]
        k = np.frexp(i ^ j)[1] - 1
        out[run] = op(table[k, i], table[k, j])
        return out
    return runs


def _three_piece_window_sum(f, p, dx):
    """The window integral with all three end pieces evaluated on both
    branches of one np.where, over the masked query: the reference for
    ``_window_norm``'s pieces taken once each."""
    n = f.size
    f = f ** p
    runs = _masked_runs(0.5 * (f[1:] + f[:-1]) * dx, np.add, 0.0)

    def piece(j, a, b):
        fj = f[j]
        return dx * (fj * (b - a) + 0.5 * (f[j + 1] - fj) * (b * b - a * a))

    def window_sum(lo, hi):
        lo = np.clip(lo, 0.0, n - 1.0)
        hi = np.maximum(np.clip(hi, 0.0, n - 1.0), lo)
        jl = np.minimum(np.floor(lo).astype(np.int64), n - 2)
        jh = np.minimum(np.floor(hi).astype(np.int64), n - 2)
        la = lo - jl
        ha = hi - jh
        out = np.where(jl == jh, piece(jl, la, ha),
                       piece(jl, la, 1.0) + runs(jl + 1, jh - 1)
                       + piece(jh, 0.0, ha))
        return out, runs(jl, jh)
    return window_sum


def _same_floats(got, want):
    return (got.dtype == want.dtype and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.floor
class TestMaskFreeKernels:
    """The flat run table's query and the window integral that takes each
    end piece once give the floats, sign bits included, of the masked
    query and the three-piece sum they replace."""

    @pytest.mark.parametrize("op,empty", [(np.add, 0.0),
                                          (np.maximum, -np.inf)])
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 8193])
    def test_query_equals_the_masked_query(self, op, empty, n):
        # i == j reads a[i] op the identity, so the entries hold no -0.0,
        # as no cell of |f|^p does; j runs from -1, as the window integral
        # asks for runs(jl + 1, jh - 1), and a pair (2^L - 1, -1) has an
        # xor of -2^L, whose level L lies past the top level L - 1
        rng = np.random.default_rng(n)
        a = rng.standard_normal(n)
        a[rng.random(n) < 0.1] = 0.0
        if n <= 65:
            i, j = (g.ravel() for g in np.meshgrid(np.arange(n),
                                                   np.arange(-1, n)))
        else:
            i = rng.integers(0, n, 20000)
            j = np.clip(i + rng.integers(-n // 4, n // 2, 20000), -1, n - 1)
            i = np.concatenate([i, [n - 1, 0, 5, 5]])
            j = np.concatenate([j, [-1, n - 1, 5, 4]])
        assert np.any(i < j) == (n > 1) and np.any(i == j) and np.any(i > j)
        levels = max(1, (n - 1).bit_length())
        above = np.frexp(i ^ j)[1] - 1 >= levels
        assert np.any(above) == (n in (2, 64))
        got = cov._RunTable(a, op, empty)(i, j)
        assert _same_floats(got, _masked_runs(a, op, empty)(i, j))

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 8193])
    def test_window_sum_equals_the_three_piece_sum(self, n):
        rng = np.random.default_rng(n + 1)
        f = rng.standard_normal(n)
        f[rng.random(n) < 0.2] = 0.0
        dx = 1.0 / (n - 1)
        c = rng.uniform(-1.0, n, 600)
        h = (n - 1.0) * 10.0 ** rng.uniform(-14.0, 0.3, 600)
        j = rng.integers(0, n - 1, 100).astype(float)
        t = rng.random(100)
        # random windows (clipped at both ends of the grid), reversed
        # ones, ends on nodes, both ends in one cell, and ends in
        # adjacent cells, where the run between them is empty
        lo = np.concatenate([c - h, c + h, j, j + t / 2, j + t])
        hi = np.concatenate([c + h, c - h, j + 1, j + t, j + 1 + t])
        for p in (1.0, 2.0):
            got = cov._window_norm(np.abs(f), p, dx)(lo, hi, envelope=True)
            want = _three_piece_window_sum(np.abs(f), p, dx)(lo, hi)
            assert all(map(_same_floats, got, want))


class TestBuildCover:
    def test_bump_cover_shape_and_quality(self, bump_4097):
        rep = cov.build_cover(bump_4097, SPEC, e_resolution=2049)
        assert rep.max_overlap <= 4
        assert rep.deficit_cells == 0
        assert float(np.max(rep.balance_residuals)) <= 1e-6
        assert rep.intervals.shape == (rep.centers.size, 2)
        assert len(rep.centers) == 27

    @pytest.mark.parametrize("name,counts", [
        ("bumpchi", (27, 27, 27)),
        ("sinebump3", (37, 37, 39)),
    ])
    def test_frozen_interval_counts(self, name, counts):
        u = fs.sample(fs.corpus_function(name), (0.0, 1.0), 8193, 3)
        got = tuple(len(cov.build_cover(u, SPEC, e_resolution=res).centers)
                    for res in (2049, 4097, 8193))
        assert got == counts

    def test_deficit_never_grows_under_refinement(self):
        u = fs.sample(fs.corpus_function("sinebump7"), (0.0, 1.0), 8193, 3)
        deficits = [cov.build_cover(u, SPEC, e_resolution=res).deficit_cells
                    for res in (2049, 4097, 8193)]
        assert all(a >= b for a, b in zip(deficits, deficits[1:]))

    def test_bounded_mode(self):
        u = fs.sample(fs.BumpChi(), (0.0, 1.0), 4097, 2)
        spec = cov.BalanceSpec(ks=(0, 1), q=2, m=2, r="inf", mode="bounded")
        rep = cov.build_cover(u, spec, e_resolution=1025)
        assert len(rep.centers) == 40
        assert rep.max_overlap <= 4
        assert rep.deficit_cells == 0

    def test_real_line_mode_needs_room_below_top_order(self):
        u = fs.sample(fs.BumpChi(), (0.0, 1.0), 1025, 3)
        bad = cov.BalanceSpec(ks=(2, 2), q=2, m=3, r="inf")
        with pytest.raises(ParameterError):
            cov.build_cover(u, bad)

    def test_bounded_mode_needs_no_room_below_top_order(self):
        """The crossing precondition binds real-line mode only: bounded
        mode's windows stop at the interval, where alpha meets beta."""
        u = fs.sample(fs.BumpChi(), (0.0, 1.0), 1025, 3)
        spec = cov.BalanceSpec(ks=(2, 2), q=2, m=3, r="inf", mode="bounded")
        rep = cov.build_cover(u, spec)
        assert rep.deficit_cells == 0
        assert float(np.max(rep.balance_residuals)) <= 1e-6

    def test_resolution_bounds(self, bump_4097):
        with pytest.raises(ParameterError):
            cov.build_cover(bump_4097, SPEC, e_resolution=1)
        with pytest.raises(ParameterError):
            cov.build_cover(bump_4097, SPEC, e_resolution=5000)

    def test_zero_function_gives_empty_cover(self):
        g = fs.GridFunction(0.0, 1.0, np.zeros((4, 1025)))
        rep = cov.build_cover(g, SPEC)
        assert rep.centers.size == 0
        assert rep.deficit_cells == 0

    def test_report_serialization(self, bump_4097):
        rep = cov.build_cover(bump_4097, SPEC, e_resolution=513)
        d = rep.to_dict()
        assert isinstance(d["meta"]["alpha_beta"], list)
        assert len(d["centers"]) == len(rep.centers)
        rows = rep.csv_rows()
        assert len(rows) == len(rep.centers)
        assert all(len(r) == 5 for r in rows)


class TestReportInvariants:
    def test_rejects_nonpositive_radii(self):
        with pytest.raises(InvariantError):
            cov.CoverReport(np.array([0.5]), np.array([0.0]),
                            np.array([[0.5, 0.5]]), 1, 0, 0.0,
                            np.array([0.0]))

    def test_rejects_excess_overlap(self):
        with pytest.raises(InvariantError):
            cov.CoverReport(np.array([0.5]), np.array([0.1]),
                            np.array([[0.4, 0.6]]), 5, 0, 0.0,
                            np.array([0.0]))

    def test_rejects_unbalanced_intervals(self):
        with pytest.raises(InvariantError):
            cov.CoverReport(np.array([0.5]), np.array([0.1]),
                            np.array([[0.4, 0.6]]), 1, 0, 0.0,
                            np.array([1e-3]))
