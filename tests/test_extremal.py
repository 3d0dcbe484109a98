"""Candidate basis, ratio objectives, and the restart search."""

import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import gnlab.extremal as ex
import gnlab.funcspace as fs
import gnlab.gn as gn
from gnlab.errors import ParameterError

TINY = ex.SearchConfig(restarts=3, budget=50, tol=1e-13, seed=11,
                       dimension=8, grid_n=1025, report_grid_n=2049)

# frozen outcome of the tiny deterministic search above; any drift means
# the optimizer, the seeding, or the objective's roundoff changed.  The
# 3 x 50-evaluation search is chaotic in the last bit, so a roundoff-only
# change may re-freeze it, keeping the value it replaces: a maximizer may
# only go up, and both must respect the proof ceiling (test_bounds.py).
TINY_RATIO4 = 1.0690107086016085
TINY_RATIO4_PREVIOUS = 1.0390262649017181
# frozen maxima of the seeded random batches (2000 draws, seed 5), at most
# their ceilings (test_bounds.py)
BATCH4_MAX = 1.0039808478065892
BATCH6_MAX = 1.2987292545844478


def test_basis_matrices_match_spline_bump():
    coeffs = (0.6, -1.0, 0.8, 0.4, -0.9, 1.0, -0.3, 0.7)
    n = 513
    mats = ex._basis_matrices(8, n, 3)
    x = np.linspace(0.0, 1.0, n)
    f = fs.SplineBump(coeffs)
    c = np.asarray(coeffs)
    for order in range(4):
        via_matrix = mats[order] @ c
        direct = f.stack(order, x)[order]
        scale = np.max(np.abs(direct)) or 1.0
        assert np.max(np.abs(via_matrix - direct)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# the Nelder-Mead port against scipy's adaptive Nelder-Mead, float for float
# ---------------------------------------------------------------------------

def scipy_nelder_mead(fun, x0, maxfev, xatol, fatol, callback=None):
    res = minimize(fun, x0, method="Nelder-Mead", callback=callback,
                   options={"maxfev": maxfev, "xatol": xatol,
                            "fatol": fatol, "adaptive": True})
    return res.x, res.fun, res.nfev


def _smooth(dim):
    rng = np.random.default_rng(dim)
    a, b = rng.uniform(0.5, 2.0, dim), rng.standard_normal(dim)
    return lambda x: float(a @ (x - b) ** 2 + 0.1 * np.sum(x) ** 4)


def _flat(dim):
    return lambda x: 1.0


def _degenerate(dim):
    # zero (a tie) on half of space, like a degenerate ratio candidate
    rng = np.random.default_rng(dim + 1)
    g = rng.standard_normal(dim)
    return lambda x: -max(0.0, float(np.sin(g @ x)))


def _ratio4(dim):
    ratios, _, _, _ = ex._make_objective("ratio4", dim, 129)
    return lambda c: ex._search_values(ratios, c[None])[0]


def _overwriting(dim):
    # the optimizer passes a copy of x, so the simplex never sees this
    smooth = _smooth(dim)

    def objective(x):
        value = smooth(x)
        x[:] = np.nan
        return value

    return objective


_NM_OBJECTIVES = {"smooth": _smooth, "flat": _flat,
                  "degenerate": _degenerate, "overwriting": _overwriting,
                  "ratio4": _ratio4}


def _x0(dim, zeros):
    x0 = np.random.default_rng(7 * dim).standard_normal(dim)
    if zeros:
        x0[::3] = 0.0
    return x0


def _first_shrink_budget(fun, x0):
    """An evaluation budget that ends inside scipy's first shrink: the
    first iteration that spends N + 2 evaluations is a shrink (reflect,
    contract, N vertices), and the budget stops after its first vertex."""
    dim = x0.size
    count = [0]
    ends = [dim + 1]

    def counted(x):
        count[0] += 1
        return fun(x)

    def callback(intermediate_result):
        if count[0] - ends[-1] == dim + 2:
            raise StopIteration
        ends.append(count[0])

    scipy_nelder_mead(counted, x0, 5000, 0.0, 0.0, callback)
    assert count[0] - ends[-1] == dim + 2, "no shrink in 5000 evaluations"
    return ends[-1] + 3


def _rows(fun):
    """fun of one point as an objective of rows, for `ex._lockstep`."""
    return lambda rows: [fun(x) for x in rows]


def _assert_run_equal(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert got[2] == want[2]


def _assert_nm_equal(fun, x0, budget, xatol=1e-9, fatol=1e-13):
    want = scipy_nelder_mead(fun, x0.copy(), budget, xatol, fatol)
    [got], _ = ex._lockstep(_rows(fun), [x0.copy()], budget, xatol, fatol)
    _assert_run_equal(got, want)
    return got


def scipy_lockstep(objective, starts, maxfev, xatol, fatol):
    """`ex._lockstep` as scipy's optimizer run once per start."""
    zeros = 0

    def fun(x):
        nonlocal zeros
        [value] = objective(x[None])
        zeros += value == 0.0
        return value

    return [scipy_nelder_mead(fun, x0, maxfev, xatol, fatol)
            for x0 in starts], zeros


class TestNelderMeadMatchesScipy:
    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("name", list(_NM_OBJECTIVES))
    @pytest.mark.parametrize("dim", [6, 9])
    def test_budgets_at_the_initial_simplex(self, dim, name, zeros):
        fun = _NM_OBJECTIVES[name](dim)
        for budget in (1, dim, dim + 1, dim + 2):
            _, _, nfev = _assert_nm_equal(fun, _x0(dim, zeros), budget)
            assert nfev == budget

    # the ratio objective at dimension 9 does not shrink within 5000
    # evaluations from this start
    @pytest.mark.parametrize("name, dim", [
        (name, dim) for name in _NM_OBJECTIVES for dim in (6, 9)
        if (name, dim) != ("ratio4", 9)])
    def test_budget_ending_inside_a_shrink(self, dim, name):
        fun = _NM_OBJECTIVES[name](dim)
        x0 = _x0(dim, zeros=False)
        budget = _first_shrink_budget(fun, x0)
        _, _, nfev = _assert_nm_equal(fun, x0, budget)
        assert nfev == budget

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("name", list(_NM_OBJECTIVES))
    @pytest.mark.parametrize("dim", [6, 16])
    def test_full_runs_and_tolerance_stops(self, dim, name, zeros):
        fun = _NM_OBJECTIVES[name](dim)
        for budget, xatol, fatol in ((400, 1e-9, 1e-13), (1500, 1e-4, 1e-8)):
            _assert_nm_equal(fun, _x0(dim, zeros), budget, xatol, fatol)

    # the smooth objective under the overwriting one does not shrink
    # within 5000 evaluations from every start at dimension 9
    @pytest.mark.parametrize("name, dim", [
        ("flat", 6), ("flat", 9), ("degenerate", 6), ("degenerate", 9),
        ("overwriting", 6)])
    def test_lockstep_runs_match_scipy_start_by_start(self, name, dim):
        """Runs in lockstep end where each would alone: some budgets end
        in the initial simplex, each start's first-shrink budget ends
        inside a shrink for that start, and the loose tolerances stop the
        starts (of different scales) in different rounds."""
        fun = _NM_OBJECTIVES[name](dim)
        starts = [scale * _x0(dim, zeros) for zeros in (False, True)
                  for scale in (1.0, 40.0)]
        budgets = {_first_shrink_budget(fun, x0) for x0 in starts}
        for budget in sorted(budgets | {1, dim, dim + 2, 1500}):
            for xatol, fatol in ((1e-9, 1e-13), (1e-4, 1e-8)):
                got, zeros = ex._lockstep(_rows(fun), [x.copy() for x in starts],
                                          budget, xatol, fatol)
                want, want_zeros = scipy_lockstep(_rows(fun), starts, budget,
                                                  xatol, fatol)
                for run, ref in zip(got, want):
                    _assert_run_equal(run, ref)
                assert zeros == want_zeros
        # the loose-tolerance runs of the last budget stopped apart
        assert len({nfev for _, _, nfev in got}) > 1

    @pytest.mark.parametrize("target, dimension, grid_n, restarts, calls", [
        pytest.param("ratio4", 8, 1025, 3, [3], id="ratio4"),
        pytest.param("ratio6", 8, 1025, 3, [3], id="ratio6"),
        pytest.param("ratio-half", 8, 1025, 3, [3, 1], id="ratio-half"),
        # below FORM_MIN_DIMENSION ratio4 takes the grid objective
        pytest.param("ratio4", 6, 1025, 3, [3, 1], id="ratio4-off-form"),
        # past the 20 warm starts, so random starts run too
        pytest.param("ratio4", 16, 4097, 24, [24],
                     id="ratio4-random-starts")])
    def test_searches_match_the_scipy_optimizer(self, target, dimension,
                                                grid_n, restarts, calls,
                                                monkeypatch):
        """The restarts run through scipy's Nelder-Mead give the search
        float for float.  A form target polishes by BFGS on its gradient,
        from the same incumbent, so only its restarts go through scipy; a
        grid objective's polish is one more Nelder-Mead run."""
        cfg = ex.SearchConfig(restarts=restarts, budget=60, tol=1e-13, seed=4,
                              dimension=dimension, grid_n=grid_n,
                              report_grid_n=1025)
        ours = ex.estimate_constant(target, cfg)
        runs = []

        def shim(*args):
            runs.append(len(args[1]))
            return scipy_lockstep(*args)

        monkeypatch.setattr(ex, "_lockstep", shim)
        theirs = ex.estimate_constant(target, cfg)
        assert runs == calls
        kinds = [t["kind"] for t in ours.trace]
        assert kinds.count("random") == max(0, restarts - 20)
        assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ex.SearchConfig(restarts=0)
        with pytest.raises(ParameterError):
            ex.SearchConfig(budget=0)
        with pytest.raises(ParameterError):
            ex.SearchConfig(dimension=5)
        with pytest.raises(ParameterError):
            ex.SearchConfig(grid_n=1024)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ParameterError):
            ex.SearchConfig(tol=tol)

    @pytest.mark.parametrize("kwargs", [
        {"restarts": 2.5}, {"budget": 10.5}, {"restarts": True},
        {"budget": True}, {"seed": -1}, {"seed": 1.5}])
    def test_integer_fields_refuse_other_values(self, kwargs):
        with pytest.raises(ParameterError):
            ex.SearchConfig(**kwargs)

    def test_whole_float_integer_field_is_stored_as_int(self):
        cfg = ex.SearchConfig(dimension=8.0)
        assert cfg.dimension == 8 and type(cfg.dimension) is int

    def test_echo_round_trip(self):
        cfg = ex.SearchConfig(restarts=2, budget=10)
        echo = dataclasses.asdict(cfg)
        assert echo["restarts"] == 2
        assert echo["budget"] == 10


class TestEstimateConstant:
    def test_tiny_search_frozen_value(self):
        res = ex.estimate_constant("ratio4", TINY)
        assert res.ratio == pytest.approx(TINY_RATIO4, rel=1e-12, abs=0.0)
        assert res.degenerate == 0
        assert res.evaluations > 0

    def test_search_is_deterministic(self):
        a = ex.estimate_constant("ratio4", TINY)
        b = ex.estimate_constant("ratio4", TINY)
        assert a.ratio == b.ratio
        assert a.candidate == b.candidate
        assert a.evaluations == b.evaluations

    def test_trace_best_is_monotone(self):
        res = ex.estimate_constant("ratio4", TINY)
        bests = [t["best_so_far"] for t in res.trace]
        assert all(a <= b + 1e-15 for a, b in zip(bests, bests[1:]))
        kinds = {t["kind"] for t in res.trace}
        assert kinds <= {"warm", "random", "polish"}
        assert "polish" in kinds

    def test_result_stays_below_ceiling(self):
        res = ex.estimate_constant("ratio4", TINY)
        assert res.ratio <= gn.RATIO4_BOUND + ex.CEILING_SLACK

    def test_gnparams_target(self, l12):
        cfg = ex.SearchConfig(restarts=2, budget=40, tol=1e-10, seed=1,
                              dimension=8, grid_n=513, report_grid_n=1025)
        res = ex.estimate_constant(l12, cfg)
        assert res.target.startswith("gn(")
        assert res.ratio > 0

    def test_unknown_tag_rejected(self):
        with pytest.raises(ParameterError):
            ex.estimate_constant("ratio5", TINY)

    def test_ratio_half_reports_on_every_report_node(self):
        # the search keeps every 8th of its 1025 nodes; the report must not
        cfg = ex.SearchConfig(restarts=1, budget=20, dimension=8,
                              grid_n=1025, report_grid_n=2049)
        res = ex.estimate_constant("ratio-half", cfg)
        x = np.linspace(0.0, 1.0, res.report_grid_n)
        stack = fs.SplineBump(res.candidate).stack(1, x)
        want = gn.ratio_half(fs.GridFunction(0.0, 1.0, stack))
        assert res.report_grid_n == 2049
        assert res.ratio == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("target", ["ratio4", "ratio6", "l12",
                                        "ratio-half"])
    def test_report_is_the_winners_own_stack(self, target, l12):
        """The reported ratio is the target's function of the winner's own
        stack, sampled on every report node: no report-grid basis."""
        target = l12 if target == "l12" else target
        cfg = ex.SearchConfig(restarts=2, budget=30, dimension=8,
                              grid_n=1025, report_grid_n=4097)
        res = ex.estimate_constant(target, cfg)
        order = ex._target_order(target)
        u = fs.sample(fs.SplineBump(res.candidate), (0, 1),
                      res.report_grid_n, order)
        assert res.report_grid_n == 4097
        assert res.ratio > 0.0
        assert res.ratio == ex._ratio_fn(target)(u)

    def test_oversized_report_grid_is_refused_before_any_build(
            self, monkeypatch):
        def no_build(*args):
            raise AssertionError("built an objective for a refused report")

        monkeypatch.setattr(ex, "_make_objective", no_build)
        cfg = ex.SearchConfig(restarts=1, budget=1, dimension=8,
                              grid_n=1025, report_grid_n=2 ** 27 + 1)
        with pytest.raises(ParameterError, match="the winner's stack"):
            ex.estimate_constant("ratio4", cfg)


class TestRandomBatch:
    def test_frozen_maxima_and_ceilings(self):
        b4 = ex.random_ratio_batch("ratio4", count=2000, dimension=8,
                                   seed=5, grid_n=1025)
        assert b4["max"] == pytest.approx(BATCH4_MAX, rel=1e-12, abs=0.0)
        assert b4["max"] <= gn.RATIO4_BOUND + 1e-3
        assert b4["degenerate"] == 0
        b6 = ex.random_ratio_batch("ratio6", count=2000, dimension=8,
                                   seed=5, grid_n=1025)
        assert b6["max"] == pytest.approx(BATCH6_MAX, rel=1e-12, abs=0.0)
        assert b6["max"] <= gn.RATIO6_BOUND + 1e-3

    @pytest.mark.parametrize("target", ["ratio4", "ratio6"])
    def test_batched_forms_match_the_search_objective(self, target):
        """Blocks of candidates through one product per factor give the
        single-candidate form's values up to roundoff, zero rows 0.0."""
        ratios, batch, _, _ = ex._make_objective(target, 8, 1025)
        coeffs = np.random.default_rng(4).standard_normal(
            (2 * ex.BATCH_ROWS + 5, 8))
        coeffs /= np.linalg.norm(coeffs, axis=1)[:, None]
        coeffs[ex.BATCH_ROWS] = 0.0
        got = batch(coeffs)
        want = np.array(ratios(coeffs))
        assert got[ex.BATCH_ROWS] == want[ex.BATCH_ROWS] == 0.0
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert np.argmax(got) == np.argmax(want)

    def test_batch_is_deterministic(self):
        a = ex.random_ratio_batch("ratio4", count=64, seed=9, grid_n=513)
        b = ex.random_ratio_batch("ratio4", count=64, seed=9, grid_n=513)
        assert a == b

    def test_mean_below_max(self):
        b = ex.random_ratio_batch("ratio4", count=128, seed=2, grid_n=513,
                                  dimension=8)
        assert b["mean"] <= b["max"]
        assert len(b["argmax"]) == 8  # unit coefficient vector of the max

    @pytest.mark.parametrize("kwargs", [
        {"grid_n": 1024}, {"grid_n": 1}, {"grid_n": 513.0},
        {"count": 2.5}, {"count": 0}])
    def test_inputs_are_refused_before_any_build(self, kwargs, monkeypatch):
        def no_build(*args):
            raise AssertionError("built an objective for refused input")

        monkeypatch.setattr(ex, "_make_objective", no_build)
        with pytest.raises(ParameterError):
            ex.random_ratio_batch("ratio4", **{"count": 4, **kwargs})

    @pytest.mark.parametrize("grid_n", [2051, 4095, 1033])
    def test_ratio_half_stride_must_keep_the_end_node(self, grid_n,
                                                      monkeypatch):
        """The kept nodes pass the one grid rule before the basis is built:
        1033 nodes keep 130, an even count."""
        def no_build(*args):
            raise AssertionError("built a basis for a refused grid")

        monkeypatch.setattr(ex, "_basis_matrices", no_build)
        with pytest.raises(ParameterError):
            ex.random_ratio_batch("ratio-half", count=4, grid_n=grid_n)

    def test_count_above_the_byte_cap_is_refused_before_the_draw(
            self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew the candidates")

        monkeypatch.setattr(ex, "_make_objective",
                            lambda *args: (None,) * 4)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        most = fs.BYTES_CAP // ex._batch_bytes(1, 8)
        with pytest.raises(ParameterError, match=f"{most + 1} random"):
            ex.random_ratio_batch("ratio4", count=most + 1)
        with pytest.raises(AssertionError, match="drew the candidates"):
            ex.random_ratio_batch("ratio4", count=most)

    def test_ratio_half_strided_grid_is_the_coarse_grid(self):
        """4097 nodes subsampled by 8 are the 513-node grid of [0, 1]."""
        fine = ex.random_ratio_batch("ratio-half", count=4, seed=3, grid_n=4097)
        coarse = ex.random_ratio_batch("ratio-half", count=4, seed=3,
                                       grid_n=513)
        assert fine["max"] == pytest.approx(coarse["max"], rel=1e-12, abs=0.0)
        assert fine["mean"] == pytest.approx(coarse["mean"],
                                             rel=1e-12, abs=0.0)


class TestPolynomialForms:
    """The ratio4/ratio6 search objectives as polynomial forms against the
    grid objective, which is their oracle."""

    @staticmethod
    def assert_forms_match_grid(target, dimension, n, count):
        grid, basis = ex._grid_objective(target, dimension, n)
        form, _, _ = ex._forms(target, dimension, n)
        rng = np.random.default_rng([dimension, n])
        coeffs = rng.standard_normal((count, dimension))
        coeffs = list(coeffs / np.linalg.norm(coeffs, axis=1)[:, None])
        coeffs += [c / np.linalg.norm(c) for c in ex.warm_starts(basis[0])]
        want = np.array([grid(c) for c in coeffs])
        assert np.all(want > 0.0)
        np.testing.assert_allclose(form(np.array(coeffs)), want,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [65, 1025, 4097])
    @pytest.mark.parametrize("dimension", [ex.FORM_MIN_DIMENSION, 11, 16])
    @pytest.mark.parametrize("target", ["ratio4", "ratio6"])
    def test_forms_match_grid_objective(self, target, dimension, n):
        self.assert_forms_match_grid(target, dimension, n, 1000)

    @pytest.mark.parametrize("target", ["ratio4", "ratio6"])
    def test_factors_built_in_row_blocks_match_grid_objective(self, target):
        # two full row blocks and a shorter one
        self.assert_forms_match_grid(target, 8, 3 * ex.FACTOR_ROWS - 2, 100)

    @pytest.mark.parametrize("target, dimension, n", [
        ("ratio4", 16, ex.SEARCH_GRID_N), ("ratio6", 8, ex.SEARCH_GRID_N),
        ("ratio6", 16, 1025), ("ratio4", 8, 3 * ex.FACTOR_ROWS - 2)])
    def test_factors_match_the_per_column_build(self, target, dimension, n):
        """Columns built together, one assignment at a time, give the
        factors of the column-by-column build float for float."""
        got = ex._ratio_factors(target, dimension, n)
        want = _per_column_factors(target, dimension, n)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("target, dimension, n", [
        ("ratio4", 16, ex.SEARCH_GRID_N), ("ratio6", 11, 2049),
        ("ratio4", 8, 3 * ex.FACTOR_ROWS - 2)])
    def test_factor_formula_is_between_the_traced_peak_and_twice_it(
            self, target, dimension, n):
        # the basis is built and counted, QR's lazy state loaded, and the
        # factors built past the cache
        basis = ex._basis_matrices(dimension, n, ex._TAG_ORDER[target])
        np.linalg.qr(np.eye(3), mode="r")
        tracemalloc.start()
        try:
            ex._ratio_factors.__wrapped__(target, dimension, n)
            peak = tracemalloc.get_traced_memory()[1] + basis.nbytes
        finally:
            tracemalloc.stop()
        need = ex._factor_bytes(target, dimension, n)
        assert peak <= need <= 2 * peak

    @pytest.mark.parametrize("target,dimension,size", [
        ("ratio4", 16, 81), ("ratio6", 8, 98), ("ratio6", 16, 266)])
    def test_only_overlapping_monomials_are_kept(self, target, dimension,
                                                 size):
        degree = len(ex._TAG_FORMS[target][0])
        monos = ex._monomials(dimension, degree)
        assert monos.shape == (degree, size)
        assert np.all(np.diff(monos, axis=0) >= 0)
        assert np.all(monos[-1] - monos[0] <= fs.SPLINE_DEGREE)

    @pytest.mark.parametrize("target,dimension,n,forms", [
        ("ratio4", 16, 4097, True), ("ratio6", 8, 1025, True),
        ("ratio4", 16, 65, False), ("ratio6", 32, 4097, False),
        ("ratio4", 6, 4097, False), ("ratio6", 7, 4097, False),
        ("ratio-half", 8, 4097, False)])
    def test_forms_run_where_factors_are_no_larger_than_the_stack(
            self, target, dimension, n, forms):
        ratios, _, gradient, _ = ex._make_objective(target, dimension, n)
        assert ratios.__qualname__.startswith("_forms.") == forms
        assert (gradient is not None) == forms


def _per_column_factors(target, dimension, n):
    """`ex._ratio_factors` as it was built one column at a time, each column
    a Python sum over its assignments of np.prod of basis columns.  Kept as
    the reference for the factors' floats."""
    basis = ex._basis_matrices(dimension, n, ex._TAG_ORDER[target])
    sqrt_w = np.sqrt(ex.norms.simpson_weights(n, 1.0 / (n - 1)))
    monos = ex._monomials(dimension, len(ex._TAG_FORMS[target][0]))
    perms = [sorted(set(itertools.permutations(mono))) for mono in monos.T]

    def factor(orders):
        r = np.empty((0, monos.shape[1]))
        for lo in range(0, n, ex.FACTOR_ROWS):
            rows = slice(lo, min(lo + ex.FACTOR_ROWS, n))
            stacked = np.empty((len(r) + rows.stop - lo, monos.shape[1]))
            stacked[:len(r)] = r
            k = stacked[len(r):]
            for col, assignments in enumerate(perms):
                k[:, col] = sum(
                    np.prod([basis[o][rows, i] for o, i in zip(orders, perm)],
                            axis=0)
                    for perm in assignments)
            k *= sqrt_w[rows, None]
            r = np.linalg.qr(stacked, mode="r")
        return r

    num_orders, den_orders = ex._TAG_FORMS[target]
    return monos, factor(num_orders), factor(den_orders)


def _reference_search_value(target, dimension, n):
    """The search objective one candidate at a time, as it was before it
    took rows: the single-candidate form behind the np.linalg.norm
    wrapper.  Kept as the reference for the floats of `_search_values`."""
    monos, r_num, r_den = ex._ratio_factors(target, dimension, n)
    power = 0.5 / monos.shape[0]
    first, *rest = monos

    def ratio(coeffs):
        y = coeffs[first]
        for idx in rest:
            y = y * coeffs[idx]
        num = r_num @ y
        den = r_den @ y
        den2 = den @ den
        if den2 == 0.0:
            return 0.0
        return float((num @ num / den2) ** power)

    def objective(c):
        nrm = np.linalg.norm(c)
        if nrm == 0.0 or not np.isfinite(nrm):
            return 0.0
        return -ratio(np.asarray(c, dtype=float) / nrm)

    return objective


class TestSearchValues:
    @pytest.mark.parametrize("dimension", [8, 16])
    @pytest.mark.parametrize("target", ["ratio4", "ratio6"])
    def test_rows_give_the_one_candidate_floats(self, target, dimension):
        """Rows evaluated together, across a block boundary, equal one-row
        calls and the one-candidate reference float for float, and a zero
        or non-finite row reads 0.0 as before: a matrix product or an
        array power in their place moves last bits, and so every search."""
        ratios, _, _, basis = ex._make_objective(target, dimension, 4097)
        assert ratios.__qualname__.startswith("_forms.")
        reference = _reference_search_value(target, dimension, 4097)
        rows = np.random.default_rng([dimension, 17]).standard_normal(
            (ex.BATCH_ROWS + 50, dimension))
        rows = np.vstack([rows, *ex.warm_starts(basis[0]),
                          np.zeros(dimension), np.full(dimension, np.inf)])
        rows[-3, 1] = np.nan
        got = ex._search_values(ratios, rows)
        one = [ex._search_values(ratios, row[None])[0] for row in rows]
        want = [reference(row) for row in rows]
        assert got == one == want
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got.count(0.0) == want.count(0.0) == 3


class TestFormGradient:
    @pytest.mark.parametrize("dimension", [8, 16])
    @pytest.mark.parametrize("target", ["ratio4", "ratio6"])
    def test_gradient_matches_central_differences(self, target, dimension):
        """At seeded unit points the central difference quotient of the
        ratio of x / |x| converges to the gradient like h^2 over two step
        sizes.  The value is the forms' to roundoff, and the gradient is
        orthogonal to the point, as the ratio is 0-homogeneous.  (Near the
        dimension-16 maximizers the curvature is 1e5 and more, and the
        quotient does not converge at these steps.)"""
        ratios, _, gradient, _ = ex._make_objective(target, dimension, 4097)
        rng = np.random.default_rng([dimension, 3])
        for _ in range(3):
            x = rng.standard_normal(dimension)
            x /= np.linalg.norm(x)
            ratio, grad = gradient(x)
            assert ratio == pytest.approx(ratios(x[None])[0], rel=1e-14)
            assert abs(grad @ x) <= 1e-14 * np.abs(grad).max()

            def quotient(h):
                steps = h * np.eye(dimension)
                plus = ratios((x + steps) / np.linalg.norm(
                    x + steps, axis=1)[:, None])
                minus = ratios((x - steps) / np.linalg.norm(
                    x - steps, axis=1)[:, None])
                return (np.array(plus) - minus) / (2 * h)

            errors = [np.abs(quotient(h) - grad).max() / np.abs(grad).max()
                      for h in (1e-4, 1e-5)]
            assert errors[1] <= min(errors[0] / 50, 1e-7)

    def test_degenerate_rows_read_zero(self):
        _, _, gradient, _ = ex._make_objective("ratio4", 8, 1025)
        ratio, grad = gradient(np.zeros(8))
        assert ratio == 0.0 and not grad.any()


# the searches whose polish is checked against its oracles: the tiny
# search, perfbench's 22 x 1000 and README's 8 x 2000
_POLISHED = {"tiny": TINY,
             "perfbench": ex.SearchConfig(restarts=22, budget=1000),
             "readme": ex.SearchConfig(restarts=8, budget=2000)}


def _recorded_polish(target, cfg, monkeypatch):
    """The search's result and its one `_bfgs` call: (arguments, runs)."""
    calls = []
    bfgs = ex._bfgs

    def recorder(*args):
        calls.append((args, bfgs(*args)))
        return calls[-1][1]

    monkeypatch.setattr(ex, "_bfgs", recorder)
    result = ex.estimate_constant(target, cfg)
    [call] = calls
    return result, call


class TestGradientPolish:
    @pytest.mark.parametrize("config", list(_POLISHED))
    @pytest.mark.parametrize("target", ["ratio4", "ratio6"])
    def test_polish_ends_at_or_above_scipy_bfgs_and_nelder_mead(
            self, target, config, monkeypatch):
        """From the search's incumbent, the polish ends at or above
        scipy's BFGS on the same gradient and the Nelder-Mead polish it
        replaced, within 1e-12 relative, inside the Nelder-Mead polish's
        budget, and the report stays below the ceiling."""
        cfg = _POLISHED[config]
        result, ((gradient, x0, maxfev, fatol), ([(_, f, nfev)], zeros)) = (
            _recorded_polish(target, cfg, monkeypatch))

        def fun(z):
            length = np.linalg.norm(z)
            ratio, grad = gradient(z / length)
            return -ratio, -grad / length

        scipy_f = minimize(fun, x0.copy(), jac=True, method="BFGS").fun
        ratios, _, _, _ = ex._make_objective(target, cfg.dimension, cfg.grid_n)
        [(_, nm_f, _)], _ = ex._lockstep(partial(ex._search_values, ratios),
                                         [x0], maxfev, 1e-9, fatol)
        assert -f >= -scipy_f * (1 - 1e-12)
        assert -f >= -nm_f * (1 - 1e-12)
        assert nfev <= maxfev == int(2.5 * cfg.budget) and zeros == 0
        assert result.search_ratio == -f
        assert result.ratio <= ex._TAG_CEILING[target] + ex.CEILING_SLACK

    @pytest.mark.parametrize("target", ["ratio4", "ratio6", "ratio-half",
                                        "l12"])
    def test_trace_is_monotone_and_evaluations_within_budget(self, target,
                                                             l12):
        cfg = dataclasses.replace(TINY, budget=40)
        res = ex.estimate_constant(l12 if target == "l12" else target, cfg)
        bests = [t["best_so_far"] for t in res.trace]
        assert bests == sorted(bests)
        assert [t["kind"] for t in res.trace][-1] == "polish"
        assert res.evaluations <= (cfg.restarts + 2.5) * cfg.budget

    def test_a_cut_budget_keeps_the_last_accepted_point(self, monkeypatch):
        """Every budget is kept, and a larger one never ends higher: a
        run is the same steps until its budget cuts a line search short,
        and a cut search leaves the point where it was."""
        _, ((gradient, x0, _, fatol), _) = _recorded_polish(
            "ratio4", TINY, monkeypatch)
        values = []
        for maxfev in range(1, 40):
            [(x, f, nfev)], _ = ex._bfgs(gradient, x0, maxfev, fatol)
            assert nfev <= maxfev
            assert f == -gradient(x)[0]
            values.append(f)
        assert values == sorted(values, reverse=True)
        assert values[0] > values[-1]


class TestLockstepFootprint:
    def test_formula_is_between_the_traced_peak_and_twice_it(self):
        cfg = ex.SearchConfig(restarts=3000, budget=9, dimension=8,
                              grid_n=1025, report_grid_n=1025)
        # the basis, the factors and numpy's lazy state, before tracing
        ex.estimate_constant("ratio4", dataclasses.replace(cfg, restarts=1))
        tracemalloc.start()
        try:
            ex.estimate_constant("ratio4", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need = ex._lockstep_bytes(cfg.restarts, cfg.dimension)
        assert peak <= need <= 2 * peak

    @pytest.mark.parametrize("dimension, restarts",
                             [(8, 300), (16, 150), (30, 100), (49, 40)])
    def test_formula_per_run_is_between_the_traced_growth_and_twice_it(
            self, dimension, restarts):
        """The growth of the traced peak per run, between `restarts` and
        three times as many, with a budget of d + 1 so that the first round
        asks every vertex of every simplex, as a full search does."""
        cfg = ex.SearchConfig(restarts=restarts, budget=dimension + 1,
                              dimension=dimension, grid_n=1025,
                              report_grid_n=1025)
        # the basis, the factors and numpy's lazy state (the random starts
        # import numpy.random's helpers), before tracing
        ex.estimate_constant("ratio4", cfg)
        peaks = []
        for runs in (restarts, 3 * restarts):
            tracemalloc.start()
            try:
                ex.estimate_constant("ratio4",
                                     dataclasses.replace(cfg, restarts=runs))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        growth = (peaks[1] - peaks[0]) / (2 * restarts)
        assert growth <= ex._lockstep_bytes(1, dimension) <= 2 * growth


_REPORT_PHASE = """
import sys, tracemalloc
import gnlab.extremal as ex
import gnlab.funcspace as fs
target, dimension = sys.argv[1], int(sys.argv[2])
sample, calls = fs.sample, []
def traced_sample(*args):
    calls.append(args)
    tracemalloc.reset_peak()
    return sample(*args)
fs.sample = traced_sample
cfg = ex.SearchConfig(restarts=2, budget=20, dimension=dimension,
                      report_grid_n=257)
tracemalloc.start()
ex.estimate_constant(target, cfg)
peak = tracemalloc.get_traced_memory()[1]
print(len(calls), peak, ex._report_bytes(target, dimension, cfg.grid_n, 257))
"""


class TestReportFootprint:
    @pytest.mark.parametrize("target, dimension", [("ratio6", 16),
                                                   ("ratio4", 6)])
    def test_formula_bounds_the_report_phase_after_a_search(
            self, target, dimension):
        """`_report_bytes` is at least the traced peak from the winner's
        `sample` on: its 257-node stack beside what the search leaves.  A
        fresh interpreter traces the free lists the search fills: after a
        dimension-16 ratio6 search (forms) its index lists leave 72 KB of
        tuples; a dimension-6 search (no forms) leaves 10 KB."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ex.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", _REPORT_PHASE, target, str(dimension)],
            env=env, capture_output=True, text=True, check=True)
        calls, peak, need = map(int, out.stdout.split())
        assert calls == 1  # the report's stack is the one sampled
        assert peak <= need

