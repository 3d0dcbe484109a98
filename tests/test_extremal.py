"""Candidate basis, ratio objectives, and the restart search."""

import numpy as np
import pytest

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
# only go up, and both must respect the proof ceiling.
TINY_RATIO4 = 1.0390262649017181
TINY_RATIO4_PREVIOUS = 1.030365043330272
# frozen maxima of the seeded random batches (2000 draws, seed 5)
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
        direct = f.derivative(order, x)
        scale = np.max(np.abs(direct)) or 1.0
        assert np.max(np.abs(via_matrix - direct)) <= 1e-12 * scale


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

    def test_echo_round_trip(self):
        cfg = ex.SearchConfig(restarts=2, budget=10)
        echo = cfg.echo()
        assert echo["restarts"] == 2
        assert echo["budget"] == 10


class TestEstimateConstant:
    def test_tiny_search_frozen_value(self):
        res = ex.estimate_constant("ratio4", TINY)
        assert res.ratio == pytest.approx(TINY_RATIO4, rel=1e-12)
        cap = gn.RATIO4_BOUND + ex.CEILING_SLACK
        assert TINY_RATIO4_PREVIOUS <= TINY_RATIO4 <= cap
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
        assert res.ratio == pytest.approx(want, rel=1e-12)


class TestRandomBatch:
    def test_frozen_maxima_and_ceilings(self):
        b4 = ex.random_ratio_batch("ratio4", count=2000, dimension=8,
                                   seed=5, grid_n=1025)
        assert b4["max"] == pytest.approx(BATCH4_MAX, rel=1e-12)
        assert BATCH4_MAX <= gn.RATIO4_BOUND + ex.CEILING_SLACK
        assert b4["max"] <= gn.RATIO4_BOUND + 1e-3
        assert b4["degenerate"] == 0
        b6 = ex.random_ratio_batch("ratio6", count=2000, dimension=8,
                                   seed=5, grid_n=1025)
        assert b6["max"] == pytest.approx(BATCH6_MAX, rel=1e-12)
        assert BATCH6_MAX <= gn.RATIO6_BOUND + ex.CEILING_SLACK
        assert b6["max"] <= gn.RATIO6_BOUND + 1e-3

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

    @pytest.mark.parametrize("grid_n", [2051, 4095])
    def test_ratio_half_stride_must_keep_the_end_node(self, grid_n):
        with pytest.raises(ParameterError):
            ex.random_ratio_batch("ratio-half", count=4, grid_n=grid_n)

    def test_ratio_half_strided_grid_is_the_coarse_grid(self):
        """4097 nodes subsampled by 8 are the 513-node grid of [0, 1]."""
        fine = ex.random_ratio_batch("ratio-half", count=4, seed=3, grid_n=4097)
        coarse = ex.random_ratio_batch("ratio-half", count=4, seed=3,
                                       grid_n=513)
        assert fine["max"] == pytest.approx(coarse["max"], rel=1e-12)
        assert fine["mean"] == pytest.approx(coarse["mean"], rel=1e-12)


class TestPolynomialForms:
    """The ratio4/ratio6 search objectives as polynomial forms against the
    grid objective, which is their oracle."""

    @staticmethod
    def assert_forms_match_grid(target, dimension, n, count):
        grid, basis = ex._grid_objective(target, dimension, n)
        form = ex._form_objective(target, dimension, n)
        rng = np.random.default_rng([dimension, n])
        coeffs = rng.standard_normal((count, dimension))
        coeffs = list(coeffs / np.linalg.norm(coeffs, axis=1)[:, None])
        coeffs += [c / np.linalg.norm(c) for c in ex.warm_starts(basis[0])]
        want = np.array([grid(c) for c in coeffs])
        assert np.all(want > 0.0)
        np.testing.assert_allclose([form(c) for c in coeffs], want,
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

    @pytest.mark.parametrize("target,dimension,size", [
        ("ratio4", 16, 81), ("ratio6", 8, 98), ("ratio6", 16, 266)])
    def test_only_overlapping_monomials_are_kept(self, target, dimension,
                                                 size):
        degree = len(ex._TAG_FORMS[target][0])
        monos = ex._monomials(dimension, degree)
        assert monos.shape == (degree, size)
        assert np.all(np.diff(monos, axis=0) >= 0)
        assert np.all(monos[-1] - monos[0] <= ex.SPLINE_DEGREE)

    @pytest.mark.parametrize("target,dimension,n,forms", [
        ("ratio4", 16, 4097, True), ("ratio6", 8, 1025, True),
        ("ratio4", 16, 65, False), ("ratio6", 32, 4097, False),
        ("ratio4", 6, 4097, False), ("ratio6", 7, 4097, False),
        ("ratio-half", 8, 4097, False)])
    def test_forms_run_where_factors_are_no_larger_than_the_stack(
            self, target, dimension, n, forms):
        ratio, _ = ex._make_objective(target, dimension, n)
        assert ("_form_objective" in ratio.__qualname__) == forms


class TestSweep:
    CFG = ex.SearchConfig(restarts=2, budget=60, tol=1e-10, seed=1,
                          dimension=8, grid_n=513, report_grid_n=1025)

    def test_search_rows_for_worked_tuples(self):
        rows = ex.sweep([gn.l6_params(1), "ratio4"], self.CFG)
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert all(r["ratio"] > 0 for r in rows)

    def test_infeasible_dict_becomes_skipped_row(self):
        bad = {"p": 11, "q": 2, "r": "inf", "ks": (0, 1, 2), "j": 2,
               "m": 3, "theta": 0.5}
        rows = ex.sweep([bad], self.CFG)
        assert rows[0]["status"] == "skipped"
        assert rows[0]["note"]

    def test_corpus_mode_names_argmax(self):
        rows = ex.sweep(["ratio6"], self.CFG, mode="corpus")
        assert rows[0]["status"] == "ok"
        assert rows[0]["argmax"] in [n for n, _ in fs.standard_corpus()]

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            ex.sweep(["ratio4"], self.CFG, mode="extrapolate")
