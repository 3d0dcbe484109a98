"""Candidate space, ratio objectives, and the restart search."""

import numpy as np
import pytest

import gnlab.extremal as ex
import gnlab.funcspace as fs
import gnlab.gn as gn
from gnlab.errors import ParameterError

TINY = ex.SearchConfig(restarts=3, budget=50, tol=1e-13, seed=11,
                       dimension=8, grid_n=1025, report_grid_n=2049)

# frozen outcome of the tiny deterministic search above; any drift means
# the optimizer, the seeding, or the spline evaluation changed
TINY_RATIO4 = 1.030365043330272
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


class TestCandidate:
    def test_dimension_and_normalization(self):
        c = ex.Candidate((3.0, 0.0, 0.0, 0.0, 0.0, 4.0))
        assert c.dimension == 6
        n = c.normalized()
        assert np.linalg.norm(n.coeffs) == pytest.approx(1.0, rel=1e-15)
        assert n.coeffs[0] == pytest.approx(0.6)

    def test_too_few_coefficients(self):
        with pytest.raises(ParameterError):
            ex.Candidate((1.0, 2.0, 3.0))

    def test_zero_candidate_cannot_normalize(self):
        with pytest.raises(ParameterError):
            ex.Candidate((0.0,) * 8).normalized()

    def test_random_is_stream_deterministic(self):
        a = ex.Candidate.random(np.random.default_rng(3), 8)
        b = ex.Candidate.random(np.random.default_rng(3), 8)
        assert a.coeffs == b.coeffs

    def test_function_round_trip(self):
        c = ex.Candidate((0.5, -0.5, 0.25, 0.1, -0.2, 0.3, 0.4, -0.1))
        f = c.function()
        assert isinstance(f, fs.SplineBump)


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

    def test_echo_round_trip(self):
        cfg = ex.SearchConfig(restarts=2, budget=10)
        echo = cfg.echo()
        assert echo["restarts"] == 2
        assert echo["budget"] == 10


class TestEstimateConstant:
    def test_tiny_search_frozen_value(self):
        res = ex.estimate_constant("ratio4", TINY)
        assert res.ratio == pytest.approx(TINY_RATIO4, rel=1e-12)
        assert res.degenerate == 0
        assert res.evaluations > 0

    def test_search_is_deterministic(self):
        a = ex.estimate_constant("ratio4", TINY)
        b = ex.estimate_constant("ratio4", TINY)
        assert a.ratio == b.ratio
        assert a.candidate.coeffs == b.candidate.coeffs
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


class TestRandomBatch:
    def test_frozen_maxima_and_ceilings(self):
        b4 = ex.random_ratio_batch("ratio4", count=2000, dimension=8,
                                   seed=5, grid_n=1025)
        assert b4["max"] == pytest.approx(BATCH4_MAX, rel=1e-12)
        assert b4["max"] <= gn.RATIO4_BOUND + 1e-3
        assert b4["degenerate"] == 0
        b6 = ex.random_ratio_batch("ratio6", count=2000, dimension=8,
                                   seed=5, grid_n=1025)
        assert b6["max"] == pytest.approx(BATCH6_MAX, rel=1e-12)
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
