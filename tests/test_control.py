"""Chain integrator, terminal quadrature identity, and the experiments.

The bump-triple family admits exact chain states, which turns the
integrator tests into oracle comparisons instead of self-consistency
checks.
"""

import dataclasses
import re
from collections import deque
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import simpson

import gnlab.control as ct
import gnlab.funcspace as fs
from gnlab import norms
from gnlab.errors import (DivergenceError, InvariantError, ParameterError,
                          PreconditionError)
from oracles import chain_states, scaled_triple_reference

BUMP_LAW = ct.ScaledBumpTriple(1e-2, 0.0)

# integral of (chi chi' chi'')^2 over the unit interval
A_COEFF = 2.7681078727489874e-08
# integrals of (chi'')^p; the odd powers are negative
B3_COEFF = -0.0024729150134523634
B12_COEFF = 0.0003216538943517258

# frozen experiment outcomes (seeded, fixed steps)
SLOPE_P7_A03 = 9.400002296087234
SLOPE_P7_A0 = 6.001643238016918
OBSTRUCTION_WORST_ETA08 = 0.4652626845318684
OBSTRUCTION_WORST_P13 = 0.9674138597522465
BOUNDARY_WORST_ETA1 = -0.1639309643445931


def swept_chain(w_stages, T, steps, p):
    """Every state of the sweep of stored controls (2*steps+1, batch)."""
    return chain_states(ct._rk4_blocks(lambda a, b: w_stages[a:b],
                                       w_stages.shape[1], T, steps, p))


def trajectory(law, steps, p=3):
    """Node times and states (4, steps+1) of `integrate` on [0, 1]."""
    states = chain_states(ct.integrate(ct.ControlSystem(p, 1.0), [law], steps))
    return np.linspace(0.0, 1.0, steps + 1), states[:, :, 0]


def stepwise_rk4_chain(w_stages, T, steps, p):
    """Reference: the step-by-step RK4 loop that `_rk4_blocks` sweeps in
    blocks; no divergence check, non-finite states propagate."""
    h = T / steps
    out = np.zeros((4, steps + 1, w_stages.shape[1]))

    def rhs(w, y):
        # y1^p as the sweep evaluates it: |y1|^p, y1's sign for odd p
        mag = np.abs(y[0]) ** p
        return np.stack([w, y[0], y[1], (y[0] * y[1] * y[2]) ** 2 - (
            np.copysign(mag, y[0]) if p % 2 else mag)])

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(steps):
            wa, wm, wb = w_stages[2 * n:2 * n + 3]
            x = out[:, n]
            a = rhs(wa, x)
            b = rhs(wm, x + 0.5 * h * a)
            c = rhs(wm, x + 0.5 * h * b)
            d = rhs(wb, x + h * c)
            out[:, n + 1] = x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
    return out


class TestSystemAndLaws:
    def test_system_validation(self):
        with pytest.raises(ParameterError):
            ct.ControlSystem(0, 1.0)
        with pytest.raises(ParameterError):
            ct.ControlSystem(2.5, 1.0)
        with pytest.raises(ParameterError):
            ct.ControlSystem(3, 0.0)
        with pytest.raises(ParameterError):
            ct.ControlSystem(3, float("inf"))

    def test_p_is_an_order_not_a_bool(self):
        """A numpy integer is an exponent, a bool is not, through the
        system and both experiments that take p."""
        sys_ = ct.ControlSystem(np.int64(3), 1.0)
        assert sys_.p == 3 and type(sys_.p) is int
        rep = ct.scaling_experiment(np.int64(7), 0.0, [1e-3], steps=64)
        assert type(rep.p) is int
        rep = ct.obstruction_check(np.int64(12), 1.0, 0.5, trials=2,
                                   steps=64)
        assert type(rep.p) is int
        for flag in (True, np.bool_(True)):
            with pytest.raises(ParameterError):
                ct.ControlSystem(flag, 1.0)
            with pytest.raises(ParameterError):
                ct.scaling_experiment(flag, 0.0, [1e-3], steps=64)
            with pytest.raises(ParameterError):
                ct.obstruction_check(flag, 1.0, 0.5, trials=2, steps=64)

    def test_bump_triple_support(self):
        law = ct.ScaledBumpTriple(1e-4, 0.5)
        assert law.support_end == pytest.approx(1e-2)
        t = np.array([0.0, 5e-3, 2e-2])
        w = law(t)
        assert w[2] == 0.0  # outside the scaled support
        with pytest.raises(ParameterError):
            ct.ScaledBumpTriple(0.0)
        with pytest.raises(ParameterError):
            ct.ScaledBumpTriple(1e-2, -1.0)

    def test_grid_samples_validation(self):
        with pytest.raises(ParameterError):
            ct.GridSamples((0.0, 1.0, 0.0, 1.0), 1.0)  # even count
        with pytest.raises(ParameterError):
            ct.GridSamples((0.0, 1.0, 0.0), 1.0)  # too short
        with pytest.raises(ParameterError):
            ct.GridSamples((0.0, np.nan, 0.0, 1.0, 0.0), 1.0)
        with pytest.raises(ParameterError):
            ct.GridSamples((0.0,) * 5, 0.0)
        with pytest.raises(ParameterError):
            ct.GridSamples((0.0,) * 5, float("inf"))
        with pytest.raises(ParameterError):
            ct.GridSamples(np.zeros((5, 1)), 1.0)  # not one row

    def test_grid_samples_keep_a_read_only_float64_copy(self):
        vals = np.linspace(-1.0, 2.0, 9)
        law = ct.GridSamples(vals, 1.0)
        vals[0] = 7.0
        assert law.values.dtype == np.float64 and law.values[0] == -1.0
        with pytest.raises(ValueError):
            law.values[0] = 0.0
        desc = law.descriptor()
        assert desc == {"family": "grid-samples", "count": 9,
                        "horizon": 1.0, "sup": 2.0}
        assert type(desc["count"]) is int and type(desc["sup"]) is float
        assert np.array_equal(law(np.linspace(0.0, 1.0, 9)),
                              np.linspace(-1.0, 2.0, 9))

    def test_law_support_preconditions(self):
        sys_half = ct.ControlSystem(3, 0.5)
        with pytest.raises(PreconditionError):
            ct.integrate(sys_half, [BUMP_LAW], 128)  # support [0,1] > horizon
        with pytest.raises(PreconditionError):
            # every law is checked, not only the first
            ct.integrate(ct.ControlSystem(3, 1.0),
                         [ct.Zero(), ct.GridSamples((0.0,) * 5, 2.0)], 128)


class TestIntegrator:
    def test_zero_law_stays_at_origin(self):
        _, states = trajectory(ct.Zero(), 64)
        assert states.shape == (4, 65)
        assert np.all(states == 0.0)

    def test_chain_matches_exact_reference(self):
        times, states = trajectory(BUMP_LAW, 2048)
        ref = scaled_triple_reference(BUMP_LAW, times)
        assert np.max(np.abs(states[:3] - ref)) <= 1e-12

    def test_chain_matches_reference_with_scaling_exponent(self):
        law = ct.ScaledBumpTriple(1e-2, 0.5)
        times, states = trajectory(law, 4096)
        ref = scaled_triple_reference(law, times)
        assert np.max(np.abs(states[:3] - ref)) <= 1e-10

    def test_fourth_order_error_reduction(self):
        errs = []
        for steps in (1024, 2048, 4096):
            times, states = trajectory(BUMP_LAW, steps)
            ref = scaled_triple_reference(BUMP_LAW, times)
            errs.append(np.max(np.abs(states[:3] - ref)))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert min(ratios) >= 12.0

    def test_states_linear_in_control(self):
        vals = np.sin(np.linspace(0.0, 3.0, 513))
        _, base = trajectory(ct.GridSamples(tuple(vals), 1.0), 256)
        _, tripled = trajectory(ct.GridSamples(tuple(3.0 * vals), 1.0), 256)
        gap = np.max(np.abs(tripled[:3] - 3.0 * base[:3]))
        scale = np.max(np.abs(tripled[:3]))
        assert gap <= 100 * np.finfo(float).eps * scale

    def test_step_validation(self):
        with pytest.raises(ParameterError):
            ct.integrate(ct.ControlSystem(3, 1.0), [ct.Zero()], 1)
        with pytest.raises(ParameterError):
            ct.integrate(ct.ControlSystem(3, 1.0), [], 64)

    def test_divergence_reports_step_index(self):
        huge = ct.GridSamples((0.0, 1e80, 1e80, 1e80, 0.0), 1.0)
        with pytest.raises(DivergenceError) as err:
            trajectory(huge, 256, p=12)
        assert 1 <= err.value.step <= 256

    @pytest.mark.parametrize("steps", [256, 5000])
    def test_divergence_reports_first_step(self, steps):
        huge = ct.GridSamples((0.0, 1e80, 1e80, 1e80, 0.0), 1.0)
        with pytest.raises(DivergenceError) as err:
            trajectory(huge, steps, p=12)
        assert err.value.step == 1

    def test_divergence_in_later_block_matches_stepwise(self, monkeypatch):
        monkeypatch.setattr(ct, "_BLOCK_ENTRIES", 16)
        late = ct.GridSamples((0.0, 0.0, 0.0, 1e80, 0.0), 1.0)
        steps = 256
        w = late(np.linspace(0.0, 1.0, 2 * steps + 1))[:, None]
        ref = stepwise_rk4_chain(w, 1.0, steps, 12)
        bad = ~(np.isfinite(ref[0, :, 0]) & np.isfinite(ref[3, :, 0]))
        first = int(np.argmax(bad))
        assert first > 16
        with pytest.raises(DivergenceError) as err:
            swept_chain(w, 1.0, steps, 12)
        assert err.value.step == first


class TestPowerRule:
    """x1^p as |x1|^p with the sign restored for odd p."""

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 12, 13])
    def test_within_one_ulp_of_exact_power(self, p):
        rng = np.random.default_rng(p)
        y = (rng.choice([-1.0, 1.0], 2000)
             * np.exp(rng.uniform(-8.0, 2.0, 2000)))
        got = ct._power(y, p)
        for v, g in zip(y, got):
            exact = Fraction(float(v)) ** p
            ulp = Fraction(float(np.spacing(abs(float(exact)))))
            assert abs(Fraction(float(g)) - exact) <= ulp

    def test_first_power_is_the_identity(self):
        y = np.random.default_rng(1).standard_normal(1000)
        y[:2] = [0.0, -0.0]
        got = ct._power(y, 1)
        assert np.array_equal(got, y)
        assert np.array_equal(np.signbit(got), np.signbit(y))

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 12, 13])
    def test_signed_zeros_infinities_and_nan_match_float_power(self, p):
        y = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        got = ct._power(y, p)
        assert np.array_equal(got, y ** p, equal_nan=True)
        assert np.array_equal(np.signbit(got[:4]), np.signbit(y[:4] ** p))


class TestSweepMatchesStepwise:
    """The block sweep reproduces the stepwise scheme float for float."""

    @pytest.mark.parametrize("p", [1, 7, 12])
    @pytest.mark.parametrize("batch", [1, 5, 100])
    def test_bit_identical_across_block_edges(self, monkeypatch, p, batch):
        rows = 16
        monkeypatch.setattr(ct, "_BLOCK_ENTRIES", rows * batch)
        rng = np.random.default_rng([p, batch])
        for steps in (rows - 5, rows, rows + 1, 3 * rows + 7):
            w = rng.standard_normal((2 * steps + 1, batch))
            assert np.array_equal(swept_chain(w, 1.0, steps, p),
                                  stepwise_rk4_chain(w, 1.0, steps, p))

    def test_bit_identical_at_module_block_size(self):
        # a batch wide enough that the module's own budget gives 8 rows
        batch = ct._BLOCK_ENTRIES // 8
        rng = np.random.default_rng(3)
        for steps in (9, 13):
            w = rng.standard_normal((2 * steps + 1, batch))
            assert np.array_equal(swept_chain(w, 1.0, steps, 12),
                                  stepwise_rk4_chain(w, 1.0, steps, 12))

    @pytest.mark.floor
    @pytest.mark.parametrize("steps", [97, 1000])
    def test_a_set_of_laws_sweeps_as_each_law_alone(self, monkeypatch, steps):
        """`integrate` over a bump, the zero law and a grid law gives, in
        each law's column of every block, that law's own sweep float for
        float: a set of laws is a batch of independent runs."""
        sys_ = ct.ControlSystem(7, 1.0)
        wave = np.sin(np.linspace(0.0, 9.0, 2 * steps + 1))
        laws = [ct.ScaledBumpTriple(1e-2, 0.3), ct.Zero(),
                ct.GridSamples(wave, 1.0)]

        def blocks(laws):
            # blocks of 16 steps whatever the batch, so the spans align
            monkeypatch.setattr(ct, "_BLOCK_ENTRIES", 16 * len(laws))
            return [(lo, block.copy())
                    for lo, block in ct.integrate(sys_, laws, steps)]

        together = blocks(laws)
        assert len(together) > 2
        for col, law in enumerate(laws):
            alone = blocks([law])
            assert [lo for lo, _ in alone] == [lo for lo, _ in together]
            for (_, one), (_, many) in zip(alone, together):
                assert np.array_equal(one[..., 0], many[..., col])


@pytest.mark.floor
class TestStreamedReductions:
    """What each command reduces from each block as it is swept equals its
    value from the stored states."""

    @pytest.mark.parametrize("batch", [1, 2, 5, 100])
    @pytest.mark.parametrize("steps", [11, 96, 97, 99, 1000, 1001])
    @pytest.mark.parametrize("rows", [16, 15])
    def test_obstruction_sums_match_stored_states(self, monkeypatch, batch,
                                                  steps, rows):
        # blocks of 16 or 14 steps (an odd count rounds down), so every
        # run of more than 17 steps spans several
        monkeypatch.setattr(ct, "_BLOCK_ENTRIES", rows * batch)
        rng = np.random.default_rng([batch, steps])
        w = 0.5 * rng.standard_normal((2 * steps + 1, batch))
        states = swept_chain(w, 1.0, steps, 12)
        pos, neg, scale, terminal = ct._obstruction_sums(
            lambda a, b: w[a:b], batch, 1.0, steps, 12)
        h = 1.0 / steps
        assert np.array_equal(
            pos, norms.simpson((states[0] * states[1] * states[2]) ** 2, h))
        assert np.array_equal(neg, norms.simpson(np.abs(states[0]) ** 12, h))
        assert np.array_equal(
            scale, np.maximum(np.max(np.abs(states[:3]), axis=(0, 1)), 1.0))
        assert np.array_equal(terminal, states[:, -1])

    @pytest.mark.parametrize("p", [3, 7, 12])
    @pytest.mark.parametrize("steps", [1000, 1001])
    def test_formula_and_p1_match_stored_states(self, monkeypatch, p, steps):
        # blocks of 16 steps, so each run spans 62; the odd step count
        # takes the last-interval correction
        monkeypatch.setattr(ct, "_BLOCK_ENTRIES", 16)
        law = ct.ScaledBumpTriple(1e-3, 0.0)
        chk = ct.terminal_formula_check(ct.ControlSystem(p, 1.0), law, steps)
        _, (x1, x2, x3, x4) = trajectory(law, steps, p)
        h = 1.0 / steps
        assert chk["quadrature"] == (norms.simpson((x3 * x2 * x1) ** 2, h)
                                     - norms.simpson(ct._power(x1, p), h))
        assert chk["x4_terminal"] == x4[-1]
        assert chk["terminal_triple"] == np.abs([x1, x2, x3])[:, -1].tolist()
        # seed 2 gives a law whose x2 + x4 drops by roundoff at both counts
        out = ct.monotone_check_p1(1.0, steps, seed=2)
        assert out["worst_drop"] < 0.0
        for law, row in zip(ct.default_p1_laws(1.0, steps, 2), out["rows"]):
            _, states = trajectory(law, steps, p=1)
            seq = states[1] + states[3]
            scale = max(1.0, float(np.max(np.abs(seq))))
            assert row["worst_drop"] == min(0.0, np.diff(seq).min()) / scale

    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("steps", [1000, 1001])
    def test_scaling_terminal_row_matches_stored_states(self, monkeypatch,
                                                       count, steps):
        monkeypatch.setattr(ct, "_BLOCK_ENTRIES", 16 * count)
        eps = np.geomspace(1e-2, 1e-1, count)
        rep = ct.scaling_experiment(7, 0.3, eps, steps=steps)
        stage_t = np.linspace(0.0, 1.0, 2 * steps + 1)
        w = np.stack([ct.ScaledBumpTriple(e, 0.3)(stage_t) for e in eps],
                     axis=1)
        x4 = swept_chain(w, 1.0, steps, 7)[3, -1]
        assert [v for _, v, _ in rep.rows] == x4.tolist()

    @pytest.mark.parametrize("steps", [2, 3, 16, 17, 18, 33, 48, 49])
    def test_blocks_cover_the_steps_in_even_runs(self, monkeypatch, steps):
        # 17 rows round down to 16, so that no Simpson pair straddles two
        monkeypatch.setattr(ct, "_BLOCK_ENTRIES", 17)
        w = np.zeros((2 * steps + 1, 1))
        spans = [(lo, block.shape[1] - 1)
                 for lo, block in ct._rk4_blocks(lambda a, b: w[a:b], 1, 1.0,
                                                 steps, 3)]
        starts = [lo for lo, _ in spans]
        assert starts == [0] + [lo + m for lo, m in spans[:-1]]
        assert sum(m for _, m in spans) == steps
        assert all(m == 16 for _, m in spans[:-1])
        assert 2 <= spans[-1][1] <= 17


class TestTerminalFormula:
    def test_p3_residual_and_value(self):
        chk = ct.terminal_formula_check(ct.ControlSystem(3, 1.0), BUMP_LAW,
                                        steps=2 ** 14)
        assert chk["residual"] <= 1e-4
        # x4(T) = eps^6 A - eps^3 B_3 with the B_3 term dominating
        eps = 1e-2
        expect = eps ** 6 * A_COEFF - eps ** 3 * B3_COEFF
        assert chk["x4_terminal"] == pytest.approx(expect, rel=1e-8, abs=0.0)

    def test_p12_residual_and_value(self):
        chk = ct.terminal_formula_check(ct.ControlSystem(12, 1.0), BUMP_LAW,
                                        steps=2 ** 14)
        assert chk["residual"] <= 1e-4
        eps = 1e-2
        expect = eps ** 6 * A_COEFF - eps ** 12 * B12_COEFF
        assert chk["x4_terminal"] == pytest.approx(expect, rel=1e-10, abs=0.0)

    def test_zero_law_trivial(self):
        chk = ct.terminal_formula_check(ct.ControlSystem(3, 1.0), ct.Zero(),
                                        steps=256)
        assert chk["x4_terminal"] == 0.0
        assert chk["residual"] == 0.0

    def test_requires_returned_chain(self):
        # a ramp control leaves x1(T) far from zero
        ramp = ct.GridSamples(tuple(np.linspace(0.0, 1.0, 513)), 1.0)
        with pytest.raises(PreconditionError):
            ct.terminal_formula_check(ct.ControlSystem(3, 1.0), ramp,
                                      steps=256)

    def test_residual_shrinks_under_refinement(self):
        res = [ct.terminal_formula_check(ct.ControlSystem(3, 1.0), BUMP_LAW,
                                         steps=s)["residual"]
               for s in (2 ** 10, 2 ** 12, 2 ** 14)]
        assert res[2] < res[0]


class TestExpectedTerms:
    def test_bump_integrals(self):
        for p, coeff in ((3, B3_COEFF), (12, B12_COEFF)):
            quadratic, power = ct.bump_integrals(p)
            assert quadratic == pytest.approx(A_COEFF, rel=1e-12, abs=0.0)
            assert power == pytest.approx(coeff, rel=1e-12, abs=0.0)
        # odd powers inherit the sign of the dominant negative lobe
        assert ct.bump_integrals(7)[1] < 0

    def test_exponent_selection(self):
        t = ct.expected_terms(7, 0.3)
        assert t["exponent_quadratic"] == pytest.approx(9.9)
        assert t["exponent_power"] == pytest.approx(9.4)
        assert t["expected_slope"] == pytest.approx(9.4)
        # the power term dominates and its coefficient is negative, so
        # x4 = ... - eps^9.4 B_7 > 0
        assert t["expected_sign"] == 1

        t0 = ct.expected_terms(12, 0.0)
        assert t0["expected_slope"] == pytest.approx(6.0)
        assert t0["expected_sign"] == 1


class TestScalingExperiment:
    def test_frozen_slope_a03(self):
        eps = np.geomspace(1e-4, 1e-2, 5)
        rep = ct.scaling_experiment(7, 0.3, eps, steps=2 ** 14)
        assert rep.slope == pytest.approx(SLOPE_P7_A03, rel=1e-12, abs=0.0)
        assert rep.slope == pytest.approx(rep.expected_slope, abs=0.05)
        assert all(s == rep.expected_sign for _, _, s in rep.rows)

    def test_frozen_slope_a0(self):
        eps = np.geomspace(1e-8, 1e-6, 5)
        rep = ct.scaling_experiment(7, 0.0, eps, steps=2 ** 14)
        assert rep.slope == pytest.approx(SLOPE_P7_A0, rel=1e-12, abs=0.0)
        assert rep.slope == pytest.approx(6.0, abs=0.05)
        assert all(s == 1 for _, _, s in rep.rows)

    def test_single_point_has_no_slope(self):
        rep = ct.scaling_experiment(7, 0.0, [1e-3], steps=2 ** 10)
        assert rep.slope is None
        assert len(rep.rows) == 1

    def test_epsilon_validation(self):
        with pytest.raises(ParameterError):
            ct.scaling_experiment(7, 0.0, [], steps=64)
        with pytest.raises(ParameterError):
            ct.scaling_experiment(7, 0.0, [1e-4, 1e-3, 5e-3], steps=64)
        with pytest.raises(PreconditionError):
            # support eps^a = 0.1^0 exceeds ... wait, a=0 gives support 1
            ct.scaling_experiment(7, 0.5, [0.25, 0.5, 1.0], T=0.5,
                                  steps=64)

    def test_csv_rows_match_report(self):
        eps = np.geomspace(1e-4, 1e-3, 3)
        rep = ct.scaling_experiment(7, 0.3, eps, steps=2 ** 10)
        rows = rep.csv_rows()
        assert len(rows) == 3
        assert rows[0][0] == pytest.approx(1e-4)


class TestObstruction:
    def test_frozen_pass_inside_budget(self):
        rep = ct.obstruction_check(12, 1.0, 0.8, trials=100, seed=7,
                                   steps=2 ** 13)
        assert rep.passed
        assert rep.worst == pytest.approx(OBSTRUCTION_WORST_ETA08,
                                          rel=1e-12, abs=0.0)
        assert len(rep.margins) == 100
        assert rep.skipped == ()

    def test_frozen_pass_p13(self):
        rep = ct.obstruction_check(13, 2.0, 0.7, trials=100, seed=7,
                                   steps=2 ** 13)
        assert rep.passed
        assert rep.worst == pytest.approx(OBSTRUCTION_WORST_P13,
                                          rel=1e-12, abs=0.0)

    def test_boundary_budget_admits_negative_margin(self):
        """At the exact budget boundary the sign claim fails for some
        draws: the negative terminal value is stable under refinement and
        matches a closed-form chain evaluation, so it is not an artifact.
        """
        rep = ct.obstruction_check(12, 1.0, 1.0, trials=70, seed=7,
                                   steps=2048)
        assert not rep.passed
        assert rep.worst == pytest.approx(BOUNDARY_WORST_ETA1,
                                          rel=1e-9, abs=0.0)
        assert rep.worst_trial == 67

    def test_budget_and_parameter_validation(self):
        with pytest.raises(ParameterError):
            ct.obstruction_check(13, 2.0, 1.0)  # budget 2 > 1
        with pytest.raises(ParameterError):
            ct.obstruction_check(11, 1.0, 0.5)
        with pytest.raises(ParameterError):
            ct.obstruction_check(12, 1.0, 0.5, trials=0)

    def test_projection_product_matches_per_row_simpson(self):
        # the targets are summed over the sweep's blocks of stage rows
        T, steps = 1.0, 2 ** 13
        stage_t = np.linspace(0.0, T, 2 * steps + 1)
        sines, coeffs = ct._noise_modes(stage_t, T, 100, 7)
        got = ct._terminal_targets(lambda a, b: sines[a:b] @ coeffs,
                                   stage_t, T, 100)
        w = sines @ coeffs
        weights = np.stack([np.ones_like(stage_t), T - stage_t,
                            0.5 * (T - stage_t) ** 2])[:, :, None]
        dx = T / (2 * steps)
        ref = simpson(weights * w, dx=dx, axis=1)
        scale = simpson(np.abs(weights * w), dx=dx, axis=1)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    @pytest.mark.floor
    @pytest.mark.parametrize("trials", [1, 7])
    @pytest.mark.parametrize("steps", [1000, 1001])
    def test_streamed_controls_have_sup_eta_and_meet_the_constraints(
            self, monkeypatch, trials, steps):
        """The controls the sweep reads, built a block at a time (here
        about 60 blocks), are what the check defines: each trial's sup is
        eta, and its terminal functionals x1(T), x2(T), x3(T) vanish."""
        monkeypatch.setattr(ct, "_BLOCK_ENTRIES", 16 * trials)
        eta = 0.8
        w = np.full((2 * steps + 1, trials), np.nan)
        sweep = ct._rk4_blocks

        def recorded(rows, batch, T, steps, p):
            def read(a, b):
                out = rows(a, b)
                w[a:b] = out
                return out
            return sweep(read, batch, T, steps, p)

        monkeypatch.setattr(ct, "_rk4_blocks", recorded)
        ct.obstruction_check(12, 1.0, eta, trials, seed=3, steps=steps)
        assert not np.isnan(w).any()
        sup = np.max(np.abs(w), axis=0)
        assert np.all(np.abs(sup - eta) <= np.spacing(eta))
        stage_t = np.linspace(0.0, 1.0, 2 * steps + 1)
        weights = np.stack([np.ones_like(stage_t), 1.0 - stage_t,
                            0.5 * (1.0 - stage_t) ** 2])[:, :, None]
        functionals = simpson(weights * w, dx=1.0 / (2 * steps), axis=1)
        states = swept_chain(w, 1.0, steps, 12)
        chain_scale = np.maximum(np.max(np.abs(states[:3]), axis=(0, 1)), 1.0)
        assert np.all(np.abs(functionals) <= 1e-12 * chain_scale)

    @pytest.mark.floor
    def test_controls_are_never_stored_whole(self):
        """README's run traces less than one copy of its stage controls,
        100 trials on 2 * 2^14 + 1 stage points."""
        np.random.default_rng(0)  # the first generator imports modules
        tracemalloc.start()
        try:
            ct.obstruction_check(12, 1.0, 0.8, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 100 * (2 * ct.DEFAULT_STEPS + 1)

    def test_skipped_trials_leave_margins_and_worst_trial(self, monkeypatch):
        """Trials whose chain did not return are skipped: the margins are
        the kept trials' in order, and the worst is indexed among all."""
        args = (12, 1.0, 0.8, 6, 7, 256)
        base = ct.obstruction_check(*args)
        sums = ct._obstruction_sums
        seen = {}

        def violate(trials):
            def patched(rows, batch, T, steps, p):
                pos, neg, scale, terminal = sums(rows, batch, T, steps, p)
                terminal = terminal.copy()
                terminal[0, trials] = 1.0  # x1(T) far above 1e-6 x scale
                seen["x4"] = terminal[3]
                return pos, neg, scale, terminal
            monkeypatch.setattr(ct, "_obstruction_sums", patched)

        # the base run's worst trial and one before it are skipped, so the
        # worst of the rest sits at a different place in the margins
        skip = sorted({0, base.worst_trial} if base.worst_trial else {0, 1})
        violate(skip)
        rep = ct.obstruction_check(*args)
        kept = [i for i in range(6) if i not in skip]
        assert rep.skipped == tuple(
            (i, "terminal constraint violated after projection")
            for i in skip)
        assert rep.margins == tuple(base.margins[i] for i in kept)
        worst = min(kept, key=lambda i: base.margins[i])
        assert rep.worst_trial == worst and type(rep.worst_trial) is int
        assert rep.worst == base.margins[worst]
        assert rep.worst_x4 == seen["x4"][worst]
        violate(list(range(6)))
        with pytest.raises(InvariantError):
            ct.obstruction_check(*args)

    def test_report_serializes(self):
        rep = ct.obstruction_check(12, 1.0, 0.5, trials=4, seed=1, steps=512)
        d = dataclasses.asdict(rep)
        assert len(d["margins"]) == 4
        assert d["eta"] == 0.5


class TestMonotoneP1:
    def test_default_corpus_passes(self):
        out = ct.monotone_check_p1(1.0, steps=2 ** 12, seed=0)
        assert out["passed"]
        assert out["worst_drop"] == 0.0
        assert len(out["rows"]) == 5

    def test_increments_nonnegative_up_to_state_roundoff(self):
        # stronger than the scalar summary: the sum x2+x4 cancels the
        # linear chain term, so each increment is a squared product up
        # to rounding of the two separately accumulated states
        law = ct.ScaledBumpTriple(5e-2, 0.0)
        _, states = trajectory(law, 1024, p=1)
        seq = states[1] + states[3]
        ulp_scale = np.finfo(float).eps * np.max(np.abs(states[1]))
        assert np.min(np.diff(seq)) >= -32 * ulp_scale
        assert seq[-1] > 0.0


# the control runs of the README, as library calls, a one-trial one, a
# wide scaling batch, `control integrate` and `formula` at their defaults,
# and one law on half the horizon through `formula` and `scaling`
_README_CHAINS = {
    "integrate": lambda: deque(ct.integrate(ct.ControlSystem(3, 1.0),
                                            [BUMP_LAW]), maxlen=0),
    "formula": lambda: ct.terminal_formula_check(ct.ControlSystem(3, 1.0),
                                                 BUMP_LAW),
    # a bump law on half the horizon, [0, 0.1^0.3], as a formula check and
    # as a scaling run: the two price it by the same rule
    "formula-half": lambda: ct.terminal_formula_check(
        ct.ControlSystem(7, 1.0), ct.ScaledBumpTriple(0.1, 0.3)),
    "scaling-half": lambda: ct.scaling_experiment(7, 0.3, [0.1]),
    "scaling": lambda: ct.scaling_experiment(7, 0.3,
                                             np.geomspace(1e-4, 1e-2, 5)),
    # 40 controls: the batch, not one law's evaluation, is the peak
    "scaling-40": lambda: ct.scaling_experiment(7, 0.3,
                                                np.geomspace(1e-4, 1e-2, 40)),
    # one control whose support [0, eps^a] is a quarter of the horizon: the
    # law is counted on that share of the grid only
    "scaling-1": lambda: ct.scaling_experiment(7, 0.3, [1e-2]),
    "obstruction": lambda: ct.obstruction_check(12, 1.0, 0.8, 100),
    # one trial: the noise's sine matrix, not the chain, is the peak
    "obstruction-1": lambda: ct.obstruction_check(12, 1.0, 0.8, 1),
    "p1": lambda: ct.monotone_check_p1(),
}


@pytest.mark.parametrize("name", list(_README_CHAINS))
def test_chain_footprint_is_between_the_traced_peak_and_twice_it(
        name, monkeypatch):
    """check_chain_size counts what a run really holds at its peak, and
    not much more: the bytes it refuses a run for lie between the run's
    tracemalloc peak and twice that."""
    run = _README_CHAINS[name]
    # the first generator imports secrets and hashlib, and the scaling
    # runs' coefficient integrals are cached on first use; they are module
    # state, not the run's arrays, so they are loaded before tracing
    np.random.default_rng(0)
    ct.expected_terms(7, 0.3)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(fs, "BYTES_CAP", 0)
    with pytest.raises(ParameterError) as refused:
        run()
    need = int(re.search(r"needs (\d+) bytes", str(refused.value)).group(1))
    assert peak <= need <= 2 * peak
