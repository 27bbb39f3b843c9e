"""Nested min-sup solver over estimator families."""

import numpy as np
import pytest

from minmax_lab.errors import InsufficientLossesError
from minmax_lab.losses import Power, scale_loss
from minmax_lab.minimax import (
    AffineMeanFamily,
    MedianShiftFamily,
    SolveOptions,
    realizability_report,
    solve_minimax,
    worst_case_at,
)
from minmax_lab.model import GaussianLocationModel, Interval

from oracles import affine_l2_worst, affine_l4_worst, scan_min

M1 = GaussianLocationModel(n=1)
THETA3 = Interval(-3, 3)
FAMILY = AffineMeanFamily(gamma_range=Interval(0, 1.5), beta_range=Interval(-1, 1))

# cheaper settings for tests that re-solve several times
FAST = SolveOptions(restarts=3, grid=64)


class TestAffineMinimax:
    def test_bounded_interval_l2(self):
        result = solve_minimax(M1, FAMILY, Power(2, 1), THETA3)
        gamma, beta = result.best_params
        # oracle: minimize over gamma the closed-form sup, beta = 0 by symmetry
        oracle_gamma, oracle_value = scan_min(
            lambda g: affine_l2_worst(g, 0.0, 3.0)[0], 0.5, 1.2
        )
        assert gamma == pytest.approx(oracle_gamma, abs=0.005)
        assert beta == pytest.approx(0.0, abs=0.005)
        assert result.minimax_value == pytest.approx(oracle_value, abs=0.005)
        assert gamma == pytest.approx(0.9, abs=0.005)
        assert result.minimax_value == pytest.approx(0.9, abs=0.005)
        assert result.converged

    def test_wide_interval_forces_identity_weight(self):
        result = solve_minimax(
            M1, FAMILY, Power(2, 1), Interval(-50, 50), SolveOptions(restarts=3, grid=64)
        )
        gamma, _ = result.best_params
        assert gamma == pytest.approx(1.0, abs=0.02)
        assert result.minimax_value == pytest.approx(1.0, abs=0.02)

    def test_quartic_loss_against_scan_oracle(self):
        result = solve_minimax(M1, FAMILY, Power(4, 1), THETA3)
        oracle_gamma, oracle_value = scan_min(
            lambda g: affine_l4_worst(g, 0.0, 3.0), 0.5, 1.2
        )
        gamma, beta = result.best_params
        assert gamma == pytest.approx(oracle_gamma, abs=5e-4)
        assert beta == pytest.approx(0.0, abs=5e-4)
        assert result.minimax_value == pytest.approx(oracle_value, rel=1e-5)

    def test_value_matches_recomputed_worst_case(self):
        result = solve_minimax(M1, FAMILY, Power(2, 1), THETA3, FAST)
        recomputed = worst_case_at(M1, FAMILY, result.best_params, Power(2, 1), THETA3, FAST)
        assert result.minimax_value == pytest.approx(recomputed.sup_value, rel=1e-6)

    def test_certified_upper_bound(self):
        result = solve_minimax(M1, FAMILY, Power(2, 1), THETA3, FAST)
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = (rng.uniform(0, 1.5), rng.uniform(-1, 1))
            other = worst_case_at(M1, FAMILY, params, Power(2, 1), THETA3, FAST)
            assert result.minimax_value <= other.sup_value + 1e-9

    def test_deterministic_given_options(self):
        a = solve_minimax(M1, FAMILY, Power(2, 1), THETA3, FAST)
        b = solve_minimax(M1, FAMILY, Power(2, 1), THETA3, FAST)
        assert a.best_params == b.best_params
        assert a.minimax_value == b.minimax_value


class TestMedianShift:
    def test_symmetric_loss_centers_the_shift(self):
        model = GaussianLocationModel(n=11)
        family = MedianShiftFamily(beta_range=Interval(-1, 1))
        result = solve_minimax(
            model, family, Power(2, 1), THETA3, SolveOptions(restarts=3, grid=32, seed=5)
        )
        (beta,) = result.best_params
        assert beta == pytest.approx(0.0, abs=0.01)
        # at the optimum the value is the Monte Carlo median risk itself
        assert result.minimax_value > 0


class TestRealizability:
    def test_distinct_losses_have_distinct_optima(self):
        report = realizability_report(M1, FAMILY, [Power(2, 1), Power(4, 1)], THETA3)
        d = report.param_distances[0][1]
        # oracle: the two 1-D scan minimizers differ by ~7.4e-3
        oracle_gap = abs(
            scan_min(lambda g: affine_l2_worst(g, 0.0, 3.0)[0], 0.5, 1.2)[0]
            - scan_min(lambda g: affine_l4_worst(g, 0.0, 3.0), 0.5, 1.2)[0]
        )
        assert d == pytest.approx(oracle_gap, abs=1e-3)
        assert d > 0.005

    def test_scaling_leaves_the_argmin(self):
        report = realizability_report(
            M1, FAMILY, [Power(2, 1), scale_loss(Power(2, 1), 7.0)], THETA3
        )
        base, scaled = report.results
        for x, y in zip(base.best_params, scaled.best_params):
            assert abs(x - y) < 1e-3
        assert scaled.minimax_value / base.minimax_value == pytest.approx(7.0, abs=1e-3)

    def test_single_loss_rejected(self):
        with pytest.raises(InsufficientLossesError):
            realizability_report(M1, FAMILY, [Power(2, 1)], THETA3)
