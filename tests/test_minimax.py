"""Nested min-sup solver over estimator families."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minmax_lab.exclusivity import check_exclusivity_partition
from minmax_lab.losses import Huber, Power, SumLoss
from minmax_lab.minimax import (
    AffineMeanFamily,
    MedianShiftFamily,
    solve_minimax,
)
from minmax_lab.model import GaussianLocationModel, Interval
from minmax_lab.risk import worst_case_risk

from oracles import (
    affine_l2_grid_min,
    affine_l2_worst,
    affine_l4_worst,
    quadpack_median_risk,
    scan_min,
)

M1 = GaussianLocationModel(n=1)
THETA3 = Interval(-3, 3)
FAMILY = AffineMeanFamily(gamma_range=Interval(0, 1.5), beta_range=Interval(-1, 1))


def recording(inner, seen):
    """`inner`, a profile evaluation (model, family, x, loss, ...), that
    also appends its x to `seen`."""
    def wrapper(model, family, x, *args, **kwargs):
        seen.append(x)
        return inner(model, family, x, *args, **kwargs)
    return wrapper


@pytest.fixture
def slope_passes(monkeypatch):
    """Every slope pass the minimax module makes, in order."""
    module = importlib.import_module("minmax_lab.minimax")
    inner, passes = module.profile_slopes, []

    def counting(*args, **kwargs):
        passes.append(inner(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(module, "profile_slopes", counting)
    return passes


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
        result = solve_minimax(M1, FAMILY, Power(2, 1), Interval(-50, 50))
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
        result = solve_minimax(M1, FAMILY, Power(2, 1), THETA3)
        recomputed = worst_case_risk(M1, FAMILY.make(result.best_params), Power(2, 1), THETA3)
        assert result.minimax_value == pytest.approx(recomputed.sup_value, rel=1e-6)

    def test_certified_upper_bound(self):
        result = solve_minimax(M1, FAMILY, Power(2, 1), THETA3)
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = (rng.uniform(0, 1.5), rng.uniform(-1, 1))
            other = worst_case_risk(M1, FAMILY.make(params), Power(2, 1), THETA3)
            assert result.minimax_value <= other.sup_value + 1e-9

    def test_deterministic_given_options(self):
        a = solve_minimax(M1, FAMILY, Power(2, 1), THETA3)
        b = solve_minimax(M1, FAMILY, Power(2, 1), THETA3)
        assert a.best_params == b.best_params
        assert a.minimax_value == b.minimax_value

    def test_default_l2_solve_is_exact_in_three_passes(self, slope_passes):
        result = solve_minimax(M1, FAMILY, Power(2, 1), THETA3)
        assert result.best_params[0] == pytest.approx(0.9, abs=1e-12)
        assert result.best_params[1] == 0.0
        assert len(slope_passes) == result.search_iterations <= 3
        assert result.converged

    @pytest.mark.parametrize(
        "gamma_hi, loss", [(1.5, Power(2, 1)), (0.85, Power(2, 1)), (1.5, Power(4, 1))]
    )
    def test_each_profile_worst_case_is_computed_once(self, monkeypatch, gamma_hi, loss):
        # slope passes and plain worst cases together: no x twice
        module = importlib.import_module("minmax_lab.minimax")
        xs = []
        for name in ("profile_slopes", "worst_case_on_profile"):
            monkeypatch.setattr(module, name, recording(getattr(module, name), xs))
        family = AffineMeanFamily(gamma_range=Interval(0, gamma_hi), beta_range=Interval(-1, 1))
        result = solve_minimax(M1, family, loss, THETA3)
        assert len(xs) == len(set(xs)) == result.search_iterations >= 1

    def test_gamma_face_optimum_is_exact(self, slope_passes):
        family = AffineMeanFamily(gamma_range=Interval(0, 0.85), beta_range=Interval(-1, 1))
        result = solve_minimax(M1, family, Power(2, 1), THETA3)
        assert result.best_params == (0.85, 0.0)
        assert result.minimax_value == pytest.approx(0.925, abs=1e-12)
        assert len(slope_passes) == result.search_iterations <= 3
        # the KKT face test: the profile still descends into the face
        assert result.worst_case.slopes[0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma_hi", [1.5, 0.85])
    def test_value_is_the_worst_case_at_the_optimum_bit_for_bit(self, gamma_hi):
        family = AffineMeanFamily(gamma_range=Interval(0, gamma_hi), beta_range=Interval(-1, 1))
        for loss in (Power(1.5, 1), Power(2, 1), Power(4, 1), Huber(1.0)):
            result = solve_minimax(M1, family, loss, THETA3)
            again = worst_case_risk(M1, family.make(result.best_params), loss, THETA3)
            assert (result.minimax_value, result.worst_case) == (again.sup_value, again)

    @pytest.mark.parametrize("maxiter", [1, 2])
    def test_maxiter_caps_the_passes(self, slope_passes, maxiter):
        result = solve_minimax(M1, FAMILY, Power(4, 1), THETA3, maxiter)
        assert len(slope_passes) == result.search_iterations == maxiter
        assert not result.converged
        # the best point evaluated, with its own worst case
        assert result.minimax_value == min(p.sup_value for p in slope_passes)

    @pytest.mark.parametrize("family", [FAMILY, MedianShiftFamily(beta_range=Interval(-1, 1))])
    @pytest.mark.parametrize("maxiter", [0, -3])
    def test_maxiter_below_one_is_refused(self, slope_passes, family, maxiter):
        with pytest.raises(ValueError, match=f"maxiter must be >= 1, got {maxiter}"):
            solve_minimax(M1, family, Power(2, 1), THETA3, maxiter=maxiter)
        assert slope_passes == []

    def test_slopes_at_gamma_zero_are_quotients(self, monkeypatch):
        # hw = 0.1 and sd = 4 put gamma* = hw^2 / (sd^2 + hw^2) near 0: the
        # first Newton step from gamma = 1 spans most of the piece, so the
        # search tries the face gamma = 0, where s = 0 and the slopes are
        # difference quotients, before it steps back in
        module = importlib.import_module("minmax_lab.minimax")
        xs = []
        monkeypatch.setattr(module, "profile_slopes", recording(module.profile_slopes, xs))
        model = GaussianLocationModel(n=1, sigma=4.0)
        result = solve_minimax(model, FAMILY, Power(2, 1), Interval(-0.1, 0.1))
        assert 0.0 in xs and result.converged
        assert result.best_params[0] == pytest.approx(0.01 / 16.01, abs=1e-12)

    @pytest.mark.parametrize(
        "loss", [Power(0.5, 1), SumLoss((Power(0.5, 1), Power(4, 0.1)))], ids=["p0.5", "sum"]
    )
    def test_nonconvex_loss_beats_2d_grid(self, loss):
        theta = Interval(-1, 5)
        result = solve_minimax(M1, FAMILY, loss, theta)
        grid_min = min(
            worst_case_risk(M1, FAMILY.make((g, b)), loss, theta).sup_value
            for g in np.linspace(0, 1.5, 41)
            for b in np.linspace(-1, 1, 41)
        )
        assert result.minimax_value <= grid_min + 1e-9

    @given(
        lo=st.floats(min_value=-4.0, max_value=3.0),
        width=st.floats(min_value=0.25, max_value=6.0),
        gamma_lo=st.floats(min_value=0.0, max_value=1.2),
        gamma_width=st.floats(min_value=0.05, max_value=1.5),
        beta_lo=st.floats(min_value=-2.0, max_value=1.5),
        beta_width=st.floats(min_value=0.05, max_value=2.0),
        n=st.sampled_from((1, 4, 25)),
        sigma=st.floats(min_value=0.5, max_value=2.0),
    )
    # the beta clip is active: the ridge beta = (1 - gamma) * 3 lies above the box
    @example(lo=1.0, width=4.0, gamma_lo=0.0, gamma_width=1.5, beta_lo=-1.0,
             beta_width=1.2, n=1, sigma=1.0)
    # gamma* = 9 / 10 lies above the gamma box: an optimum on the gamma face
    @example(lo=-3.0, width=6.0, gamma_lo=0.0, gamma_width=0.85, beta_lo=-1.0,
             beta_width=2.0, n=1, sigma=1.0)
    # kinks of the profiled objective that are its minimum: gamma = 1 under
    # a clipped beta, and the gamma = 0.85 where the clip at beta = 0.45 ends
    @example(lo=-2.0, width=3.0, gamma_lo=0.5, gamma_width=1.0, beta_lo=1.0,
             beta_width=1.0, n=1, sigma=1.0)
    @example(lo=1.0, width=4.0, gamma_lo=0.6, gamma_width=0.5, beta_lo=-1.0,
             beta_width=1.45, n=1, sigma=1.0)
    @settings(max_examples=50, deadline=None)
    def test_l2_against_closed_form_grid(
        self, lo, width, gamma_lo, gamma_width, beta_lo, beta_width, n, sigma
    ):
        theta = Interval(lo, lo + width)
        gamma_box = (gamma_lo, gamma_lo + gamma_width)
        beta_box = (beta_lo, beta_lo + beta_width)
        family = AffineMeanFamily(gamma_range=Interval(*gamma_box), beta_range=Interval(*beta_box))
        result = solve_minimax(GaussianLocationModel(n=n, sigma=sigma), family, Power(2, 1), theta)

        sd = sigma / math.sqrt(n)
        grid_min = affine_l2_grid_min(theta.lo, theta.hi, sd, gamma_box, beta_box)
        assert result.minimax_value <= grid_min + 1e-9

        # linear minimax (Donoho, Liu & MacGibbon 1990), clipped to the box;
        # where its beta is feasible it is the optimum over the whole box
        hw2 = (width / 2) ** 2
        gamma_star = min(max(hw2 / (sd**2 + hw2), gamma_box[0]), gamma_box[1])
        if beta_box[0] <= (1 - gamma_star) * theta.midpoint <= beta_box[1]:
            assert result.best_params[0] == pytest.approx(gamma_star, abs=1e-4)


class TestMedianShift:
    def test_symmetric_loss_centers_the_shift(self):
        model = GaussianLocationModel(n=11)
        family = MedianShiftFamily(beta_range=Interval(-1, 1))
        result = solve_minimax(model, family, Power(2, 1), THETA3)
        assert result.best_params == (0.0,)
        assert (result.search_iterations, result.converged) == (0, True)
        assert result.worst_case.slopes is None
        # at the optimum the value is the exact median risk itself
        assert result.minimax_value == pytest.approx(quadpack_median_risk(11, 0.0, 2.0), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 4, 5, 101])
    @pytest.mark.parametrize("lo, hi, beta", [
        (-1.0, 1.0, 0.0), (0.5, 1.0, 0.5), (-1.0, -0.25, -0.25), (-1.0, -0.0, 0.0),
    ])
    def test_optimum_is_the_shift_nearest_zero_from_one_worst_case(
        self, monkeypatch, n, lo, hi, beta
    ):
        # Anderson's lemma: the risk is nondecreasing in |beta| for a
        # symmetric log-concave law and an even loss nondecreasing in |t|
        module = importlib.import_module("minmax_lab.minimax")
        inner, calls = module.worst_case_risk, []

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(module, "worst_case_risk", counting)
        family = MedianShiftFamily(beta_range=Interval(lo, hi))
        result = solve_minimax(GaussianLocationModel(n=n), family, Power(4, 1), THETA3)
        assert result.best_params == (beta,) and len(calls) == 1
        assert math.copysign(1.0, result.best_params[0]) == math.copysign(1.0, beta)
        assert result.minimax_value == pytest.approx(quadpack_median_risk(n, beta, 4.0), rel=1e-10)


class TestRealizability:
    def test_distinct_losses_have_distinct_optima(self):
        report = check_exclusivity_partition(M1, FAMILY, [2, 4], THETA3)
        d = report.param_distances[0][1]
        # oracle: the two 1-D scan minimizers differ by ~7.4e-3
        oracle_gap = abs(
            scan_min(lambda g: affine_l2_worst(g, 0.0, 3.0)[0], 0.5, 1.2)[0]
            - scan_min(lambda g: affine_l4_worst(g, 0.0, 3.0), 0.5, 1.2)[0]
        )
        assert d == pytest.approx(oracle_gap, abs=1e-3)
        assert d > 0.005
