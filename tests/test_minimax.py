"""Nested min-sup solver over estimator families."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minmax_lab.exclusivity import check_exclusivity_partition
from minmax_lab.losses import Power, SumLoss
from minmax_lab.minimax import (
    AffineMeanFamily,
    MedianShiftFamily,
    SolveOptions,
    scipy_minimize,
    solve_minimax,
)
from minmax_lab.model import GaussianLocationModel, Interval
from minmax_lab.risk import worst_case_risk

from oracles import (
    affine_l2_grid_min,
    affine_l2_worst,
    affine_l4_worst,
    scan_min,
    scipy_bounded_search,
)

M1 = GaussianLocationModel(n=1)
THETA3 = Interval(-3, 3)
FAMILY = AffineMeanFamily(gamma_range=Interval(0, 1.5), beta_range=Interval(-1, 1))

OPTS = SolveOptions()


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
            M1, FAMILY, Power(2, 1), Interval(-50, 50), SolveOptions()
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
        result = solve_minimax(M1, FAMILY, Power(2, 1), THETA3, OPTS)
        recomputed = worst_case_risk(M1, FAMILY.make(result.best_params), Power(2, 1), THETA3)
        assert result.minimax_value == pytest.approx(recomputed.sup_value, rel=1e-6)

    def test_certified_upper_bound(self):
        result = solve_minimax(M1, FAMILY, Power(2, 1), THETA3, OPTS)
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = (rng.uniform(0, 1.5), rng.uniform(-1, 1))
            other = worst_case_risk(M1, FAMILY.make(params), Power(2, 1), THETA3)
            assert result.minimax_value <= other.sup_value + 1e-9

    def test_deterministic_given_options(self):
        a = solve_minimax(M1, FAMILY, Power(2, 1), THETA3, OPTS)
        b = solve_minimax(M1, FAMILY, Power(2, 1), THETA3, OPTS)
        assert a.best_params == b.best_params
        assert a.minimax_value == b.minimax_value

    def test_default_l2_solve_call_budget(self, risk_calls):
        result = solve_minimax(M1, FAMILY, Power(2, 1), THETA3)
        assert len(risk_calls) <= 20
        assert result.best_params == pytest.approx((0.9, 0.0), abs=1e-4)

    @pytest.mark.parametrize(
        "gamma_hi, loss", [(1.5, Power(2, 1)), (0.85, Power(2, 1)), (1.5, Power(4, 1))]
    )
    def test_each_profile_worst_case_is_computed_once(self, monkeypatch, gamma_hi, loss):
        # the breakpoint comparison reuses the search point's worst case
        module = importlib.import_module("minmax_lab.minimax")
        inner, xs = module.worst_case_on_profile, []

        def recording(model, family, x, *args, **kwargs):
            xs.append(x)
            return inner(model, family, x, *args, **kwargs)

        monkeypatch.setattr(module, "worst_case_on_profile", recording)
        family = AffineMeanFamily(gamma_range=Interval(0, gamma_hi), beta_range=Interval(-1, 1))
        solve_minimax(M1, family, loss, THETA3)
        assert len(xs) == len(set(xs)) > 3

    def test_gamma_face_optimum_is_exact(self):
        family = AffineMeanFamily(gamma_range=Interval(0, 0.85), beta_range=Interval(-1, 1))
        result = solve_minimax(M1, family, Power(2, 1), THETA3)
        assert result.best_params == (0.85, 0.0)
        assert result.minimax_value == pytest.approx(0.925, abs=1e-12)
        # the face beat the search point, so the two differ
        assert result.breakpoint_gap > 0

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


def search_objective(kind: str, c: float, k: float):
    """Kinked, smooth, multimodal, flat and clipped objectives for the search."""
    if kind == "power":
        return lambda x: abs(x - c) ** k
    if kind == "multimodal":
        return lambda x: math.sin(3 * x) + 0.1 * (x - c) ** 2
    if kind == "constant":
        return lambda x: 1.0
    return lambda x: max(abs(x - c), 0.3)


class TestBoundedSearch:
    """The ported search evaluates exactly the points scipy's does."""

    @given(
        kind=st.sampled_from(("power", "multimodal", "constant", "clipped")),
        k=st.sampled_from((0.5, 1.0, 2.0, 3.0)),
        lo=st.floats(min_value=-5.0, max_value=5.0),
        log_width=st.floats(min_value=-7.0, max_value=1.3),
        # c relative to the box: inside it, or past either end
        at=st.floats(min_value=-0.5, max_value=1.5),
        maxiter=st.sampled_from((1, 2, 5, 600)),
    )
    # a minimum at the box midpoint, which the first golden step misses
    @example(kind="power", k=1.0, lo=-1.0, log_width=math.log10(2.0), at=0.5, maxiter=600)
    # a box 1e-7 wide, narrower than the stopping tolerance
    @example(kind="power", k=2.0, lo=0.3, log_width=-7.0, at=0.2, maxiter=600)
    # a flat objective: every step is a golden one
    @example(kind="constant", k=1.0, lo=0.0, log_width=0.0, at=0.0, maxiter=600)
    # a flat floor wider than the box, past its upper end
    @example(kind="clipped", k=1.0, lo=0.0, log_width=-1.0, at=1.5, maxiter=600)
    # the iteration cap stops the search
    @example(kind="multimodal", k=1.0, lo=-5.0, log_width=1.0, at=0.7, maxiter=1)
    @example(kind="multimodal", k=1.0, lo=-5.0, log_width=1.0, at=0.7, maxiter=5)
    @example(kind="power", k=0.5, lo=0.0, log_width=0.0, at=0.3, maxiter=2)
    @settings(max_examples=300, deadline=None)
    def test_port_matches_scipy(self, kind, k, lo, log_width, at, maxiter):
        hi = lo + 10.0**log_width
        f = search_objective(kind, lo + at * (hi - lo), k)
        xs = []

        def recorded(x):
            xs.append(x)
            return f(x)

        port = scipy_minimize(recorded, lo, hi, maxiter)
        ref, ref_xs = scipy_bounded_search(f, lo, hi, maxiter)
        # hex tells -0.0 from 0.0: the points are equal bit for bit
        assert [x.hex() for x in xs] == [x.hex() for x in ref_xs]
        assert (port.x.hex(), port.fun, port.nit, port.nfev, port.success) == (
            float(ref.x).hex(), float(ref.fun), ref.nit, ref.nfev, bool(ref.success))


class TestMedianShift:
    def test_symmetric_loss_centers_the_shift(self):
        model = GaussianLocationModel(n=11)
        family = MedianShiftFamily(beta_range=Interval(-1, 1))
        result = solve_minimax(
            model, family, Power(2, 1), THETA3, SolveOptions(seed=5)
        )
        (beta,) = result.best_params
        assert beta == pytest.approx(0.0, abs=0.01)
        # at the optimum the value is the Monte Carlo median risk itself
        assert result.minimax_value > 0


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
