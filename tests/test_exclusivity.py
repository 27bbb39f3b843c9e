"""Gradient checks, refutation certificates, sign perturbation, shift-risk."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minmax_lab.errors import ExponentPreconditionError, InsufficientClassesError
from minmax_lab.exclusivity import (
    Verdict,
    check_exclusivity_partition,
    grad_worst_case,
    mean_shift_risk,
    mean_shift_risk_deriv,
    refute_joint_minimaxity,
)
from minmax_lab.losses import Power, Scaled, scale_loss
from minmax_lab.minimax import AffineMeanFamily, MedianShiftFamily, solve_minimax
from minmax_lab.model import AffineMean, GaussianLocationModel, Interval, SignPerturbed
from minmax_lab.risk import MonteCarlo, risk

from oracles import abs_moment, quadpack_power_risk

M1 = GaussianLocationModel(n=1)
THETA3 = Interval(-3, 3)
THETA_WIDE = Interval(-50, 50)
FAMILY = AffineMeanFamily(gamma_range=Interval(0, 1.5), beta_range=Interval(-1, 1))


def record_evaluations(monkeypatch):
    """(loss, x) of every slope pass and profile worst case the minimax and
    exclusivity modules make, in order, as a list that fills while the
    test runs."""
    seen = []
    for module_name in ("minmax_lab.minimax", "minmax_lab.exclusivity"):
        module = importlib.import_module(module_name)
        for name in ("profile_slopes", "worst_case_on_profile"):
            inner = getattr(module, name)

            def recording(model, family, x, loss, *args, inner=inner, **kwargs):
                seen.append((loss, x))
                return inner(model, family, x, loss, *args, **kwargs)

            monkeypatch.setattr(module, name, recording)
    return seen


def dR4_dgamma(g, m=3.0):
    # analytic derivative of the quartic worst-case risk (beta = 0, sup at |theta| = m)
    mu = (g - 1.0) * m
    return 4 * mu**3 * m + 6 * (2 * mu * m * g**2 + mu**2 * 2 * g) + 12 * g**3


class TestGradient:
    def test_quartic_gradient_at_l2_optimum(self):
        g = grad_worst_case(M1, FAMILY, (0.9, 0.0), Power(4, 1), THETA3)
        assert g[0] == pytest.approx(dR4_dgamma(0.9), abs=0.02)
        assert g[0] == pytest.approx(0.648, abs=0.02)
        assert g[1] == pytest.approx(0.0, abs=1e-3)

    def test_l2_gradient_vanishes_at_its_optimum(self):
        g = grad_worst_case(M1, FAMILY, (0.9, 0.0), Power(2, 1), THETA3)
        assert np.linalg.norm(g) < 1e-3

    def test_beta_component_vanishes_by_symmetry(self):
        g = grad_worst_case(M1, FAMILY, (1.0, 0.0), Power(2, 1), THETA_WIDE)
        assert g[1] == pytest.approx(0.0, abs=1e-6)

    def test_boundary_params_rejected(self):
        with pytest.raises(ValueError):
            grad_worst_case(M1, FAMILY, (0.0, 0.0), Power(2, 1), THETA3)

    def test_median_family_gradient_by_symmetry(self):
        model = GaussianLocationModel(n=11)
        family = MedianShiftFamily(beta_range=Interval(-1, 1))
        g = grad_worst_case(model, family, (0.0,), Power(2, 1), THETA3)
        # the exact risks at +-h mirror each other bit for bit
        assert g[0] == 0.0


class TestRefutation:
    def test_bounded_interval_pair_is_refuted(self):
        cert = refute_joint_minimaxity(M1, FAMILY, Power(2, 1), Power(4, 1), THETA3)
        assert cert.verdict is Verdict.REFUTED
        assert cert.delta_Rq < 0
        assert 1.7 <= cert.taylor_slope_p <= 2.3
        # direction: steepest descent for the quartic risk is -gamma
        assert cert.direction[0] == pytest.approx(-1.0, abs=1e-3)
        assert cert.gradient_p_norm < 0.01 * max(1.0, cert.p)
        assert abs(np.linalg.norm(cert.direction) - 1.0) < 1e-12
        alphas = [pt.alpha for pt in cert.ladder]
        assert alphas == sorted(alphas, reverse=True)

    def test_refutation_reuses_its_q_risks(self, monkeypatch):
        # one q slope pass gives the slope, the curvature and the stationarity
        # test, the p-slope comes with the solve; then two worst cases per
        # rung of five
        p_solution = solve_minimax(M1, FAMILY, Power(2, 1), THETA3)
        seen = record_evaluations(monkeypatch)
        cert = refute_joint_minimaxity(
            M1, FAMILY, Power(2, 1), Power(4, 1), THETA3, p_solution=p_solution
        )
        assert cert.verdict is Verdict.REFUTED and len(cert.ladder) == 5
        assert len(seen) == len(set(seen)) == 11
        assert seen[0] == (Power(4, 1), p_solution.best_params[0])

    @pytest.mark.parametrize("gamma_hi, calls", [(0.85, 1), (0.9, 11)])
    def test_face_point_is_evaluated_once_per_loss(self, monkeypatch, gamma_hi, calls):
        # at a face the one q slope pass is one-sided and the p-slope is the
        # solve's, so no (loss, point) is evaluated twice; the ladder adds
        # two per rung at 0.9
        family = AffineMeanFamily(gamma_range=Interval(0, gamma_hi), beta_range=Interval(-1, 1))
        p_solution = solve_minimax(M1, family, Power(2, 1), THETA3)
        seen = record_evaluations(monkeypatch)
        cert = refute_joint_minimaxity(
            M1, family, Power(2, 1), Power(4, 1), THETA3, p_solution=p_solution
        )
        assert cert.delta_star_params[0] == gamma_hi
        assert len(seen) == calls and len(set(seen)) == calls
        # the p-slope is the solve's inward one-sided slope at the face
        assert cert.gradient_p_norm == abs(p_solution.slope_pass.slopes[0])
        assert cert.gradient_p_norm == pytest.approx(abs(20 * gamma_hi - 18), abs=1e-12)

    def test_same_class_pair_rejected(self):
        with pytest.raises(ExponentPreconditionError):
            refute_joint_minimaxity(
                M1, FAMILY, Power(2, 1), Scaled(5, Power(2, 1)), THETA3
            )

    def test_nonsmooth_exponent_rejected(self):
        with pytest.raises(ExponentPreconditionError):
            refute_joint_minimaxity(M1, FAMILY, Power(1, 1), Power(2, 1), THETA3)

    def test_wide_interval_is_stationary_for_both(self):
        cert = refute_joint_minimaxity(
            M1, FAMILY, Power(2, 1), Power(4, 1), THETA_WIDE
        )
        assert cert.verdict in (Verdict.STATIONARY_BOTH, Verdict.NO_DESCENT_IN_FAMILY)

    @pytest.mark.parametrize("factor", [0.1, 10.0])
    def test_invariant_under_scaling_the_second_loss(self, factor):
        base = refute_joint_minimaxity(M1, FAMILY, Power(2, 1), Power(4, 1), THETA3)
        scaled = refute_joint_minimaxity(
            M1, FAMILY, Power(2, 1), scale_loss(Power(4, 1), factor), THETA3
        )
        assert scaled.verdict is base.verdict
        for a, b in zip(scaled.direction, base.direction):
            assert abs(a - b) < 1e-3


class TestProfileCertificate:
    """The refutation works along the family's free coordinate, so an
    asymmetric interval and an optimum on a face of the range are no
    different from the symmetric interior case."""

    @pytest.mark.parametrize("lo, hi", [(-1.0, 5.0), (0.0, 4.0)])
    def test_asymmetric_interval_pair_is_refuted(self, lo, hi):
        cert = refute_joint_minimaxity(M1, FAMILY, Power(2, 1), Power(4, 1), Interval(lo, hi))
        assert cert.verdict is Verdict.REFUTED
        assert 1.7 <= cert.taylor_slope_p <= 2.3
        assert cert.delta_Rq < 0
        # along the profile the worst case only sees the half-width, so the
        # slope is the symmetric closed form at gamma* = hw^2 / (1 + hw^2)
        hw = (hi - lo) / 2
        gamma = cert.delta_star_params[0]
        assert gamma == pytest.approx(hw**2 / (1 + hw**2), abs=1e-4)
        assert cert.gradient_q[0] == pytest.approx(dR4_dgamma(gamma, m=hw), abs=0.02)
        assert cert.direction == (-1.0,)

    @pytest.mark.parametrize("gamma_range, face", [((0.0, 0.85), 0.85), ((0.95, 1.5), 0.95)])
    def test_face_optimum_with_outward_descent_is_stationary(self, gamma_range, face):
        family = AffineMeanFamily(gamma_range=Interval(*gamma_range), beta_range=Interval(-1, 1))
        cert = refute_joint_minimaxity(M1, family, Power(2, 1), Power(4, 1), THETA3)
        assert cert.delta_star_params == (face, 0.0)
        assert cert.verdict is Verdict.STATIONARY_BOTH
        assert cert.ladder == ()
        assert cert.direction == (0.0,)
        # the q-slope is not flat: the descent step points out of the range
        assert abs(cert.gradient_q[0]) > 1.0
        assert math.copysign(1.0, cert.gradient_q[0]) == (-1.0 if face == 0.85 else 1.0)

    def test_face_optimum_with_inward_descent_walks_the_ladder(self):
        # the L2 optimum 0.9 is the upper face; the quartic descent is -gamma
        family = AffineMeanFamily(gamma_range=Interval(0, 0.9), beta_range=Interval(-1, 1))
        cert = refute_joint_minimaxity(M1, family, Power(2, 1), Power(4, 1), THETA3)
        assert cert.delta_star_params[0] == 0.9
        assert cert.verdict is Verdict.REFUTED
        # one-sided slope, within h * R'' of the two-sided one
        assert cert.gradient_q[0] == pytest.approx(dR4_dgamma(0.9), abs=0.02)

    @settings(max_examples=25, deadline=None)
    @given(
        hw=st.floats(min_value=0.5, max_value=5.0),
        c=st.floats(min_value=-5.0, max_value=5.0),
        n=st.sampled_from([1, 4, 25]),
    )
    def test_certificate_is_shift_equivariant(self, hw, c, n):
        model = GaussianLocationModel(n=n)
        # beta* = (1 - gamma) * c never reaches the ends of this beta range
        wide = Interval(-abs(c) - 1.0, abs(c) + 1.0)
        family = AffineMeanFamily(gamma_range=Interval(0, 1.5), beta_range=wide)
        centred = refute_joint_minimaxity(
            model, family, Power(2, 1), Power(4, 1), Interval(-hw, hw)
        )
        shifted = refute_joint_minimaxity(
            model, family, Power(2, 1), Power(4, 1), Interval(c - hw, c + hw)
        )
        assert shifted.verdict is centred.verdict
        # abs: the round-off floor of a difference quotient, ulp(R) / 1e-4,
        # which dominates at near-flat slopes (StationaryBoth, n = 25)
        assert shifted.gradient_q[0] == pytest.approx(centred.gradient_q[0], rel=1e-9, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        hw=st.floats(min_value=0.5, max_value=5.0),
        n=st.sampled_from([1, 4, 25]),
        c=st.floats(min_value=0.05, max_value=20.0),
    )
    # a slope small against R_q = 1 (n = 25), and one small against the
    # curvature (n = 4): both once missed their refutation
    @example(hw=0.6, n=25, c=5.0)
    @example(hw=3.148, n=4, c=0.2)
    def test_certificate_is_scale_free(self, hw, n, c):
        # gamma is free of units and R_q scales by c**4 when theta, sigma and
        # the beta box scale by c (the conic structure), so nothing the
        # certificate decides may move
        def certificate(scale):
            model = GaussianLocationModel(n=n, sigma=scale)
            family = AffineMeanFamily(gamma_range=Interval(0, 1.5),
                                      beta_range=Interval(-scale, scale))
            return refute_joint_minimaxity(
                model, family, Power(2, 1), Power(4, 1), Interval(-hw * scale, hw * scale)
            )

        base, scaled = certificate(1.0), certificate(c)
        assert scaled.verdict is base.verdict
        assert scaled.direction == base.direction
        assert [pt.alpha for pt in scaled.ladder] == pytest.approx(
            [pt.alpha for pt in base.ladder], rel=1e-6
        )
        if (hw, n) in ((0.6, 25), (3.148, 4)):
            assert base.verdict is Verdict.REFUTED
            assert 1.7 <= base.taylor_slope_p <= 2.3


class TestSignPerturbation:
    def test_pointwise_risk_drops_near_target(self):
        # stepping toward theta* = 3 reduces the error at theta = 3
        pert_spec = SignPerturbed(base=AffineMean(1, 0), epsilon=0.1, theta_star=3.0)
        method = MonteCarlo(10**6, seed=12)
        base_risk = risk(M1, AffineMean(1, 0), Power(2, 1), 3.0, method).value
        pert_risk = risk(M1, pert_spec, Power(2, 1), 3.0, method).value
        assert pert_risk < base_risk
        # closed form: E(|Z| - 0.1)^2 = 1 - 0.2 E|Z| + 0.01
        assert pert_risk == pytest.approx(1.01 - 0.2 * abs_moment(1), abs=0.01)


class TestShiftRisk:
    def test_no_shift_is_plain_moment(self):
        assert mean_shift_risk(0.0, n=1, q=2) == pytest.approx(1.0, rel=1e-10)
        assert mean_shift_risk(0.0, n=4, q=2) == pytest.approx(0.25, rel=1e-10)

    def test_quadratic_case_closed_form(self):
        # E(Z - a)^2 = 1 + a^2
        assert mean_shift_risk(0.5, n=1, q=2) == pytest.approx(1.25, rel=1e-10)
        for a in np.linspace(-1, 1, 9):
            assert mean_shift_risk(a, 1, 2) == pytest.approx(1 + a * a, rel=1e-10)

    def test_matches_adaptive_integration(self):
        for a, q in [(0.3, 1.5), (0.7, 2.2), (1.0, 3.0)]:
            assert mean_shift_risk(a, 1, q) == pytest.approx(
                quadpack_power_risk(-a, 1.0, q), rel=1e-9
            )

    def test_even_in_the_shift(self):
        for a in np.linspace(0.1, 1.0, 10):
            for q in (1.5, 2.0, 3.0):
                assert abs(mean_shift_risk(a, 1, q) - mean_shift_risk(-a, 1, q)) < 1e-8

    def test_convex_on_central_range(self):
        for q in (1.5, 2.0, 3.0):
            a = np.linspace(-2, 2, 81)
            v = np.array([mean_shift_risk(x, 1, q) for x in a])
            assert np.all(np.diff(v, 2) >= -1e-8)

    def test_derivative_zero_at_center(self):
        for q in (1.5, 2.0, 2.2, 3.0):
            assert abs(mean_shift_risk_deriv(0.0, 1, q, "analytic")) < 1e-8
            assert abs(mean_shift_risk_deriv(0.0, 1, q, "fd")) < 1e-8

    @pytest.mark.parametrize("q", [1.5, 2.0, 2.2, 3.0])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 1.0])
    def test_analytic_matches_finite_difference(self, q, alpha):
        analytic = mean_shift_risk_deriv(alpha, 1, q, "analytic")
        fd = mean_shift_risk_deriv(alpha, 1, q, "fd")
        assert abs(analytic - fd) < 1e-5

    def test_quadratic_derivative_is_linear(self):
        for a in (0.25, 0.5, 1.0):
            assert mean_shift_risk_deriv(a, 1, 2, "analytic") == pytest.approx(2 * a, abs=1e-6)

    def test_exponent_precondition(self):
        with pytest.raises(ValueError):
            mean_shift_risk(0.5, 1, q=1.0)
        with pytest.raises(ValueError):
            mean_shift_risk_deriv(0.5, 1, q=0.9)

    @pytest.mark.parametrize(
        "alpha, n, q, message",
        [
            (0.5, 0, 2.0, "n must be a positive integer, got 0"),
            (0.5, -1, 2.0, "n must be a positive integer, got -1"),
            (0.5, 1.5, 2.0, "n must be a positive integer, got 1.5"),
            (0.5, math.nan, 2.0, "n must be a positive integer, got nan"),
            (math.inf, 1, 2.0, "alpha must be finite, got inf"),
            (math.nan, 1, 2.0, "alpha must be finite, got nan"),
            (0.5, 1, 0.9, "q must be > 1, got 0.9"),
            (0.5, 1, math.inf, "q must be finite, got inf"),
            (0.5, 1, math.nan, "q must be finite, got nan"),
        ],
    )
    def test_both_derivative_modes_check_their_inputs_alike(self, alpha, n, q, message):
        for call in (
            lambda: mean_shift_risk(alpha, n, q),
            lambda: mean_shift_risk_deriv(alpha, n, q, "analytic"),
            lambda: mean_shift_risk_deriv(alpha, n, q, "fd"),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


class TestPartition:
    def test_bounded_interval_partition_is_disjoint(self):
        report = check_exclusivity_partition(M1, FAMILY, [2, 4], THETA3)
        assert report.pairwise_disjoint
        assert len(report.classes) == 2
        assert len(report.witnesses) == 1
        assert report.witnesses[0].verdict is Verdict.REFUTED
        assert report.classes[0].exponent == 2
        assert report.classes[1].exponent == 4

    def test_each_class_solved_once(self, monkeypatch):
        solved = []
        inner = importlib.import_module("minmax_lab.minimax").solve_minimax

        def counting(model, family, loss, theta_interval, *rest):
            solved.append(loss)
            return inner(model, family, loss, theta_interval, *rest)

        for name in ("minmax_lab.minimax", "minmax_lab.exclusivity"):
            monkeypatch.setattr(importlib.import_module(name), "solve_minimax", counting)
        exponents = (1.5, 2, 4)
        report = check_exclusivity_partition(M1, FAMILY, exponents, THETA3)
        assert solved == [Power(p) for p in exponents]

        # reusing the class solves changes no witness: each equals a
        # refutation that solves its own p-problem
        pairs = [(0, 1), (0, 2), (1, 2)]
        for witness, (i, j) in zip(report.witnesses, pairs):
            alone = refute_joint_minimaxity(
                M1, FAMILY, Power(exponents[i]), Power(exponents[j]), THETA3
            )
            assert witness == alone

    @pytest.mark.parametrize("maxiter", [1, 2, 600])
    def test_maxiter_reaches_every_class_solve(self, monkeypatch, maxiter):
        module = importlib.import_module("minmax_lab.exclusivity")
        inner = module.solve_minimax
        caps, results = [], []

        def counting(model, family, loss, theta_interval, *rest):
            caps.extend(rest)
            results.append(inner(model, family, loss, theta_interval, *rest))
            return results[-1]

        monkeypatch.setattr(module, "solve_minimax", counting)
        exponents = (1.5, 2, 4)
        report = check_exclusivity_partition(M1, FAMILY, exponents, THETA3, maxiter=maxiter)
        assert caps == [maxiter] * len(exponents)
        assert all(r.search_iterations <= maxiter for r in results)
        # two passes leave the p = 1.5 and p = 4 searches short of their optima
        assert report.converged is (maxiter == 600)

    @pytest.mark.parametrize("gamma_hi, exponents", [(1.5, (1.5, 2, 4)), (0.85, (2, 4))])
    def test_no_loss_is_evaluated_twice_at_a_point(self, monkeypatch, gamma_hi, exponents):
        # across the class solves, the certificates' slope passes and their
        # ladders: the k = 3 job shares each p-optimum between two pairs and
        # hits the L2 optimum with a rung; at the face both optima are 0.85
        family = AffineMeanFamily(gamma_range=Interval(0, gamma_hi), beta_range=Interval(-1, 1))
        seen = record_evaluations(monkeypatch)
        report = check_exclusivity_partition(M1, family, exponents, THETA3)
        assert len(seen) == len(set(seen))
        solves = [(Power(c.exponent), c.params[0]) for c in report.classes]
        assert set(solves) <= set(seen)

    def test_wide_interval_partition_fails(self):
        report = check_exclusivity_partition(M1, FAMILY, [2, 4], THETA_WIDE)
        assert not report.pairwise_disjoint
        assert report.witnesses[0].verdict in (
            Verdict.STATIONARY_BOTH,
            Verdict.NO_DESCENT_IN_FAMILY,
        )

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientClassesError):
            check_exclusivity_partition(M1, FAMILY, [2], THETA3)

    def test_duplicate_exponents_rejected(self):
        with pytest.raises(InsufficientClassesError):
            check_exclusivity_partition(M1, FAMILY, [2, 2], THETA3)

    def test_nonsmooth_exponents_rejected(self):
        with pytest.raises(ExponentPreconditionError):
            check_exclusivity_partition(M1, FAMILY, [1, 2], THETA3)


class TestMedianCertificates:
    """The median family's optimum is closed-form and its risks exact, so
    the symmetric case is stationary for both classes at beta = 0."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_symmetric_box_is_stationary_for_both_at_zero(self, n):
        family = MedianShiftFamily(beta_range=Interval(-1, 1))
        report = check_exclusivity_partition(GaussianLocationModel(n=n), family, [2, 4], THETA3)
        assert [c.params for c in report.classes] == [(0.0,), (0.0,)]
        (cert,) = report.witnesses
        assert cert.verdict is Verdict.STATIONARY_BOTH
        assert (cert.gradient_q, cert.direction, cert.ladder) == ((0.0,), (0.0,), ())
        assert report.converged

    @pytest.mark.parametrize("n", [4, 5])
    def test_box_off_zero_is_stationary_on_its_face(self, n):
        # beta* = 0.5, the face nearest 0; the q-descent points out of the box
        family = MedianShiftFamily(beta_range=Interval(0.5, 1))
        report = check_exclusivity_partition(GaussianLocationModel(n=n), family, [2, 4], THETA3)
        assert [c.params for c in report.classes] == [(0.5,), (0.5,)]
        (cert,) = report.witnesses
        assert cert.verdict is Verdict.STATIONARY_BOTH
        assert cert.gradient_q[0] > 0.0 and cert.direction == (0.0,)
