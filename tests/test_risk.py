"""Risk evaluation: quadrature vs oracles, Monte Carlo agreement, worst case."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minmax_lab.closed_form import gaussian_risk
from minmax_lab.errors import NonFiniteRiskError, QuadratureUnsupportedError
from minmax_lab.losses import (
    Huber,
    Power,
    Scaled,
    SumLoss,
    loss_breakpoints,
    loss_of_error,
    scale_loss,
)
from minmax_lab.model import (
    AffineMean,
    GaussianLocationModel,
    Interval,
    SampleMedian,
    SignPerturbed,
    error_draws,
    error_law,
)
from minmax_lab.quadrature import gaussian_expectation
from minmax_lab.risk import (
    MonteCarlo,
    Quadrature,
    crosscheck_risk,
    golden_section_max,
    risk,
    worst_case_risk,
    worst_case_slopes,
)

from oracles import (
    abs_moment,
    affine_l2_worst,
    closed_form_power_risk,
    fourth_moment,
    quadpack_huber_risk,
    quadpack_median_risk,
    quadpack_power_risk,
    quadpack_sum_risk,
)

M1 = GaussianLocationModel(n=1)
THETA3 = Interval(-3, 3)
# the module, which the package's `risk` function shadows as an attribute
risk_module = sys.modules["minmax_lab.risk"]


class TestQuadratureRisk:
    def test_variance_over_n(self):
        model = GaussianLocationModel(n=4)
        r = risk(model, AffineMean(1, 0), Power(2, 1), theta=0.3, method=Quadrature())
        assert r.value == pytest.approx(0.25, rel=1e-12)
        assert r.std_error == 0.0

    def test_absolute_moment(self):
        r = risk(M1, AffineMean(1, 0), Power(1, 1), theta=1.1, method=Quadrature())
        assert r.value == pytest.approx(math.sqrt(2 / math.pi), rel=1e-10)

    def test_fourth_moment(self):
        r = risk(M1, AffineMean(1, 0), Power(4, 1), theta=-2.0, method=Quadrature())
        assert r.value == pytest.approx(3.0, rel=1e-10)

    @pytest.mark.parametrize("q", [1, 1.5, 2, 2.5, 3, 4])
    def test_moment_oracle(self, q):
        r = risk(M1, AffineMean(1, 0), Power(q, 1), theta=0.0, method=Quadrature())
        assert r.value == pytest.approx(abs_moment(q), rel=1e-8)

    @pytest.mark.parametrize(
        "gamma,beta,p,theta",
        [(0.8, 0.0, 2.5, 2.0), (1.1, -0.3, 1.3, -1.5), (0.6, 0.2, 3.7, 0.7)],
    )
    def test_against_adaptive_integration(self, gamma, beta, p, theta):
        r = risk(M1, AffineMean(gamma, beta), Power(p, 1), theta, Quadrature())
        mu = (gamma - 1) * theta + beta
        assert r.value == pytest.approx(quadpack_power_risk(mu, gamma, p), rel=1e-9)

    def test_node_doubling_convergence(self):
        # documented check behind the 200-node default
        for p in (1.2, 2.5, 4.9):
            loss = Power(p, 1)
            kinks, roots = loss_breakpoints(loss)
            v1, v2 = (
                gaussian_expectation(lambda t: loss_of_error(loss, t), 0.3, 0.8, nodes, kinks, roots)
                for nodes in (200, 400)
            )
            assert abs(v1 - v2) < 1e-10

    def test_empirical_law_unsupported(self):
        est = SignPerturbed(base=SampleMedian(0.0), epsilon=0.1, theta_star=0.5)
        with pytest.raises(QuadratureUnsupportedError, match="no exact Gaussian error law"):
            risk(GaussianLocationModel(n=5), est, Power(2, 1), 0.0, Quadrature())

    @given(
        mu=st.floats(min_value=-30.0, max_value=30.0),
        log_s=st.floats(min_value=math.log(1e-3), max_value=math.log(2.0)),
        p=st.floats(min_value=0.5, max_value=4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_power_risk_matches_closed_form(self, mu, log_s, p):
        # AffineMean(s, mu) at theta = 0 has error mu + s*Z
        s = math.exp(log_s)
        r = risk(M1, AffineMean(s, mu), Power(p, 1), 0.0, Quadrature())
        assert r.value == pytest.approx(closed_form_power_risk(mu, s, p), rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_risk_raises(self):
        with pytest.raises(NonFiniteRiskError):
            risk(M1, AffineMean(1e200, 0), Power(4, 1), 1.0, Quadrature())

    @pytest.mark.parametrize("loss", [
        Power(101),
        Scaled(2.0, Power(120)),
        SumLoss([Power(2), Huber(1.0), Scaled(3.0, Power(150))]),
    ], ids=repr)
    def test_exponent_above_the_bound_is_refused(self, loss, monkeypatch):
        # the median kernel's truncation at |z| = 15 would understate such a
        # risk (8 times at p = 250), so no risk is evaluated at all, by the
        # kernel or by the closed form
        def no_evaluation(*args, **kwargs):
            raise AssertionError("a risk was evaluated")

        monkeypatch.setattr(risk_module, "gaussian_expectation", no_evaluation)
        monkeypatch.setattr(risk_module, "gaussian_risk", no_evaluation)
        est = AffineMean(0.8, 0.1)
        with pytest.raises(NonFiniteRiskError, match="is above 100.0"):
            risk(M1, est, loss, 0.5, Quadrature())
        with pytest.raises(NonFiniteRiskError, match="is above 100.0"):
            worst_case_risk(M1, est, loss, THETA3)
        with pytest.raises(NonFiniteRiskError, match="is above 100.0"):
            worst_case_slopes(M1, est, loss, THETA3, (1.0, 1.0))
        # Monte Carlo does not truncate
        assert math.isfinite(risk(M1, est, loss, 0.5, MonteCarlo(100, 1)).value)


class TestMonteCarloAgreement:
    def test_unbiased_squared_error(self):
        _, _, z = crosscheck_risk(M1, AffineMean(1, 0), Power(2, 1), 0.0, 10**6, seed=3)
        assert z < 4

    def test_biased_fractional_power(self):
        _, _, z = crosscheck_risk(M1, AffineMean(0.8, 0), Power(2.5, 1), 2.0, 10**6, seed=3)
        assert z < 4

    def test_constant_estimator_at_truth(self):
        quad, mc, z = crosscheck_risk(M1, AffineMean(0, 0), Power(2, 1), 0.0, 10**4, seed=1)
        assert quad.value == 0.0
        assert mc.value == 0.0
        assert z == 0.0

    def test_randomized_instances(self):
        rng = np.random.default_rng(2024)
        for k in range(8):
            gamma = rng.uniform(0.5, 1.25)
            beta = rng.uniform(-0.5, 0.5)
            p = rng.uniform(1.0, 4.0)
            theta = rng.uniform(-2.0, 2.0)
            _, _, z = crosscheck_risk(
                M1, AffineMean(gamma, beta), Power(p, 1), theta, 200_000, seed=50 + k
            )
            assert z < 4, f"instance {k}: z={z}"


class TestWorstCase:
    def test_identity_weight_is_flagged_constant(self, risk_calls):
        w = worst_case_risk(M1, AffineMean(1, 0), Power(2, 1), THETA3)
        assert risk_calls == [0.0]
        assert (w.sup_method, w.constant_in_theta) == ("constant", True)
        assert w.sup_value == pytest.approx(1.0, rel=1e-12)

    def test_shrunk_mean_l2(self):
        w = worst_case_risk(M1, AffineMean(0.8, 0), Power(2, 1), THETA3)
        oracle_value, oracle_theta = affine_l2_worst(0.8, 0.0, 3.0)
        assert w.sup_value == pytest.approx(oracle_value, rel=1e-9)
        assert abs(w.argmax_theta) == pytest.approx(abs(oracle_theta), abs=1e-5)
        assert w.sup_value == pytest.approx(1.0, rel=1e-9)

    def test_shrunk_mean_l4(self):
        w = worst_case_risk(M1, AffineMean(0.9, 0), Power(4, 1), THETA3)
        assert w.sup_value == pytest.approx(fourth_moment(0.3, 0.9), rel=1e-9)
        assert w.sup_value == pytest.approx(2.4138, abs=2e-4)

    def test_sup_dominates_grid(self):
        thetas = np.linspace(-3, 3, 64)
        w = worst_case_risk(M1, AffineMean(0.7, 0.2), Power(2, 1), THETA3)
        grid_risks = [
            risk(M1, AffineMean(0.7, 0.2), Power(2, 1), t, Quadrature()).value for t in thetas
        ]
        assert w.sup_value >= max(grid_risks) - 1e-12

    @given(
        gamma=st.floats(min_value=0.0, max_value=1.5),
        beta=st.floats(min_value=-1.0, max_value=1.0),
        lo=st.floats(min_value=-4.0, max_value=-0.25),
        hi=st.floats(min_value=0.25, max_value=4.0),
        factor=st.floats(min_value=0.1, max_value=10.0),
        case=st.deferred(lambda: loss_cases),
    )
    @settings(max_examples=50, deadline=None)
    def test_scaling_equivariance(self, gamma, beta, lo, hi, factor, case):
        # Scaled(c, L) has c times the worst-case risk of L, at the same theta
        loss, oracle = case
        est, interval = AffineMean(gamma, beta), Interval(lo, hi)
        base = worst_case_risk(M1, est, loss, interval)
        scaled = worst_case_risk(M1, est, scale_loss(loss, factor), interval)
        assert scaled.sup_value == pytest.approx(factor * base.sup_value, rel=1e-12)
        assert scaled.argmax_theta == base.argmax_theta
        mu = (gamma - 1.0) * base.argmax_theta + beta
        assert base.sup_value == pytest.approx(oracle(mu, gamma), rel=1e-9)

    @given(
        gamma=st.floats(min_value=0.0, max_value=1.5),
        beta=st.floats(min_value=-1.0, max_value=1.0),
        theta=st.floats(min_value=-4.0, max_value=4.0),
        other=st.floats(min_value=-4.0, max_value=4.0),
        case=st.deferred(lambda: loss_cases),
    )
    @settings(max_examples=50, deadline=None)
    def test_risk_even_and_increasing_in_shifted_mean(self, gamma, beta, theta, other, case):
        # R(gamma, beta, theta) = R(gamma, -beta, -theta), since mu flips sign;
        # by Anderson's lemma R is nondecreasing in |mu(theta)|
        loss, oracle = case

        def mu(t):
            return (gamma - 1.0) * t + beta

        def r(b, t):
            return risk(M1, AffineMean(gamma, b), loss, t, Quadrature()).value

        assert r(-beta, -theta) == pytest.approx(r(beta, theta), rel=1e-12)
        near, far = sorted((theta, other), key=lambda t: abs(mu(t)))
        assert r(beta, near) <= r(beta, far) * (1 + 1e-12)
        if abs(mu(far)) > abs(mu(near)) + 0.1:
            assert r(beta, near) < r(beta, far)
        assert r(beta, theta) == pytest.approx(oracle(mu(theta), gamma), rel=1e-9)

    def test_endpoint_sup_for_symmetric_interval(self):
        w = worst_case_risk(M1, AffineMean(0.75, 0), Power(3, 1), THETA3)
        assert abs(w.argmax_theta) == pytest.approx(3.0, abs=1e-5)

    def test_median_worst_case_is_exact(self):
        model = GaussianLocationModel(n=11)
        w = worst_case_risk(model, SampleMedian(0.3), Power(2, 1), THETA3)
        assert w.sup_value == pytest.approx(quadpack_median_risk(11, 0.3, 2.0), rel=1e-10)


class TestSupMethod:
    def test_affine_quadrature_evaluates_endpoints_only(self, risk_calls):
        # mu(theta) = -0.2 * theta - 0.1: 0.3 at theta = -2, -0.7 at theta = 3
        w = worst_case_risk(M1, AffineMean(0.8, -0.1), Power(3, 1), Interval(-2, 3))
        assert risk_calls == [3.0]
        assert (w.sup_method, w.constant_in_theta) == ("endpoints", False)
        assert w.argmax_theta == 3.0
        assert w.sup_value == pytest.approx(quadpack_power_risk(-0.7, 0.8, 3), rel=1e-9)

    def test_endpoints_is_one_risk_call(self, risk_calls):
        worst_case_risk(M1, AffineMean(0.6, 0.4), Huber(1.0), Interval(-1, 2))
        assert len(risk_calls) == 1

    def test_endpoint_with_larger_abs_mu_is_lo(self, risk_calls):
        # mu(theta) = -0.2 * theta + 0.1: 0.9 at theta = -4, -0.3 at theta = 2
        w = worst_case_risk(M1, AffineMean(0.8, 0.1), Power(2, 1), Interval(-4, 2))
        assert risk_calls == [-4.0]
        assert w.argmax_theta == -4.0
        assert w.sup_value == pytest.approx(0.9**2 + 0.8**2, rel=1e-12)

    def test_abs_mu_tie_evaluates_lo(self, risk_calls):
        # mu(theta) = -0.5 * theta: 1.5 at theta = -3, -1.5 at theta = 3
        w = worst_case_risk(M1, AffineMean(0.5, 0), Power(1.5, 1), THETA3)
        assert risk_calls == [-3.0]
        assert (w.argmax_theta, w.sup_method) == (-3.0, "endpoints")

    @given(
        gamma=st.floats(min_value=0.0, max_value=1.5),
        beta=st.floats(min_value=-1.0, max_value=1.0),
        lo=st.floats(min_value=-4.0, max_value=-0.25),
        hi=st.floats(min_value=0.25, max_value=4.0),
        case=st.deferred(lambda: loss_cases),
    )
    @settings(max_examples=50, deadline=None)
    def test_sup_is_the_larger_endpoint_risk(self, gamma, beta, lo, hi, case):
        loss, _ = case
        est = AffineMean(gamma, beta)
        w = worst_case_risk(M1, est, loss, Interval(lo, hi))
        at = [risk(M1, est, loss, t, Quadrature()).value for t in (lo, hi)]
        assert w.sup_value == pytest.approx(max(at), rel=1e-12)

    def test_median_is_one_evaluation_at_midpoint(self, risk_calls):
        model = GaussianLocationModel(n=5)
        w = worst_case_risk(model, SampleMedian(0.2), Power(2, 1), Interval(-1, 3))
        assert risk_calls == [1.0]
        assert (w.sup_method, w.constant_in_theta) == ("constant", True)
        assert w.argmax_theta == 1.0
        assert w.sup_value == risk(model, SampleMedian(0.2), Power(2, 1), -0.7, Quadrature()).value

    @pytest.mark.parametrize(
        "est",
        [
            SignPerturbed(base=AffineMean(0.9, 0), epsilon=0.1, theta_star=0.5),
            SignPerturbed(base=SampleMedian(0.0), epsilon=0.1, theta_star=0.5),
        ],
        ids=["sign_affine", "sign_median"],
    )
    def test_rule_without_exact_sup_raises_before_any_risk(self, risk_calls, est):
        with pytest.raises(QuadratureUnsupportedError, match="has no exact worst case"):
            worst_case_risk(M1, est, Power(2, 1), THETA3)
        assert risk_calls == []


def _power_case(p, c):
    return Power(p, c), lambda mu, s: c * quadpack_power_risk(mu, s, p)


def _huber_case(k):
    return Huber(k), lambda mu, s: quadpack_huber_risk(mu, s, k)


def _scaled_case(factor, p):
    return Scaled(factor, Power(p, 1)), lambda mu, s: factor * quadpack_power_risk(mu, s, p)


def _sum_case(terms):
    loss = SumLoss([Power(p, c) for c, p in terms])
    return loss, lambda mu, s: quadpack_sum_risk(mu, s, terms)


exponents = st.floats(min_value=0.5, max_value=4.0)
coefficients = st.floats(min_value=0.1, max_value=3.0)
loss_cases = st.one_of(
    st.builds(_power_case, exponents, coefficients),
    st.builds(_huber_case, st.floats(min_value=0.2, max_value=2.0)),
    st.builds(_scaled_case, st.floats(min_value=0.1, max_value=10.0), exponents),
    st.builds(_sum_case, st.lists(st.tuples(coefficients, exponents), min_size=2, max_size=3)),
)


class TestEndpointSupProperty:
    """Anderson's lemma behind the "endpoints" method, against QUADPACK."""

    @given(
        gamma=st.floats(min_value=0.0, max_value=1.5),
        beta=st.floats(min_value=-1.0, max_value=1.0),
        lo=st.floats(min_value=-4.0, max_value=-0.25),
        hi=st.floats(min_value=0.25, max_value=4.0),
        case=loss_cases,
    )
    @settings(max_examples=50, deadline=None)
    def test_dense_scan_never_beats_endpoints(self, gamma, beta, lo, hi, case):
        loss, oracle = case
        interval = Interval(lo, hi)
        w = worst_case_risk(M1, AffineMean(gamma, beta), loss, interval)

        def oracle_at(theta):
            return oracle((gamma - 1.0) * theta + beta, gamma)

        scan = max(oracle_at(float(t)) for t in np.linspace(lo, hi, 65))
        assert scan <= w.sup_value * (1 + 1e-9)
        assert w.sup_value == pytest.approx(max(oracle_at(lo), oracle_at(hi)), rel=1e-8)


class TestGoldenSection:
    def test_finds_interior_maximum(self):
        x, fx = golden_section_max(lambda x: -((x - 1.3) ** 2), 0.0, 3.0, tol=1e-8)
        assert x == pytest.approx(1.3, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_monotone_converges_to_endpoint(self):
        x, _ = golden_section_max(lambda x: x, 0.0, 1.0, tol=1e-8)
        assert x == pytest.approx(1.0, abs=1e-6)


def _negated_error_risk(model, est, loss, theta):
    """The exact risk as the loss of -(error): the literal theta - delta
    that risk() does not form.  A Gaussian error N(mu, s^2) is negated to
    N(-mu, s^2) (its point mass at s = 0 to -mu); the median's kernel
    integral takes the loss at -t, with its kinks and roots negated."""
    mu, s, weight = error_law(model, est, theta)
    if weight is None:
        if s == 0.0:
            return float(loss_of_error(loss, np.asarray([-mu]))[0])
        return gaussian_risk(loss, -mu, s)[0]
    kinks, roots = loss_breakpoints(loss)
    return gaussian_expectation(
        lambda t: loss_of_error(loss, -t) * weight((t - mu) / s), mu, s,
        kinks=tuple(-k for k in kinks), roots=tuple(-r for r in roots),
    )


class TestUnnegatedError:
    """risk() evaluates the loss at the error itself; evenness makes that
    the risk of the negated error in every bit."""

    @given(
        gamma=st.floats(min_value=-1.5, max_value=1.5),
        beta=st.floats(min_value=-2.0, max_value=2.0),
        theta=st.floats(min_value=-4.0, max_value=4.0),
        n=st.sampled_from([1, 4, 25]),
        case=loss_cases,
        median=st.booleans(),
    )
    @example(gamma=1.0, beta=0.0, theta=0.0, n=1, case=_huber_case(1.0),
             median=False)  # mu = 0: a +-0.0 root
    @example(gamma=0.5, beta=-1.0, theta=-2.0, n=1, case=_power_case(1.5, 1.0),
             median=False)  # mu = 0 again
    @example(gamma=0.0, beta=0.3, theta=1.0, n=1, case=_power_case(1.5, 1.0),
             median=False)  # s = 0: a point mass
    @example(gamma=1.0, beta=-0.4, theta=0.0, n=4, case=_huber_case(0.7), median=True)
    @settings(max_examples=150, deadline=None)
    def test_quadrature_risk_is_the_negated_integral(self, gamma, beta, theta, n, case, median):
        # an affine law keeps its bits at the mirrored mu; the median law's
        # kernel integral keeps them with the loss at the negated error
        loss, _ = case
        model = GaussianLocationModel(n=n)
        est = SampleMedian(beta) if median else AffineMean(gamma, beta)
        got = risk(model, est, loss, theta, Quadrature()).value
        assert got.hex() == _negated_error_risk(model, est, loss, theta).hex()

    @pytest.mark.parametrize("est", [
        AffineMean(0.8, 0.3),
        SampleMedian(-0.2),
        SignPerturbed(base=AffineMean(1, 0), epsilon=0.3, theta_star=0.5),
    ])
    @pytest.mark.parametrize("loss", [Power(1.5, 2), Huber(0.7), SumLoss((Power(3, 1), Huber(1)))])
    @pytest.mark.parametrize("samples", [1, 2, 3, 1000])
    def test_monte_carlo_is_np_mean_and_std(self, est, loss, samples):
        model = GaussianLocationModel(n=5)
        got = risk(model, est, loss, 0.4, MonteCarlo(samples, seed=11))
        losses = loss_of_error(loss, -error_draws(model, est, 0.4, samples, 11))
        sd = float(np.std(losses, ddof=1)) if samples > 1 else 0.0
        assert got.value.hex() == float(np.mean(losses)).hex()
        assert got.std_error.hex() == (sd / math.sqrt(samples)).hex()
