"""Exact slopes from the kernel: Stein's identity against independent paths,
and the slope pass along the affine family's profile."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from minmax_lab.errors import NonFiniteRiskError
from minmax_lab.losses import Huber, Power, loss_breakpoints, loss_of_error
from minmax_lab.minimax import AffineMeanFamily, profile_slopes, worst_case_on_profile
from minmax_lab.model import AffineMean, GaussianLocationModel, Interval
from minmax_lab.quadrature import gaussian_expectation
from minmax_lab.risk import worst_case_risk, worst_case_slopes

from oracles import quadpack_risk_gradient


def expectation(loss, mu, s, hermite=False):
    kinks, roots = loss_breakpoints(loss)
    return gaussian_expectation(lambda t: loss_of_error(loss, t), mu, s,
                                kinks=kinks, roots=roots, hermite=hermite)


def stein_partials(loss, mu, s):
    """(R_mu, R_s, R_mumu) from the Hermite moments of one pass."""
    _, (m1, m2, _, _) = expectation(loss, mu, s, hermite=True)
    return m1 / s, m2 / s, m2 / s / s


def loss_slope(loss):
    """L' without the package: sign(t) p c |t|^(p-1), or Huber's clip."""
    if isinstance(loss, Huber):
        return lambda t: min(max(t, -loss.k), loss.k)
    return lambda t: math.copysign(loss.p * loss.c * abs(t) ** (loss.p - 1.0), t)


LOSSES = [Power(1.5), Power(2), Power(3), Power(4), Huber(1.0)]


class TestSteinIdentity:
    @pytest.mark.parametrize("loss", LOSSES, ids=repr)
    @pytest.mark.parametrize("mu", [0.0, 0.01, -0.3, 1.0])
    @pytest.mark.parametrize("s", [1.0, 0.3, 0.05, 1e-3])
    # QUADPACK reports roundoff on a component that is 0 (R_mu at mu = 0) or
    # tiny against its absolute tolerance; the assert below bounds its error
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_gradient_matches_quadpack_on_the_loss_slope(self, loss, mu, s):
        # R_mu = E L'(mu + sZ) and R_s = E[L'(mu + sZ) Z]: another integrand
        # and another quadrature; relative to the gradient's size, since R_mu
        # is 0 at mu = 0
        kinks = (-loss.k, 0.0, loss.k) if isinstance(loss, Huber) else (0.0,)
        ref = quadpack_risk_gradient(mu, s, loss_slope(loss), kinks)
        got = stein_partials(loss, mu, s)[:2]
        scale = max(abs(v) for v in ref)
        assert all(abs(a - b) <= 1e-9 * scale for a, b in zip(got, ref)), (got, ref)

    @given(
        p=st.floats(min_value=1.2, max_value=4.0),
        mu=st.floats(min_value=-2.0, max_value=2.0),
        s=st.floats(min_value=0.05, max_value=3.0),
    )
    @example(p=2.0, mu=0.0, s=1.0)
    @example(p=1.5, mu=0.01, s=0.05)
    @settings(max_examples=40, deadline=None)
    def test_heat_equation(self, p, mu, s):
        # R_s = s R_mumu: the Stein R_s of one pass against s times the
        # second difference in mu of three plain passes
        loss = Power(p)
        h = 1e-3 * s
        second = (expectation(loss, mu + h, s) - 2.0 * expectation(loss, mu, s)
                  + expectation(loss, mu - h, s)) / (h * h)
        r_s = stein_partials(loss, mu, s)[1]
        assert r_s == pytest.approx(s * second, rel=1e-5, abs=1e-9)

    def test_value_keeps_its_bits(self):
        for loss in LOSSES:
            value, _ = expectation(loss, 0.3, 0.7, hermite=True)
            assert value.hex() == expectation(loss, 0.3, 0.7).hex()

    def test_point_mass_has_no_moments(self):
        with pytest.raises(ValueError, match="s > 0"):
            expectation(Power(2), 0.3, 0.0, hermite=True)


M1 = GaussianLocationModel(n=1)
FAMILY = AffineMeanFamily(gamma_range=Interval(0, 1.5), beta_range=Interval(-1, 1))


class TestSlopePass:
    @given(
        lo=st.floats(min_value=-4.0, max_value=3.0),
        width=st.floats(min_value=0.25, max_value=6.0),
        gamma_lo=st.floats(min_value=0.05, max_value=1.2),
        gamma_width=st.floats(min_value=0.05, max_value=1.5),
        beta_lo=st.floats(min_value=-2.0, max_value=1.5),
        beta_width=st.floats(min_value=0.05, max_value=2.0),
        n=st.sampled_from((1, 4, 25)),
        loss=st.sampled_from(LOSSES),
        at=st.floats(min_value=0.0, max_value=1.0),
        on_breakpoint=st.booleans(),
    )
    # gamma = 1, a kink of |mu| at the interval ends under a clipped beta
    @example(lo=1.0, width=4.0, gamma_lo=0.5, gamma_width=1.0, beta_lo=-1.0,
             beta_width=1.2, n=1, loss=Power(4), at=0.5, on_breakpoint=True)
    # a clip point of beta* = (1 - gamma) * mid
    @example(lo=-2.0, width=3.0, gamma_lo=0.5, gamma_width=1.0, beta_lo=-0.2,
             beta_width=0.5, n=1, loss=Power(2), at=0.0, on_breakpoint=True)
    @settings(max_examples=60, deadline=None)
    def test_one_sided_slopes_match_one_sided_quotients(
        self, lo, width, gamma_lo, gamma_width, beta_lo, beta_width, n, loss, at,
        on_breakpoint,
    ):
        theta = Interval(lo, lo + width)
        family = AffineMeanFamily(gamma_range=Interval(gamma_lo, gamma_lo + gamma_width),
                                  beta_range=Interval(beta_lo, beta_lo + beta_width))
        model = GaussianLocationModel(n=n)
        points = family.breakpoints(theta)
        x = (points[min(int(at * len(points)), len(points) - 1)] if on_breakpoint
             else gamma_lo + at * gamma_width)
        result = profile_slopes(model, family, x, loss, theta)
        h = 1e-6
        r0 = result.sup_value
        for side, (slope, curv) in enumerate(zip(result.slopes, result.curvatures)):
            sign = 1.0 if side else -1.0
            quotient = sign * (worst_case_on_profile(model, family, x + sign * h, loss,
                                                     theta).sup_value - r0) / h
            # the quotient's own error is h R'' / 2 to first order
            expected = quotient - sign * 0.5 * h * curv
            assert slope == pytest.approx(expected, rel=1e-4, abs=1e-5 * max(1.0, r0))

    @pytest.mark.parametrize("gamma", [0.3, 0.9, 1.0, 1.2])
    def test_worst_case_is_worst_case_risk_bit_for_bit(self, gamma):
        est = AffineMean(gamma, 0.1)
        for loss in LOSSES:
            result = worst_case_slopes(M1, est, loss, Interval(-2, 3), (1.0, 1.0))
            assert result == worst_case_risk(M1, est, loss, Interval(-2, 3))

    def test_gamma_zero_is_rejected(self):
        with pytest.raises(ValueError, match="gamma != 0"):
            worst_case_slopes(M1, AffineMean(0.0), Power(2), Interval(-3, 3), (1.0, 1.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_slope_raises(self):
        # R_4 = 4.1e307 is finite at this interval's end, its slope is not
        theta = Interval(-2e77, 2e77)
        family = AffineMeanFamily(gamma_range=Interval(0.5, 0.6), beta_range=Interval(-1, 1))
        assert math.isfinite(worst_case_on_profile(M1, family, 0.55, Power(4), theta).sup_value)
        with pytest.raises(NonFiniteRiskError, match="risk derivative is not finite"):
            profile_slopes(M1, family, 0.55, Power(4), theta)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_value_raises(self):
        theta = Interval(-1e100, 1e100)
        with pytest.raises(NonFiniteRiskError, match="risk is not finite"):
            profile_slopes(M1, FAMILY, 0.5, Power(4), theta)
