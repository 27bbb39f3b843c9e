"""The closed-form Gaussian risk R(mu, s) = E L(mu + s*Z) and its five
partials against QUADPACK, and the slope pass along the affine family's
profile built on them."""

import functools
import math
import struct
from typing import Callable, NamedTuple, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from minmax_lab.closed_form import FAR, gaussian_risk
from minmax_lab.errors import NonFiniteRiskError
from minmax_lab.losses import Huber, Power, Scaled, SumLoss
from minmax_lab.minimax import AffineMeanFamily, profile_slopes, worst_case_on_profile
from minmax_lab.model import AffineMean, GaussianLocationModel, Interval
from minmax_lab.risk import worst_case_risk, worst_case_slopes

from oracles import quadpack_huber_risk, quadpack_power_risk, quadpack_risk_gradient, quadpack_sum_risk


def power_slope(p, c):
    """L' of c|t|^p without the package: sign(t) c p |t|^(p-1)."""
    return lambda t: math.copysign(c * p * abs(t) ** (p - 1.0), t)


class Case(NamedTuple):
    """A loss with its oracles: `risk` (mu, s) by QUADPACK, and its slope L'
    with the kinks of L' for `quadpack_risk_gradient`.  `length(mu, s)` is
    a length in mu and s over which the risk is smooth, which sets the step
    of the second differences: max(|mu|, s) / (1 + p) for powers, and s for
    Huber, whose elbows the normal smooths over s only.  The case is
    evaluated where max(|mu|, s) = `size`: 1 for powers, so that no risk up
    to p = 100 overflows, and up to 1e6 for Huber, whose risk grows only
    linearly."""

    loss: object
    risk: Callable[[float, float], float]
    slope: Callable[[float], float]
    kinks: Tuple[float, ...]
    length: Callable[[float, float], float]
    size: float = 1.0


def power_length(p):
    return lambda mu, s: max(abs(mu), s) / (1.0 + p)


def power_case(p, c):
    return Case(Power(p, c), lambda mu, s: c * quadpack_power_risk(mu, s, p),
                power_slope(p, c), (0.0,), power_length(p))


def huber_case(k, size=1.0):
    return Case(Huber(k), lambda mu, s: quadpack_huber_risk(mu, s, k),
                lambda t: min(max(t, -k), k), (-k, k), lambda mu, s: s, size)


def sum_case(terms, factor):
    """factor * (sum of c|t|^p), a Scaled SumLoss; by linearity its
    oracles are the terms' summed."""
    slopes = [power_slope(p, c) for c, p in terms]
    return Case(Scaled(factor, SumLoss([Power(p, c) for c, p in terms])),
                lambda mu, s: factor * quadpack_sum_risk(mu, s, terms),
                lambda t: factor * sum(slope(t) for slope in slopes), (0.0,),
                power_length(max(p for _, p in terms)))


def log_uniform(lo, hi):
    return st.builds(lambda e: 10.0**e, st.floats(math.log10(lo), math.log10(hi)))


EXPONENTS = st.floats(0.5, 100.0)
COEFFICIENTS = st.floats(0.1, 3.0)
CASES = st.one_of(
    st.builds(power_case, EXPONENTS, COEFFICIENTS),
    st.builds(huber_case, st.floats(0.2, 2.0), st.one_of(st.just(1.0), log_uniform(1.0, 1e6))),
    st.builds(sum_case, st.lists(st.tuples(COEFFICIENTS, EXPONENTS), min_size=2, max_size=3),
              st.floats(0.1, 10.0)),
)
#: |mu/s| on both sides of the switch to the large-|mu/s| expansion at FAR,
#: up to 1e6
RATIOS = st.one_of(st.just(0.0), st.floats(0.0, 2.0 * FAR), log_uniform(1e-3, 1e6))
SIGNS = st.sampled_from([1.0, -1.0])


def point(ratio, sign, size):
    """(mu, s) with |mu/s| = ratio and max(|mu|, s) = size."""
    if ratio <= 1.0:
        return sign * ratio * size, size
    return sign * size, size / ratio


LOSSES = [Power(1.5), Power(2), Power(3), Power(4), Huber(1.0)]


def loss_slope(loss):
    """L' of a loss in LOSSES, and the kinks of L'."""
    if isinstance(loss, Huber):
        return lambda t: min(max(t, -loss.k), loss.k), (-loss.k, loss.k)
    return power_slope(loss.p, loss.c), (0.0,)


# QUADPACK reports roundoff where a component is 0 (R_mu at mu = 0) or
# tiny against its absolute tolerance; each assert bounds its error
quadpack_warnings = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


class TestClosedForm:
    @given(case=CASES, ratio=RATIOS, sign=SIGNS)
    @example(case=power_case(100.0, 1.0), ratio=0.0, sign=1.0)
    @example(case=power_case(0.5, 1.0), ratio=FAR, sign=-1.0)
    @example(case=power_case(3.3, 1.0), ratio=1e6, sign=1.0)
    @example(case=huber_case(1.0), ratio=1e6, sign=-1.0)
    @example(case=huber_case(1.0, 1e6), ratio=1e-3, sign=1.0)  # both elbows near the mean
    @settings(max_examples=150, deadline=None)
    @quadpack_warnings
    def test_value_matches_quadpack(self, case, ratio, sign):
        mu, s = point(ratio, sign, case.size)
        assert gaussian_risk(case.loss, mu, s)[0] == pytest.approx(case.risk(mu, s), rel=1e-12)

    @pytest.mark.parametrize("loss, mu, s, oracle", [
        (Power(24), 0.25, 0.25 / 9, lambda mu, s: quadpack_power_risk(mu, s, 24)),
        (Huber(1.0), 1e-5, 1e-6, lambda mu, s: quadpack_huber_risk(mu, s, 1.0)),
    ], ids=["power", "huber"])
    def test_risk_below_a_fixed_tolerance_matches_quadpack(self, loss, mu, s, oracle):
        # risks of 5.5e-14 and 5.05e-11: the oracles' absolute tolerance
        # scales with the risk, where a fixed 1e-13 let the power risk come
        # back 1.2% low
        assert gaussian_risk(loss, mu, s)[0] == pytest.approx(oracle(mu, s), rel=1e-12)

    @given(case=CASES, ratio=RATIOS, sign=SIGNS)
    @example(case=power_case(1.5, 1.0), ratio=0.0, sign=1.0)
    @example(case=power_case(0.5, 2.0), ratio=FAR, sign=1.0)
    @example(case=power_case(100.0, 1.0), ratio=1e6, sign=-1.0)
    @example(case=huber_case(0.5), ratio=3.0, sign=1.0)
    @settings(max_examples=100, deadline=None)
    @quadpack_warnings
    def test_gradient_matches_quadpack_on_the_loss_slope(self, case, ratio, sign):
        # R_mu = E L'(mu + sZ) and R_s = E[L'(mu + sZ) Z]: another integrand
        # and another quadrature; relative to the gradient's size, since
        # R_mu is 0 at mu = 0
        mu, s = point(ratio, sign, case.size)
        ref = quadpack_risk_gradient(mu, s, case.slope, case.kinks)
        got = gaussian_risk(case.loss, mu, s)[1:3]
        size = max(abs(v) for v in ref)
        assert all(abs(a - b) <= 1e-9 * size for a, b in zip(got, ref)), (got, ref)

    @pytest.mark.parametrize("loss", LOSSES, ids=repr)
    @pytest.mark.parametrize("mu", [0.0, 0.01, -0.3, 1.0])
    @pytest.mark.parametrize("s", [1.0, 0.3, 0.05, 1e-3])
    @quadpack_warnings
    def test_gradient_matches_quadpack_on_a_grid(self, loss, mu, s):
        # the same check on a fixed grid of small and large |mu/s|
        ref = quadpack_risk_gradient(mu, s, *loss_slope(loss))
        got = gaussian_risk(loss, mu, s)[1:3]
        size = max(abs(v) for v in ref)
        assert all(abs(a - b) <= 1e-9 * size for a, b in zip(got, ref)), (got, ref)

    @given(case=CASES, ratio=RATIOS, sign=SIGNS)
    @example(case=power_case(2.0, 1.0), ratio=0.0, sign=1.0)
    @example(case=power_case(0.5, 1.0), ratio=0.5, sign=-1.0)
    @example(case=power_case(77.7, 1.0), ratio=FAR, sign=1.0)
    @example(case=power_case(1.1, 1.0), ratio=1e6, sign=1.0)
    @example(case=huber_case(1.0), ratio=1.0, sign=1.0)
    @example(case=huber_case(0.5, 1e5), ratio=0.0, sign=1.0)
    @settings(max_examples=60, deadline=None)
    @quadpack_warnings
    def test_second_partials_match_second_differences(self, case, ratio, sign):
        # R_mumu, R_mus and R_ss against second differences of QUADPACK
        # values: the closed form takes R_mumu from the heat equation
        # R_s = s R_mumu, which alone would check nothing.  The step is
        # 3e-3 of the case's length, and Richardson's extrapolation from
        # steps h and h/2 takes out the differences' h^2 error.
        oracle = case.risk
        if isinstance(case.loss, Huber):
            ratio = min(ratio, 30.0)  # past it the step would resolve no Hessian
        mu, s = point(ratio, sign, case.size)
        got = gaussian_risk(case.loss, mu, s)
        h = 3e-3 * case.length(mu, s)
        r0 = oracle(mu, s)

        def differences(h):
            def f(dm, ds):
                # R is even in s, and smooth through s = 0 away from mu = 0
                return oracle(mu + dm * h, abs(s + ds * h))

            return ((f(1, 0) - 2.0 * r0 + f(-1, 0)) / (h * h),
                    (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4.0 * h * h),
                    (f(0, 1) - 2.0 * r0 + f(0, -1)) / (h * h))

        ref = [(4.0 * fine - coarse) / 3.0
               for coarse, fine in zip(differences(h), differences(0.5 * h))]
        # the Hessian's size, or the one the gradient sets over R / |grad R|
        grad = max(abs(got[1]), abs(got[2]))
        size = max(max(abs(v) for v in ref), grad * grad / got[0])
        assert all(abs(a - b) <= 1e-6 * size for a, b in zip(got[3:], ref)), (got[3:], ref)

    @given(p=EXPONENTS, sign=SIGNS, s=st.floats(1e-3, 2.0))
    @example(p=0.5, sign=1.0, s=1.0)
    @example(p=100.0, sign=-1.0, s=1.0)
    @example(p=2.0, sign=1.0, s=0.7)
    @settings(max_examples=100, deadline=None)
    def test_continuous_at_the_switch(self, p, sign, s):
        # FAR * s is the last |mu| the series takes; the next float up is
        # the expansion's
        inner = sign * FAR * s
        outer = math.nextafter(inner, sign * math.inf)
        a, b = gaussian_risk(Power(p), inner, s), gaussian_risk(Power(p), outer, s)
        assert b[0] == pytest.approx(a[0], rel=1e-13)
        grad = max(abs(a[1]), abs(a[2]))
        for u, v in zip(a[1:3], b[1:3]):
            assert abs(u - v) <= 1e-12 * grad
        hess = max(abs(v) for v in a[3:]) + grad * grad / a[0]
        for u, v in zip(a[3:], b[3:]):
            assert abs(u - v) <= 1e-9 * hess

    def test_even_powers_are_polynomials(self):
        # E(mu + sZ)^2 = mu^2 + s^2 and E(mu + sZ)^4 = mu^4 + 6 mu^2 s^2 + 3 s^4,
        # on both sides of the switch
        for mu, s in ((0.3, 0.7), (-20.0, 0.5), (1e8, 1.0)):
            r = gaussian_risk(Power(2), mu, s)
            assert r == pytest.approx((mu * mu + s * s, 2 * mu, 2 * s, 2, 0, 2),
                                      rel=1e-13, abs=1e-12)
            r4 = gaussian_risk(Power(4), mu, s)
            assert r4[0] == pytest.approx(mu**4 + 6 * mu**2 * s**2 + 3 * s**4, rel=1e-13)

    @pytest.mark.parametrize("terms", [
        (Power(1.5, 3), Power(3, 1)),
        (Huber(1.0), Scaled(2.0, Power(2, 2)), Power(0.7, 0.4)),
        (Scaled(0.3, Huber(0.2)), Scaled(7.0, Power(4.5)), Huber(3.0), Power(1.1)),
    ], ids=repr)
    @pytest.mark.parametrize("mu, s", [(0.3, 0.7), (-0.0, 1.0), (-20.0, 0.5)])
    def test_flat_specs_keep_their_bits(self, terms, mu, s):
        # a factor multiplies its atom's partials, and a flat sum adds its
        # terms' partials left to right
        def bits(values):
            return struct.pack("<6d", *values)

        for term in terms:
            if isinstance(term, Scaled):
                assert bits(gaussian_risk(term, mu, s)) == bits(
                    [term.factor * v for v in gaussian_risk(term.inner, mu, s)])
        expected = functools.reduce(lambda a, b: [x + y for x, y in zip(a, b)],
                                    [gaussian_risk(term, mu, s) for term in terms])
        assert bits(gaussian_risk(SumLoss(terms), mu, s)) == bits(expected)

    def test_overflow_is_inf(self):
        # s**p overflows in Python floats; the risk is then inf, not an error
        assert gaussian_risk(Power(4), 0.0, 1e100)[0] == math.inf
        assert gaussian_risk(Power(4), 1e100, 1.0)[0] == math.inf

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_scale_must_be_positive(self, s):
        with pytest.raises(ValueError, match="s must be > 0"):
            gaussian_risk(Power(2), 0.3, s)


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
