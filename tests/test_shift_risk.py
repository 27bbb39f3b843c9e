"""Properties of the shifted-mean risk R(alpha) = E|Z/sqrt(n) - alpha|^q.

Each property checks `mean_shift_risk` or `mean_shift_risk_deriv` against
an oracle from tests/oracles.py that takes another numerical path: the
closed form of the power risk, or QUADPACK on the loss slope.  The
derivative d R / d alpha is -R_mu of R(mu, s) = E|mu + s*Z|^q at
mu = -alpha, s = 1/sqrt(n).
"""

import math
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from minmax_lab.errors import NonFiniteRiskError
from minmax_lab.exclusivity import mean_shift_risk, mean_shift_risk_deriv

from oracles import closed_form_power_risk, quadpack_power_risk, quadpack_risk_gradient

LOG_MAX = math.log(sys.float_info.max)


def shifts(lo, hi):
    """Signed shifts whose log10 |alpha| is drawn from [lo, hi]."""
    return st.builds(lambda e, sign: sign * 10.0**e, st.floats(lo, hi),
                     st.sampled_from([1.0, -1.0]))


SHIFTS = st.one_of(st.just(0.0), shifts(-3.0, 12.0))
SIZES = st.integers(1, 30)
EXPONENTS = st.floats(1.1, 20.0)


def oracle_deriv(alpha, s, q):
    """d/d(alpha) of E|s*Z - alpha|^q by QUADPACK on the slope of |t|^q."""
    def slope(t):
        return q * math.copysign(abs(t) ** (q - 1.0), t)

    return -quadpack_risk_gradient(-alpha, s, slope, kinks=(0.0,))[0]


@settings(deadline=None)
@given(alpha=SHIFTS, n=SIZES, q=EXPONENTS)
def test_value_is_the_closed_form(alpha, n, q):
    expected = closed_form_power_risk(-alpha, 1.0 / math.sqrt(n), q)
    assert mean_shift_risk(alpha, n, q) == pytest.approx(expected, rel=1e-10)


@settings(deadline=None)
@given(alpha=SHIFTS, n=SIZES, q=EXPONENTS)
def test_value_is_even_in_the_shift(alpha, n, q):
    value, mirrored = mean_shift_risk(alpha, n, q), mean_shift_risk(-alpha, n, q)
    assert mirrored == pytest.approx(value, rel=1e-12)
    # the closed form depends on the shift through its square only
    assert mirrored == pytest.approx(closed_form_power_risk(alpha, 1.0 / math.sqrt(n), q),
                                     rel=1e-10)


@settings(deadline=None)
@given(alpha=SHIFTS, n=SIZES, q=EXPONENTS)
def test_analytic_derivative_is_the_quadpack_slope(alpha, n, q):
    expected = oracle_deriv(alpha, 1.0 / math.sqrt(n), q)
    assert mean_shift_risk_deriv(alpha, n, q, "analytic") == pytest.approx(
        expected, rel=1e-9, abs=1e-12
    )


@settings(deadline=None)
@given(alpha=SHIFTS, n=SIZES, q=EXPONENTS)
# 2 * alpha, which a step of 1e-5 is too small to resolve next to alpha^2
@example(alpha=1e8, n=1, q=2.0)
@example(alpha=1e11, n=1, q=2.0)
@example(alpha=1e12, n=1, q=2.0)
def test_finite_difference_tracks_the_analytic_derivative(alpha, n, q):
    analytic = mean_shift_risk_deriv(alpha, n, q, "analytic")
    fd = mean_shift_risk_deriv(alpha, n, q, "fd")
    # the round-off of a quotient of risks, relative to the step
    scale = abs(analytic) + mean_shift_risk(alpha, n, q) / max(1.0, abs(alpha))
    assert abs(fd - analytic) <= 1e-6 * scale


def log_oracles(alpha, n, q):
    """ln R and ln |d R / d alpha| without overflow, by QUADPACK at the
    scale c = |alpha| + 15 s: R(alpha, s) = c^q R(alpha/c, s/c), and the
    derivative scales by c^(q-1)."""
    s = 1.0 / math.sqrt(n)
    c = abs(alpha) + 15.0 * s
    value = quadpack_power_risk(-alpha / c, s / c, q)
    deriv = oracle_deriv(alpha / c, s / c, q)
    return q * math.log(c) + math.log(value), (q - 1.0) * math.log(c) + math.log(abs(deriv))


def calls(alpha, n, q):
    return {
        "value": lambda: mean_shift_risk(alpha, n, q),
        "analytic": lambda: mean_shift_risk_deriv(alpha, n, q, "analytic"),
        "fd": lambda: mean_shift_risk_deriv(alpha, n, q, "fd"),
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None)
@given(alpha=shifts(6.0, 300.0), n=SIZES, q=st.floats(1.1, 50.0))
# the risk and its derivative overflow by far, the derivative with q = 4
@example(alpha=1e150, n=1, q=4.0)
def test_overflow_is_a_non_finite_risk_error(alpha, n, q):
    log_r, log_d = log_oracles(alpha, n, q)
    assume(abs(log_r - LOG_MAX) > 0.01 and abs(log_d - LOG_MAX) > 0.01)
    # the fd quotient takes risks a step further out than alpha
    expected = {"value": log_r, "analytic": log_d, "fd": log_d if log_r < LOG_MAX else math.inf}
    for mode, call in calls(alpha, n, q).items():
        if expected[mode] > LOG_MAX:
            with pytest.raises(NonFiniteRiskError):
                call()
        else:
            assert math.log(abs(call())) == pytest.approx(expected[mode], abs=1e-6)


# at q = 1000 the signed powers overflow with both signs, so their sum is nan
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("alpha, q", [(2.0, 1000.0), (-2.0, 1000.0), (1e150, 4.0)])
def test_every_mode_raises_where_both_oracles_overflow(alpha, q):
    assert min(log_oracles(alpha, 1, q)) > LOG_MAX
    for call in calls(alpha, 1, q).values():
        with pytest.raises(NonFiniteRiskError):
            call()


# The kernel truncates at |z| = 15, which keeps E|Z|^q to 2e-11 relative up
# to q = 100; at alpha = 0 the bulk of |t|^q phi(z) lies farthest out (near
# z = sqrt(q)), so a zero shift bounds the truncation error for every alpha.
@settings(deadline=None)
@given(n=SIZES, q=st.floats(1.1, 100.0))
@example(n=1, q=100.0)
def test_value_up_to_the_exponent_bound_is_the_closed_form(n, q):
    expected = closed_form_power_risk(0.0, 1.0 / math.sqrt(n), q)
    assert mean_shift_risk(0.0, n, q) == pytest.approx(expected, rel=1e-10)


def no_quadrature(*args, **kwargs):
    raise AssertionError("a quadrature ran")


@settings(deadline=None)
@given(alpha=st.one_of(st.just(0.0), shifts(-3.0, 3.0)), n=SIZES,
       q=st.floats(100.0, 1000.0, exclude_min=True))
# the truncated kernel gave 1/8 of the risk at q = 250, and a finite value
# at q = 700, n = 30, where the true risk overflows
@example(alpha=0.0, n=1, q=250.0)
@example(alpha=0.0, n=30, q=700.0)
def test_exponent_above_the_bound_is_refused_before_any_quadrature(alpha, n, q):
    with mock.patch("minmax_lab.risk.gaussian_expectation", no_quadrature), \
            mock.patch("minmax_lab.exclusivity.gaussian_expectation", no_quadrature):
        for call in calls(alpha, n, q).values():
            with pytest.raises(NonFiniteRiskError, match="power exponent .* is above 100.0"):
                call()
