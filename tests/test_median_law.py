"""The exact law of the sample median: risks against independent oracles.

Every risk here is a quadrature risk of SampleMedian, checked against
QUADPACK on the order-statistic densities (tests/oracles.py) or against
Monte Carlo draws.  A RuntimeWarning (an overflow, a log of 0) is an error.
"""

import pytest
from hypothesis import given, settings, strategies as st

from minmax_lab.losses import Power, loss_of_error
from minmax_lab.model import GaussianLocationModel, SampleMedian, error_law
from minmax_lab.quadrature import gaussian_expectation
from minmax_lab.risk import Quadrature, crosscheck_risk, risk

from oracles import quadpack_median_risk

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def median_risk(n, beta, p, sigma=1.0):
    model = GaussianLocationModel(n=n, sigma=sigma)
    return risk(model, SampleMedian(beta), Power(p, 1), 0.0, Quadrature()).value


ODD_CASES = [(n, beta, p) for n in (1, 3, 5, 25, 101)
             for beta in (0.0, 0.03, -0.4, 1.0) for p in (1.5, 2.0, 4.0)]
EVEN_CASES = [(2, 0.03, 2.0), (2, -0.4, 4.0), (4, 0.0, 4.0), (4, -0.4, 2.0),
              (10, 0.03, 2.0), (10, 1.0, 4.0)]


@pytest.mark.parametrize("n, beta, p", ODD_CASES + EVEN_CASES)
def test_risk_matches_quadpack(n, beta, p):
    assert median_risk(n, beta, p) == pytest.approx(quadpack_median_risk(n, beta, p), rel=1e-10)


@pytest.mark.parametrize("n", [2, 5, 1000, 1001])
def test_node_doubling_changes_nothing(n):
    # risk() integrates with 200 nodes per segment; 400 agree to rounding
    mu, s, weight = error_law(GaussianLocationModel(n=n), SampleMedian(0.3), 0.0)

    def integrand(t):
        return loss_of_error(Power(2.5, 1), t) * weight((t - mu) / s)

    coarse, fine = (gaussian_expectation(integrand, mu, s, nodes=k, roots=(0.0,))
                    for k in (200, 400))
    assert coarse == pytest.approx(fine, rel=1e-12)


sizes = st.sampled_from([1, 2, 3, 4, 5, 11, 25])
shifts = st.floats(min_value=-1.5, max_value=1.5)
exponents = st.sampled_from([2.0, 4.0])


@given(n=sizes, beta=shifts, p=exponents)
@settings(max_examples=15, deadline=None)
def test_risk_is_even_in_the_shift(n, beta, p):
    # the law of the median is symmetric and the risk's nodes mirror
    assert median_risk(n, -beta, p) == median_risk(n, beta, p)
    assert median_risk(n, beta, p) == pytest.approx(quadpack_median_risk(n, beta, p), rel=1e-9)


@given(n=sizes, a=shifts, b=shifts, p=exponents)
@settings(max_examples=15, deadline=None)
def test_risk_is_nondecreasing_in_the_absolute_shift(n, a, b, p):
    # Anderson's lemma: a symmetric unimodal law and an even loss that is
    # nondecreasing in |t|
    near, far = sorted((a, b), key=abs)
    assert median_risk(n, near, p) <= median_risk(n, far, p) * (1 + 1e-12)
    assert median_risk(n, far, p) == pytest.approx(quadpack_median_risk(n, far, p), rel=1e-9)


@given(n=sizes, beta=shifts, p=exponents, c=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=15, deadline=None)
def test_risk_is_equivariant_under_scaling(n, beta, p, c):
    # sigma and beta scaled by c scale |t|^p risks by c^p
    scaled = median_risk(n, c * beta, p, sigma=c)
    assert scaled == pytest.approx(c**p * median_risk(n, beta, p), rel=1e-10)
    assert scaled == pytest.approx(c**p * quadpack_median_risk(n, beta, p), rel=1e-9)


@pytest.mark.parametrize("n", [100, 1000, 1001])
def test_quadrature_agrees_with_monte_carlo(n):
    model = GaussianLocationModel(n=n)
    quad, mc, z = crosscheck_risk(model, SampleMedian(0.02), Power(2, 1), 0.0,
                                  mc_samples=4_000, seed=11)
    assert quad.std_error == 0.0
    assert z <= 4.0
