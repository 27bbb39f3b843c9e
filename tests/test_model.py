"""Model, estimator specs, error draws and the exact error law."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from minmax_lab.errors import OracleEstimatorError, QuadratureUnsupportedError
from minmax_lab.model import (
    AffineMean,
    GaussianLocationModel,
    Interval,
    SampleMedian,
    SignPerturbed,
    _standard_median_errors,
    derive_seed,
    error_draws,
    error_law,
)


class TestValidation:
    def test_interval_requires_order(self):
        with pytest.raises(ValueError):
            Interval(3, 3)
        with pytest.raises(ValueError):
            Interval(2, -2)
        with pytest.raises(ValueError):
            Interval(0, math.inf)

    @given(a=st.floats(allow_nan=False, allow_infinity=False),
           b=st.floats(allow_nan=False, allow_infinity=False))
    @example(a=1e308, b=1.7e308)
    @example(a=-1.7e308, b=-1.6e308)
    @example(a=-1e308, b=1e308)
    @example(a=5e-324, b=1e-323)  # halving each end first rounds differently
    def test_midpoint_is_finite_inside_and_keeps_its_bits(self, a, b):
        assume(a != b)
        lo, hi = min(a, b), max(a, b)
        mid = Interval(lo, hi).midpoint
        assert lo <= mid <= hi
        # within one unit in the last place of the exact midpoint
        assert abs(Fraction(mid) - (Fraction(lo) + Fraction(hi)) / 2) <= Fraction(math.ulp(mid))
        if math.isfinite(lo + hi):
            # the plain formula wherever it does not overflow, bit for bit
            assert mid.hex() == (0.5 * (lo + hi)).hex()

    def test_model_requires_positive_n_and_sigma(self):
        for n in (0, -1, 2.5, math.inf, -math.inf, math.nan, "3", None):
            with pytest.raises(ValueError, match="n must be a positive integer, got"):
                GaussianLocationModel(n=n)
        assert GaussianLocationModel(n=10**400).n == 10**400
        assert GaussianLocationModel(n=4.0).n == 4
        with pytest.raises(ValueError):
            GaussianLocationModel(n=3, sigma=0.0)

    def test_sign_perturbed_depth_one(self):
        inner = SignPerturbed(base=AffineMean(1, 0), epsilon=0.1, theta_star=0.0)
        with pytest.raises(ValueError):
            SignPerturbed(base=inner, epsilon=0.1, theta_star=0.0)

    def test_sign_perturbed_needs_positive_epsilon(self):
        with pytest.raises(ValueError):
            SignPerturbed(base=AffineMean(1, 0), epsilon=0.0, theta_star=0.0)


class TestErrorLaw:
    def test_unbiased_identity_case(self):
        law = error_law(GaussianLocationModel(n=1), AffineMean(1, 0), theta=5.0)
        assert law == (0.0, 1.0, None)

    def test_scale_is_sigma_over_sqrt_n(self):
        law = error_law(GaussianLocationModel(n=4), AffineMean(1, 0), theta=0.0)
        assert law == (0.0, 0.5, None)

    def test_biased_affine_case(self):
        mu, s, weight = error_law(GaussianLocationModel(n=1), AffineMean(0.8, 0.1), theta=2.0)
        assert weight is None
        # mu = (gamma - 1) * theta + beta
        assert mu == pytest.approx(-0.3, abs=1e-12)
        assert s == pytest.approx(0.8, abs=1e-12)

    def test_identity_weight_is_theta_free(self):
        model = GaussianLocationModel(n=7, sigma=2.0)
        laws = {error_law(model, AffineMean(1.0, 0.25), t) for t in (-8.0, 0.0, 3.5)}
        assert len(laws) == 1

    @pytest.mark.parametrize("n", [4, 5])
    def test_median_law_is_theta_free_and_scaled(self, n):
        # error = beta + sigma * M, M = sqrt(pi / (2n)) * Y
        model = GaussianLocationModel(n=n, sigma=2.0)
        mu, s, weight = error_law(model, SampleMedian(0.25), theta=1.0)
        assert (mu, s) == (0.25, 2.0 * math.sqrt(math.pi / (2 * n)))
        assert error_law(model, SampleMedian(0.25), theta=-7.0)[2] is weight

    def test_sign_perturbed_has_no_exact_law(self):
        est = SignPerturbed(base=SampleMedian(0.0), epsilon=0.1, theta_star=0.0)
        with pytest.raises(QuadratureUnsupportedError, match="no exact Gaussian error law"):
            error_law(GaussianLocationModel(n=5), est, theta=1.0)

    def test_rejects_callable_rules(self):
        theta = 1.7
        with pytest.raises(OracleEstimatorError):
            error_law(GaussianLocationModel(n=1), lambda x: theta, theta)


class TestSimulation:
    def test_equal_seeds_bit_identical(self):
        model = GaussianLocationModel(n=3)
        a = 1.0 + error_draws(model, AffineMean(0.9, 0.1), 1.0, 1000, seed=11)
        b = 1.0 + error_draws(model, AffineMean(0.9, 0.1), 1.0, 1000, seed=11)
        assert np.array_equal(a, b)

    def test_split_seeds_differ(self):
        model = GaussianLocationModel(n=3)
        master = 5
        a = 0.0 + error_draws(model, AffineMean(1, 0), 0.0, 1000, derive_seed(master, 0))
        b = 0.0 + error_draws(model, AffineMean(1, 0), 0.0, 1000, derive_seed(master, 1))
        assert not np.array_equal(a, b)

    def test_constant_estimator(self):
        model = GaussianLocationModel(n=2, sigma=3.0)
        draws = -4.0 + error_draws(model, AffineMean(0.0, 3.5), theta=-4.0, count=5, seed=0)
        assert draws.tolist() == [3.5] * 5

    def test_sample_mean_clt_bound(self):
        model = GaussianLocationModel(n=1)
        draws = 0.0 + error_draws(model, AffineMean(1, 0), 0.0, 10**6, seed=7)
        assert abs(draws.mean()) < 4 / math.sqrt(10**6)

    def test_median_sampling_variance(self):
        # sample variance of the median should track sigma^2 * pi / (2n)
        model = GaussianLocationModel(n=101)
        draws = 0.0 + error_draws(model, SampleMedian(0.0), 0.0, 10**5, seed=1)
        target = math.pi / (2 * 101)
        assert abs(draws.var(ddof=1) - target) / target < 0.10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 25, 101])
    @pytest.mark.parametrize("count", [1, 2, 1000])
    def test_median_draws_are_np_median_bit_for_bit(self, n, count):
        seed = 17 * n + count
        got = _standard_median_errors(n, count, seed)
        rows = np.random.default_rng(seed).standard_normal((count, n))
        want = np.median(rows, axis=1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable

    def test_sign_perturbed_moves_toward_target(self):
        model = GaussianLocationModel(n=1)
        base = AffineMean(1, 0)
        pert = SignPerturbed(base=base, epsilon=0.25, theta_star=0.0)
        base_draws = 0.0 + error_draws(model, base, 0.0, 2000, seed=9)
        pert_draws = 0.0 + error_draws(model, pert, 0.0, 2000, seed=9)
        np.testing.assert_allclose(
            pert_draws, base_draws - 0.25 * np.sign(base_draws), atol=1e-12
        )


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)

    def test_counters_give_distinct_streams(self):
        seeds = {derive_seed(42, k) for k in range(64)}
        assert len(seeds) == 64
