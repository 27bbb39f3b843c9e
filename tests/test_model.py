"""Model, estimator specs, error draws and the exact error law."""

import math

import numpy as np
import pytest

from minmax_lab.errors import OracleEstimatorError, QuadratureUnsupportedError
from minmax_lab.model import (
    AffineMean,
    GaussianLocationModel,
    Interval,
    SampleMedian,
    SignPerturbed,
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

    def test_model_requires_positive_n_and_sigma(self):
        with pytest.raises(ValueError):
            GaussianLocationModel(n=0)
        with pytest.raises(ValueError):
            GaussianLocationModel(n=3, sigma=0.0)
        with pytest.raises(ValueError):
            GaussianLocationModel(n=2.5)

    def test_sign_perturbed_depth_one(self):
        inner = SignPerturbed(base=AffineMean(1, 0), epsilon=0.1, theta_star=0.0)
        with pytest.raises(ValueError):
            SignPerturbed(base=inner, epsilon=0.1, theta_star=0.0)

    def test_sign_perturbed_needs_positive_epsilon(self):
        with pytest.raises(ValueError):
            SignPerturbed(base=AffineMean(1, 0), epsilon=0.0, theta_star=0.0)


class TestErrorLaw:
    def test_unbiased_identity_case(self):
        assert error_law(GaussianLocationModel(n=1), AffineMean(1, 0), theta=5.0) == (0.0, 1.0)

    def test_scale_is_sigma_over_sqrt_n(self):
        assert error_law(GaussianLocationModel(n=4), AffineMean(1, 0), theta=0.0) == (0.0, 0.5)

    def test_biased_affine_case(self):
        mu, s = error_law(GaussianLocationModel(n=1), AffineMean(0.8, 0.1), theta=2.0)
        # mu = (gamma - 1) * theta + beta
        assert mu == pytest.approx(-0.3, abs=1e-12)
        assert s == pytest.approx(0.8, abs=1e-12)

    def test_identity_weight_is_theta_free(self):
        model = GaussianLocationModel(n=7, sigma=2.0)
        laws = {error_law(model, AffineMean(1.0, 0.25), t) for t in (-8.0, 0.0, 3.5)}
        assert len(laws) == 1

    def test_median_has_no_gaussian_law(self):
        with pytest.raises(QuadratureUnsupportedError):
            error_law(GaussianLocationModel(n=5), SampleMedian(0.0), theta=1.0)

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
