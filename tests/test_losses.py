"""Loss evaluation, the scaling cone, and the exponent classifier."""

import pytest
from hypothesis import given, settings, strategies as st

from minmax_lab.errors import DegenerateLossError, NonPositiveScaleError
from minmax_lab.losses import (
    Huber,
    Power,
    Scaled,
    SumLoss,
    classify_exponent,
    loss_of_error,
    scale_loss,
)

finite_theta = st.floats(min_value=-10, max_value=10, allow_nan=False)

any_loss = st.sampled_from(
    [
        Power(2, 1),
        Power(1.5, 3),
        Power(0.7, 0.4),
        Huber(1.0),
        Huber(0.3),
        Scaled(2.5, Power(3, 1)),
        SumLoss((Power(1.5, 3), Power(3, 1))),
        SumLoss((Huber(1.0), Power(2, 2))),
    ]
)


class TestEval:
    def test_power(self):
        assert loss_of_error(Power(2, 1), 3 - 1) == 4

    def test_huber_quadratic_branch(self):
        assert loss_of_error(Huber(1), 0 - 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_huber_linear_branch(self):
        # k|t| - k^2/2 at t = 2, k = 1
        assert loss_of_error(Huber(1), 0 - 2.0) == pytest.approx(1.5, abs=1e-15)

    def test_sum(self):
        loss = SumLoss((Power(1.5, 3), Power(3, 1)))
        assert loss_of_error(loss, 0 - 1) == pytest.approx(4.0, abs=1e-12)

    @given(loss=any_loss, theta=finite_theta, a=finite_theta)
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_and_zero_on_diagonal(self, loss, theta, a):
        assert loss_of_error(loss, theta - a) >= 0
        assert loss_of_error(loss, theta - theta) == 0

    @given(loss=any_loss, theta=finite_theta, a=finite_theta)
    @settings(max_examples=300, deadline=None)
    def test_symmetric_in_error(self, loss, theta, a):
        assert loss_of_error(loss, theta - a) == loss_of_error(loss, a - theta)


class TestScaling:
    def test_scale_power(self):
        scaled = scale_loss(Power(2, 1), 3.0)
        assert loss_of_error(scaled, 2 - 0) == pytest.approx(12.0, abs=1e-15)

    def test_scale_huber(self):
        scaled = scale_loss(Huber(1), 2.0)
        assert loss_of_error(scaled, 0.5 - 0) == pytest.approx(0.25, abs=1e-15)

    def test_negative_factor_rejected(self):
        with pytest.raises(NonPositiveScaleError):
            scale_loss(Power(2, 1), -1.0)
        with pytest.raises(NonPositiveScaleError):
            scale_loss(Power(2, 1), 0.0)

    @given(loss=any_loss, factor=st.floats(min_value=0.01, max_value=100), t=finite_theta)
    @settings(max_examples=200, deadline=None)
    def test_scaling_is_pointwise(self, loss, factor, t):
        assert loss_of_error(scale_loss(loss, factor), t) == pytest.approx(
            factor * loss_of_error(loss, t), rel=1e-12
        )


class TestClassifier:
    def test_pure_power_is_exact(self):
        result = classify_exponent(Power(2, 1), window=(1e-4, 1e-2))
        assert result.p_hat == pytest.approx(2.0, abs=1e-6)
        assert result.c_hat == pytest.approx(1.0, abs=1e-6)

    def test_smaller_exponent_dominates_sum(self):
        loss = SumLoss((Power(1.5, 3), Power(3, 1)))
        result = classify_exponent(loss, window=(1e-5, 1e-3))
        assert result.p_hat == pytest.approx(1.5, abs=0.01)
        assert result.c_hat == pytest.approx(3.0, rel=0.02)

    def test_huber_is_locally_quadratic(self):
        result = classify_exponent(Huber(1), window=(1e-4, 1e-2))
        assert result.p_hat == pytest.approx(2.0, abs=0.01)
        assert result.c_hat == pytest.approx(0.5, rel=0.02)

    def test_sum_with_equal_exponents_adds_constants(self):
        result = classify_exponent(SumLoss((Power(2, 1), Power(2, 2.5))))
        assert result.p_hat == pytest.approx(2.0, abs=1e-6)
        assert result.c_hat == pytest.approx(3.5, rel=1e-6)

    @pytest.mark.parametrize("factor", [0.1, 2.0, 7.0])
    @pytest.mark.parametrize(
        "loss",
        [Power(2, 1), Power(1.5, 3), Huber(1.0), SumLoss((Power(1.5, 3), Power(3, 1)))],
    )
    def test_cone_closure_at_classifier_level(self, loss, factor):
        base = classify_exponent(loss)
        scaled = classify_exponent(scale_loss(loss, factor))
        assert abs(scaled.p_hat - base.p_hat) < 1e-3
        assert scaled.c_hat / base.c_hat == pytest.approx(factor, rel=0.01)

    def test_underflowing_loss_is_degenerate(self):
        with pytest.raises(DegenerateLossError):
            classify_exponent(Power(3000, 1), window=(1e-5, 1e-2))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            classify_exponent(Power(2, 1), window=(1e-2, 1e-4))
        with pytest.raises(ValueError):
            classify_exponent(Power(2, 1), window=(0.0, 1e-2))
        with pytest.raises(ValueError):
            classify_exponent(Power(2, 1), points=4)


class TestSameClass:
    # two losses share a power class when their fitted exponents agree to 0.05
    def test_scaling_preserves_class(self):
        p_hat = classify_exponent(Power(2, 1)).p_hat
        assert classify_exponent(Scaled(5, Power(2, 1))).p_hat == pytest.approx(p_hat, abs=0.05)

    def test_distinct_exponents(self):
        p_hat = classify_exponent(Power(2, 1)).p_hat
        assert classify_exponent(Power(2.5, 1)).p_hat != pytest.approx(p_hat, abs=0.05)

    def test_huber_matches_quadratic(self):
        p_hat = classify_exponent(Power(2, 4)).p_hat
        assert classify_exponent(Huber(1)).p_hat == pytest.approx(p_hat, abs=0.05)
