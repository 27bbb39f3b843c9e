"""Loss evaluation, the scaling cone, the conic normal form, and the exponent
classifier."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minmax_lab.errors import DegenerateLossError, NonPositiveScaleError
from minmax_lab.losses import (
    Huber,
    Power,
    Scaled,
    SumLoss,
    classify_exponent,
    conic_terms,
    local_exponent,
    loss_breakpoints,
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


leaf_losses = st.one_of(
    st.builds(Power, st.floats(min_value=0.1, max_value=8.0), st.floats(min_value=1e-3, max_value=1e3)),
    st.builds(Huber, st.floats(min_value=1e-3, max_value=1e3)),
)
nested_losses = st.recursive(
    leaf_losses,
    lambda inner: st.one_of(
        st.builds(Scaled, st.floats(min_value=1e-3, max_value=1e3), inner),
        st.builds(SumLoss, st.lists(inner, min_size=1, max_size=3)),
    ),
    max_leaves=6,
)
errors = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-160, 1e155, 1e300, -1e300, math.inf]),
    st.floats(allow_nan=False),
)


@given(loss=nested_losses, t=st.lists(errors, min_size=1, max_size=16))
@settings(max_examples=300, deadline=None)
def test_loss_of_error_is_even_bit_for_bit(loss, t):
    # risk.risk integrates the loss at the error, not at its negation
    # theta - delta: every spec is even in every bit, -0.0 and overflow
    # included, and its breakpoints are a symmetric set
    t = np.array(t)
    with np.errstate(over="ignore"):
        assert loss_of_error(loss, -t).tobytes() == loss_of_error(loss, t).tobytes()
    kinks, roots = loss_breakpoints(loss)
    assert sorted(-k for k in kinks) == sorted(kinks)
    assert sorted(-r for r in roots) == sorted(roots)


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
    # two losses share a power class when their exact local exponents agree
    # to 0.05; the classifier's fits keep to that
    def test_scaling_preserves_class(self):
        p_hat = classify_exponent(Power(2, 1)).p_hat
        assert classify_exponent(Scaled(5, Power(2, 1))).p_hat == pytest.approx(p_hat, abs=0.05)

    def test_distinct_exponents(self):
        p_hat = classify_exponent(Power(2, 1)).p_hat
        assert classify_exponent(Power(2.5, 1)).p_hat != pytest.approx(p_hat, abs=0.05)

    def test_huber_matches_quadratic(self):
        p_hat = classify_exponent(Power(2, 4)).p_hat
        assert classify_exponent(Huber(1)).p_hat == pytest.approx(p_hat, abs=0.05)


class TestConicTerms:
    def test_atoms_in_term_order_with_their_factors(self):
        loss = SumLoss((Scaled(2.0, SumLoss((Power(3, 1), Huber(0.5)))), Power(1.5, 4)))
        assert conic_terms(loss) == ((2.0, Power(3, 1)), (2.0, Huber(0.5)), (1.0, Power(1.5, 4)))

    def test_nested_factors_multiply(self):
        assert conic_terms(Scaled(3.0, Scaled(0.5, Huber(1.0)))) == ((1.5, Huber(1.0)),)

    def test_not_a_spec(self):
        with pytest.raises(TypeError, match="not a loss spec"):
            conic_terms(2.0)

    @pytest.mark.parametrize("loss, expected", [
        (Power(2.5, 3), (2.5, 3.0)),
        (Huber(0.3), (2.0, 0.5)),
        (Scaled(3.0, Huber(1.0)), (2.0, 1.5)),
        (SumLoss((Power(3, 1), Power(1.5, 3))), (1.5, 3.0)),
        (SumLoss((Huber(1.0), Power(2, 2), Scaled(2.0, Power(3)))), (2.0, 2.5)),
    ], ids=repr)
    def test_local_exponent(self, loss, expected):
        assert local_exponent(loss) == expected


class TestFlatSpecBits:
    # the conic form keeps a flat spec's bits: a factor multiplies its
    # atom's value, and a flat sum adds its terms left to right
    ts = np.array([0.0, -0.0, 5e-324, 0.3, -1.7, 12.5, 1e155, -math.inf])

    @pytest.mark.parametrize("f, p, c", [(2.5, 3.0, 1.0), (0.1, 1.5, 7.0), (1.0, 2.0, 0.3)])
    def test_scaled_power(self, f, p, c):
        with np.errstate(over="ignore"):
            got = loss_of_error(Scaled(f, Power(p, c)), self.ts)
            expected = f * (c * np.abs(self.ts) ** p)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("terms", [
        (Power(1.5, 3), Power(3, 1)),
        (Huber(1.0), Scaled(2.0, Power(2, 2)), Power(0.7, 0.4)),
        (Scaled(0.3, Huber(0.2)), Scaled(7.0, Power(4.5)), Huber(3.0), Power(1.1)),
    ], ids=repr)
    def test_flat_sum(self, terms):
        with np.errstate(over="ignore"):
            got = loss_of_error(SumLoss(terms), self.ts)
            expected = functools.reduce(lambda a, b: a + b,
                                        [loss_of_error(term, self.ts) for term in terms])
        assert got.tobytes() == expected.tobytes()


same_exponent = st.sampled_from([1.5, 2.0, 3.0])
exponent_atoms = st.one_of(
    st.builds(Power, st.one_of(same_exponent, st.floats(1.1, 6.0)), st.floats(0.1, 10.0)),
    st.builds(Huber, st.floats(0.02, 5.0)),
)
exponent_trees = st.recursive(
    exponent_atoms,
    lambda inner: st.one_of(
        st.builds(Scaled, st.floats(0.1, 10.0), inner),
        st.builds(SumLoss, st.lists(inner, min_size=1, max_size=3)),
    ),
    max_leaves=5,
)


@given(loss=exponent_trees)
@settings(max_examples=50, deadline=None)
def test_local_exponent_matches_the_fit(loss):
    # the exact exponent against the classifier's log-log fit, an
    # independent numerical path: over its window, where every Huber atom
    # is t^2/2, a single exponent is fitted exactly, and a mixed sum's
    # log-log slope lies between its smallest and largest exponents
    p, c = local_exponent(loss)
    exponents = [atom.p if isinstance(atom, Power) else 2.0 for _, atom in conic_terms(loss)]
    fit = classify_exponent(loss)
    if min(exponents) == max(exponents):
        assert fit.p_hat == pytest.approx(p, abs=1e-6)
        assert fit.c_hat == pytest.approx(c, rel=1e-6)
    else:
        assert p - 1e-9 <= fit.p_hat <= max(exponents) + 1e-9
