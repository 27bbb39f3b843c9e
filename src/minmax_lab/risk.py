"""Pointwise risk and worst-case risk over a parameter interval.

Risk at theta is E[L(theta, delta(X))] under the model at theta.  For
affine-in-mean estimators the error is exactly mu + s*Z with Z standard
normal; `model.error_law` gives the pair (mu, s), and the expectation is a
segmented Gauss-Legendre integral (machine precision at 200 nodes per
segment; see quadrature.py).  Every other estimator has no such law, so
Quadrature raises QuadratureUnsupportedError for it and it is handled by
seeded Monte Carlo.

Worst-case risk uses the structure of the estimator and the risk method,
and records which sup method it used (`WorstCaseResult.sup_method`):

  * "constant": the error draws do not depend on theta (SampleMedian, and
    identity-weight affine rules with gamma = 1), so the risk is theta-free.
    One evaluation at the interval midpoint.
  * "endpoints": an affine rule under quadrature has the exactly Gaussian
    error mu(theta) + s*Z with mu affine in theta.  Every loss here is even
    and nondecreasing in |t|, so by Anderson's lemma the risk depends on mu
    only through |mu| and is nondecreasing in it: the exact sup sits at the
    interval endpoint with the larger |mu|.  One evaluation, at that
    endpoint.

No other rule has an exact worst case here (SignPerturbed rules, and affine
rules with gamma != 1 under Monte Carlo), so worst_case_risk raises
QuadratureUnsupportedError for them before evaluating any risk.  Their
pointwise risk is still available from `risk`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Tuple, Union

import numpy as np

from .errors import NonFiniteRiskError, QuadratureUnsupportedError
from .losses import LossSpec, loss_breakpoints, loss_of_error
from .model import (
    AffineMean,
    EstimatorSpec,
    GaussianLocationModel,
    Interval,
    SampleMedian,
    _require_finite,
    check_estimator,
    error_draws,
    error_law,
)
from .quadrature import gaussian_expectation


@dataclass(frozen=True)
class Quadrature:
    """Deterministic integration against the exact Gaussian error law."""


@dataclass(frozen=True)
class MonteCarlo:
    """Seeded sample-mean estimate of the risk."""

    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        object.__setattr__(self, "seed", int(self.seed))


RiskMethod = Union[Quadrature, MonteCarlo]


@dataclass(frozen=True)
class RiskEstimate:
    value: float
    std_error: float = 0.0


@dataclass(frozen=True)
class WorstCaseResult:
    """sup of the risk over a theta interval and where it was attained.

    `sup_method` is "constant" or "endpoints" (see the module docstring).
    """

    sup_value: float
    argmax_theta: float
    sup_method: str
    constant_in_theta: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "constant_in_theta", self.sup_method == "constant")


def _checked(value: float, context: str) -> float:
    if not math.isfinite(value):
        raise NonFiniteRiskError(f"risk is not finite ({value!r}) for {context}")
    return float(value)


def risk(
    model: GaussianLocationModel,
    est: EstimatorSpec,
    loss: LossSpec,
    theta: float,
    method: RiskMethod,
) -> RiskEstimate:
    """E[L(theta, delta(X))] at a single theta.

    A non-finite theta is a ValueError under either method; a risk that is
    not finite (including one from an overflowing error law) is a
    NonFiniteRiskError.
    """
    theta = _require_finite("theta", theta)
    if isinstance(method, Quadrature):
        mu, s = error_law(model, est, theta)
        kinks, roots = loss_breakpoints(loss)
        # the loss argument is theta - delta = -(error), but every loss spec
        # is even bit for bit (|-t| = |t|, (-t)*(-t) = t*t) and its
        # breakpoints are symmetric, so the error goes in unnegated here and
        # in the Monte Carlo branch below;
        # tests/test_losses.py::test_loss_of_error_is_even_bit_for_bit pins it
        value = gaussian_expectation(
            functools.partial(loss_of_error, loss), mu, s, kinks=kinks, roots=roots,
        )
        return RiskEstimate(_checked(value, f"theta={theta}"))
    errs = error_draws(model, est, theta, method.samples, method.seed)
    losses = loss_of_error(loss, errs)
    mean = np.mean(losses)
    value = _checked(float(mean), f"theta={theta}")
    if method.samples == 1:
        return RiskEstimate(value)
    # np.std(ddof=1) from the mean already taken, in numpy's own arithmetic
    dev = np.subtract(losses, mean, out=losses)
    dev *= dev
    sd = math.sqrt(float(np.sum(dev)) / (method.samples - 1))
    return RiskEstimate(value, sd / math.sqrt(method.samples))


def crosscheck_risk(
    model: GaussianLocationModel,
    est: EstimatorSpec,
    loss: LossSpec,
    theta: float,
    mc_samples: int,
    seed: int,
) -> Tuple[RiskEstimate, RiskEstimate, float]:
    """Quadrature and Monte Carlo side by side, with the discrepancy z-score."""
    quad = risk(model, est, loss, theta, Quadrature())
    mc = risk(model, est, loss, theta, MonteCarlo(mc_samples, seed))
    diff = abs(quad.value - mc.value)
    if diff == 0.0:
        z = 0.0
    elif mc.std_error == 0.0:
        z = math.inf
    else:
        z = diff / mc.std_error
    return quad, mc, z


# golden_section_max has no caller in the package; the benchmark's tracer
# patches the name, so it stays until the tracer drops that patch
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section_max(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> Tuple[float, float]:
    """Golden-section search for a maximum of f on [a, b].

    Narrows the bracket to width <= tol and returns the best probed point.
    For a monotone f the bracket collapses onto the better endpoint.
    """
    a, b = float(a), float(b)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n - 1):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    return (c, yc) if yc > yd else (d, yd)


def worst_case_risk(
    model: GaussianLocationModel,
    est: EstimatorSpec,
    loss: LossSpec,
    theta_interval: Interval,
    method: RiskMethod = Quadrature(),
) -> WorstCaseResult:
    """sup over theta_interval of the risk, by the method the estimator's
    structure allows (see the module docstring).

    A rule with neither structure raises QuadratureUnsupportedError.  The
    default Quadrature method serves affine rules only; the sample median
    needs a MonteCarlo method and raises QuadratureUnsupportedError without
    one.
    """
    check_estimator(est)
    if isinstance(est, SampleMedian) or (isinstance(est, AffineMean) and est.gamma == 1.0):
        theta, sup_method = theta_interval.midpoint, "constant"
    elif isinstance(est, AffineMean) and isinstance(method, Quadrature):
        lo, hi = theta_interval.lo, theta_interval.hi
        # the risk is nondecreasing in |mu(theta)|; ties go to lo
        mu_lo, mu_hi = error_law(model, est, lo)[0], error_law(model, est, hi)[0]
        theta, sup_method = (hi if abs(mu_hi) > abs(mu_lo) else lo), "endpoints"
    else:
        raise QuadratureUnsupportedError(
            f"{type(est).__name__} under {type(method).__name__} has no exact "
            "worst case: only theta-free rules, and affine rules under "
            "Quadrature, have one"
        )
    return WorstCaseResult(risk(model, est, loss, theta, method).value, theta, sup_method)
