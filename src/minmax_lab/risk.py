"""Pointwise risk and worst-case risk over a parameter interval.

Risk at theta is E[L(theta, delta(X))] under the model at theta.  Affine
rules and the sample median have an exact error law mu + s*Y
(`model.error_law`): Y is standard normal for an affine rule, and has the
density weight(y) * phi(y) for the median, so the weight multiplies the
loss in the integrand.  The expectation is a segmented Gauss-Legendre
integral (machine precision at 200 nodes per segment; see quadrature.py).
Sign-perturbed rules have no such law, so Quadrature raises
QuadratureUnsupportedError for them and they are handled by seeded Monte
Carlo.

Worst-case risk is always exact: it uses the structure of the estimator,
evaluates one quadrature risk, and records which sup method it used
(`WorstCaseResult.sup_method`):

  * "constant": the error law does not depend on theta (SampleMedian, and
    identity-weight affine rules with gamma = 1), so the risk is theta-free.
    One evaluation at the interval midpoint.
  * "endpoints": an affine rule has the exactly Gaussian error
    mu(theta) + s*Z with mu affine in theta.  Every loss here is even and
    nondecreasing in |t|, so by Anderson's lemma the risk depends on mu
    only through |mu| and is nondecreasing in it: the exact sup sits at the
    interval endpoint with the larger |mu|.  One evaluation, at that
    endpoint.

SignPerturbed rules have neither structure, so worst_case_risk raises
QuadratureUnsupportedError for them before evaluating any risk.  Their
pointwise risk is still available from `risk`.

`worst_case_slopes` is the same worst case of an affine rule together with
its one-sided slopes and curvatures along a path in gamma, from the
Hermite moments of the same quadrature pass (Stein's identity).
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


def _checked(value: float, context: str, what: str = "risk") -> float:
    if not math.isfinite(value):
        raise NonFiniteRiskError(f"{what} is not finite ({value!r}) for {context}")
    return float(value)


def _expected_loss(model, est, loss, theta, hermite=False):
    """The quadrature risk at theta: one `gaussian_expectation` pass, with
    its Hermite moments when `hermite` is set (an affine rule only)."""
    mu, s, weight = error_law(model, est, theta)
    kinks, roots = loss_breakpoints(loss)
    # the loss argument is theta - delta = -(error), but every loss spec
    # is even bit for bit (|-t| = |t|, (-t)*(-t) = t*t) and its
    # breakpoints are symmetric, so the error goes in unnegated here and
    # in the Monte Carlo branch of `risk`;
    # tests/test_losses.py::test_loss_of_error_is_even_bit_for_bit pins it
    if weight is None:
        integrand = functools.partial(loss_of_error, loss)
    else:
        def integrand(t):
            return loss_of_error(loss, t) * weight((t - mu) / s)
    return gaussian_expectation(integrand, mu, s, kinks=kinks, roots=roots, hermite=hermite)


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
        value = _expected_loss(model, est, loss, theta)
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


def _sup_theta(
    model: GaussianLocationModel, est: EstimatorSpec, theta_interval: Interval
) -> Tuple[float, str]:
    """The theta where the risk of est attains its sup over theta_interval,
    and the sup method (see the module docstring)."""
    check_estimator(est)
    if isinstance(est, SampleMedian) or (isinstance(est, AffineMean) and est.gamma == 1.0):
        return theta_interval.midpoint, "constant"
    if isinstance(est, AffineMean):
        lo, hi = theta_interval.lo, theta_interval.hi
        # the risk is nondecreasing in |mu(theta)|; ties go to lo
        mu_lo, mu_hi = error_law(model, est, lo)[0], error_law(model, est, hi)[0]
        return (hi if abs(mu_hi) > abs(mu_lo) else lo), "endpoints"
    raise QuadratureUnsupportedError(
        f"{type(est).__name__} has no exact worst case: only theta-free "
        "rules and affine rules have one"
    )


def worst_case_risk(
    model: GaussianLocationModel,
    est: EstimatorSpec,
    loss: LossSpec,
    theta_interval: Interval,
) -> WorstCaseResult:
    """Exact sup over theta_interval of the risk, by the structure of the
    estimator (see the module docstring).

    A SignPerturbed rule has no such structure and raises
    QuadratureUnsupportedError.
    """
    theta, sup_method = _sup_theta(model, est, theta_interval)
    return WorstCaseResult(risk(model, est, loss, theta, Quadrature()).value, theta, sup_method)


@dataclass(frozen=True)
class WorstCaseSlopes:
    """A worst case with its one-sided slopes and curvatures, each as
    (left, right), along a path of rules."""

    worst_case: WorstCaseResult
    slopes: Tuple[float, float]
    curvatures: Tuple[float, float]


def worst_case_slopes(
    model: GaussianLocationModel,
    est: AffineMean,
    loss: LossSpec,
    theta_interval: Interval,
    a_slopes: Tuple[float, float],
) -> WorstCaseSlopes:
    """worst_case_risk of an affine rule with gamma != 0, with its one-sided
    slopes and curvatures along a path on which gamma moves at unit speed.

    The worst case is R(a, s) = E L(a + s*Z) at a = max |mu| over the
    interval, s = |gamma| sigma/sqrt(n).  Both are affine on each side of
    the rule: `a_slopes` gives a's slopes (left, right), and s has slope
    sign(gamma) sigma/sqrt(n).  The chain rule takes the partials from the
    Hermite moments m_k = E[L He_k(Z)] of the one pass (Stein's identity):
    R_mu = m_1/s, R_s = m_2/s, R_mumu = m_2/s^2, R_mus = m_3/s^2 and
    R_ss = (m_2 + m_4)/s^2, with R_a = sign(mu) R_mu (0 at mu = 0, where R
    is even in mu).  A non-finite value, slope or curvature is a
    NonFiniteRiskError.
    """
    if not isinstance(est, AffineMean) or est.gamma == 0.0:
        raise ValueError(f"slopes need an affine rule with gamma != 0, got {est!r}")
    theta, sup_method = _sup_theta(model, est, theta_interval)
    mu, s, _ = error_law(model, est, theta)
    value, (m1, m2, m3, m4) = _expected_loss(model, est, loss, theta, hermite=True)
    value = _checked(value, f"theta={theta}")
    sign = 0.0 if mu == 0.0 else math.copysign(1.0, mu)
    r_a, r_s = sign * m1 / s, m2 / s
    r_aa, r_as, r_ss = m2 / s / s, sign * m3 / s / s, (m2 + m4) / s / s
    ds = math.copysign(model.mean_sd, est.gamma)
    slopes = tuple(r_a * da + r_s * ds for da in a_slopes)
    curvatures = tuple(r_aa * da * da + 2.0 * r_as * da * ds + r_ss * ds * ds for da in a_slopes)
    for v in slopes + curvatures:
        _checked(v, f"theta={theta}", "risk derivative")
    return WorstCaseSlopes(WorstCaseResult(value, theta, sup_method), slopes, curvatures)
