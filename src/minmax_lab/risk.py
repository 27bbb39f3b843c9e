"""Pointwise risk and worst-case risk over a parameter interval.

Risk at theta is E[L(theta, delta(X))] under the model at theta.  For
affine-in-mean estimators the error is exactly mu + s*Z with Z standard
normal; `model.error_law` gives the pair (mu, s), and the expectation is a
segmented Gauss-Legendre integral (machine precision at 200 nodes per
segment; see quadrature.py).  Every other estimator has no such law, so
Quadrature raises QuadratureUnsupportedError for it and it is handled by
seeded Monte Carlo.

Worst-case risk picks its sup method from the estimator and the risk
method, and records which one it used (`WorstCaseResult.sup_method`):

  * "constant": the error draws do not depend on theta (SampleMedian, and
    identity-weight affine rules with gamma = 1), so the risk is theta-free.
    One evaluation at the interval midpoint.
  * "endpoints": an affine rule under quadrature has the exactly Gaussian
    error mu(theta) + s*Z with mu affine in theta.  Every loss here is even
    and nondecreasing in |t|, so by Anderson's lemma the risk depends on mu
    only through |mu| and is nondecreasing in it: the exact sup sits at the
    interval endpoint with the larger |mu|.  One evaluation, at that
    endpoint.
  * "grid": everything else (SignPerturbed rules, and affine rules under
    Monte Carlo, whose common-random-number surface need not peak at an
    endpoint) scans an even theta grid and refines around the best grid
    point by golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .errors import NonFiniteRiskError
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

DEFAULT_GRID = 256


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

    `sup_method` is "constant", "endpoints" or "grid" (see the module
    docstring); `grid_points` is the number of theta values that method
    considered before any golden-section refinement: 1, the two endpoint
    candidates compared, or the grid size.
    """

    sup_value: float
    argmax_theta: float
    grid_points: int
    sup_method: str

    @property
    def constant_in_theta(self) -> bool:
        return self.sup_method == "constant"


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
        # the loss argument is theta - delta = -(error); all losses here are
        # even in the error, but keep the sign for generality
        value = gaussian_expectation(
            lambda t: loss_of_error(loss, -t),
            mu,
            s,
            kinks=tuple(-k for k in kinks),
            roots=tuple(-r for r in roots),
        )
        return RiskEstimate(_checked(value, f"theta={theta}"))
    errs = error_draws(model, est, theta, method.samples, method.seed)
    losses = loss_of_error(loss, -errs)
    value = _checked(float(np.mean(losses)), f"theta={theta}")
    sd = float(np.std(losses, ddof=1)) if method.samples > 1 else 0.0
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
    grid: int = DEFAULT_GRID,
    method: RiskMethod = Quadrature(),
) -> WorstCaseResult:
    """sup over theta_interval of the risk, by the method the estimator's
    structure allows (see the module docstring).

    With a MonteCarlo method the same seed is reused at every theta (common
    random numbers), so the scanned function is a fixed deterministic
    surface and the supremum is well defined.  `grid` is validated on every
    call but used only by the grid scan.  The default Quadrature method
    serves affine rules only; any other rule needs a MonteCarlo method and
    raises QuadratureUnsupportedError without one.
    """
    check_estimator(est)
    if grid < 16:
        raise ValueError(f"grid must be >= 16, got {grid}")

    def risk_at(theta: float) -> float:
        return risk(model, est, loss, theta, method).value

    if isinstance(est, SampleMedian) or (isinstance(est, AffineMean) and est.gamma == 1.0):
        mid = theta_interval.midpoint
        return WorstCaseResult(risk_at(mid), mid, 1, "constant")

    if isinstance(est, AffineMean) and isinstance(method, Quadrature):
        lo, hi = theta_interval.lo, theta_interval.hi
        # the risk is nondecreasing in |mu(theta)|; ties go to lo
        mu_lo, mu_hi = error_law(model, est, lo)[0], error_law(model, est, hi)[0]
        best_theta = hi if abs(mu_hi) > abs(mu_lo) else lo
        return WorstCaseResult(risk_at(best_theta), best_theta, 2, "endpoints")

    thetas = np.linspace(theta_interval.lo, theta_interval.hi, grid)
    values = np.array([risk_at(t) for t in thetas])
    i = int(np.argmax(values))
    best_theta, best_value = float(thetas[i]), float(values[i])

    lo = float(thetas[max(i - 1, 0)])
    hi = float(thetas[min(i + 1, grid - 1)])
    x, fx = golden_section_max(risk_at, lo, hi, 1e-6)
    if fx > best_value:
        best_theta, best_value = x, fx
    return WorstCaseResult(best_value, best_theta, grid, "grid")
