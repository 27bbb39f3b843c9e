"""Pointwise risk and worst-case risk over a parameter interval.

Risk at theta is E[L(theta, delta(X))] under the model at theta.  Affine
rules and the sample median have an exact error law mu + s*Y
(`model.error_law`).  For an affine rule Y is standard normal, and the risk
E L(mu + s*Z) is closed-form (closed_form.py: a hypergeometric series for
a power loss, normal moments for Huber).  For the median Y has the density
weight(y) * phi(y), so the weight multiplies the loss in the integrand of a
segmented Gauss-Legendre integral (machine precision at 200 nodes per
segment; see quadrature.py).  Sign-perturbed rules have no such law, so
Quadrature raises QuadratureUnsupportedError for them and they are handled
by seeded Monte Carlo.

Worst-case risk is always exact: it uses the structure of the estimator,
evaluates one exact risk, and records which sup method it used
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

`worst_case_slopes` is the same worst case of an affine rule, from the
error law its sup method picked, with the one-sided slopes and curvatures
along a path in gamma, from the closed form's partials in mu and s.

The median's kernel truncates at |z| = quadrature.Z_MAX = 15, which keeps
E|Z|^p to 2e-11 relative up to p = 100 but loses 3e-8 of it at p = 120,
9e-5 at p = 150 and 7/8 at p = 250.  A loss with a power term above
`MAX_EXPONENT` = 100 is therefore a NonFiniteRiskError before any exact
risk, affine or median, so that one bound holds for every rule (and the
exit code for such a config does not depend on the rule); Monte Carlo
risks do not truncate and take any exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .closed_form import gaussian_risk
from .errors import NonFiniteRiskError, QuadratureUnsupportedError
from .losses import LossSpec, Power, conic_terms, loss_breakpoints, loss_of_error
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
from .quadrature import Z_MAX, gaussian_expectation


@dataclass(frozen=True)
class Quadrature:
    """Deterministic risk from the exact error law: closed-form for an
    affine rule, integrated for the median."""


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
    A slope pass also fills `slopes` and `curvatures`, each (left, right)
    along a path of rules; they are neither compared nor written to JSON.
    """

    sup_value: float
    argmax_theta: float
    sup_method: str
    constant_in_theta: bool = field(init=False)
    slopes: Optional[tuple] = field(default=None, compare=False, metadata={"json": False})
    curvatures: Optional[tuple] = field(default=None, compare=False, metadata={"json": False})

    def __post_init__(self):
        object.__setattr__(self, "constant_in_theta", self.sup_method == "constant")


def _checked(value: float, context: str, what: str = "risk") -> float:
    if not math.isfinite(value):
        raise NonFiniteRiskError(f"{what} is not finite ({value!r}) for {context}")
    return float(value)


#: The largest power exponent of an exact risk (module docstring).
MAX_EXPONENT = 100.0


def _check_exponent(loss: LossSpec) -> None:
    # the largest p of the loss's c|t|^p atoms; Huber grows like |t|
    p = max((atom.p for _, atom in conic_terms(loss) if isinstance(atom, Power)), default=1.0)
    if p > MAX_EXPONENT:
        raise NonFiniteRiskError(
            f"a power exponent of {p!r} is above {MAX_EXPONENT}, the bound of the "
            f"exact risks (the median kernel truncates at |z| = {Z_MAX})"
        )


def _expected_loss(loss, law):
    """The exact risk of an error law (mu, s, weight): closed-form for a
    Gaussian law (no weight), one pass of `gaussian_expectation` for the
    median's."""
    _check_exponent(loss)
    mu, s, weight = law
    if weight is None:
        if s == 0.0:
            # a point mass: the loss at mu itself
            return float(loss_of_error(loss, np.asarray([mu]))[0])
        return gaussian_risk(loss, mu, s)[0]
    kinks, roots = loss_breakpoints(loss)

    # the loss argument is theta - delta = -(error), but every loss spec
    # is even bit for bit (|-t| = |t|, (-t)*(-t) = t*t) and its
    # breakpoints are symmetric, so the error goes in unnegated here, in
    # the closed form and in the Monte Carlo branch of `risk`;
    # tests/test_losses.py::test_loss_of_error_is_even_bit_for_bit pins it
    def integrand(t):
        return loss_of_error(loss, t) * weight((t - mu) / s)
    return gaussian_expectation(integrand, mu, s, kinks=kinks, roots=roots)


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
    NonFiniteRiskError, and so is a Quadrature risk of a loss with a power
    term above MAX_EXPONENT.
    """
    theta = _require_finite("theta", theta)
    if isinstance(method, Quadrature):
        value = _expected_loss(loss, error_law(model, est, theta))
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
) -> Tuple[float, str, tuple]:
    """The theta where the risk of est attains its sup over theta_interval,
    the sup method (see the module docstring) and the error law there."""
    check_estimator(est)
    if isinstance(est, SampleMedian) or (isinstance(est, AffineMean) and est.gamma == 1.0):
        theta = theta_interval.midpoint
        return theta, "constant", error_law(model, est, theta)
    if isinstance(est, AffineMean):
        lo, hi = theta_interval.lo, theta_interval.hi
        # the risk is nondecreasing in |mu(theta)|; ties go to lo
        law_lo, law_hi = error_law(model, est, lo), error_law(model, est, hi)
        theta, law = (hi, law_hi) if abs(law_hi[0]) > abs(law_lo[0]) else (lo, law_lo)
        return theta, "endpoints", law
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
    theta, sup_method, _ = _sup_theta(model, est, theta_interval)
    return WorstCaseResult(risk(model, est, loss, theta, Quadrature()).value, theta, sup_method)


def worst_case_slopes(
    model: GaussianLocationModel,
    est: AffineMean,
    loss: LossSpec,
    theta_interval: Interval,
    a_slopes: Tuple[float, float],
) -> WorstCaseResult:
    """worst_case_risk of an affine rule with gamma != 0, with its one-sided
    slopes and curvatures along a path on which gamma moves at unit speed.

    The worst case is R(a, s) = E L(a + s*Z) at a = max |mu| over the
    interval, s = |gamma| sigma/sqrt(n).  Both are affine on each side of
    the rule: `a_slopes` gives a's slopes (left, right), and s has slope
    sign(gamma) sigma/sqrt(n).  The chain rule takes the closed form's
    partials R_mu, R_s, R_mumu, R_mus and R_ss (closed_form.gaussian_risk),
    with R_a = sign(mu) R_mu and R_as = sign(mu) R_mus (0 at mu = 0, where
    R is even in mu).  A non-finite value, slope or curvature is a
    NonFiniteRiskError.
    """
    if not isinstance(est, AffineMean) or est.gamma == 0.0:
        raise ValueError(f"slopes need an affine rule with gamma != 0, got {est!r}")
    theta, sup_method, (mu, s, _) = _sup_theta(model, est, theta_interval)
    _check_exponent(loss)
    value, r_mu, r_s, r_aa, r_mus, r_ss = gaussian_risk(loss, mu, s)
    value = _checked(value, f"theta={theta}")
    sign = 0.0 if mu == 0.0 else math.copysign(1.0, mu)
    r_a, r_as = sign * r_mu, sign * r_mus
    ds = math.copysign(model.mean_sd, est.gamma)
    slopes = tuple(r_a * da + r_s * ds for da in a_slopes)
    curvatures = tuple(r_aa * da * da + 2.0 * r_as * da * ds + r_ss * ds * ds for da in a_slopes)
    for v in slopes + curvatures:
        _checked(v, f"theta={theta}", "risk derivative")
    return WorstCaseResult(value, theta, sup_method, slopes=slopes, curvatures=curvatures)
