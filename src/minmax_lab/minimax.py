"""Smallest worst-case risk over a parametric estimator family.

Every family here has one free coordinate, the first of its parameters, so
the outer problem is a bounded scalar search.  AffineMeanFamily searches
gamma: by Anderson's lemma the worst case of gamma * mean(X) + beta depends
on beta only through max |(gamma - 1) * theta + beta| over the two ends of
the theta interval, which beta*(gamma) = (1 - gamma) * mid, clipped to the
beta range, minimizes for every loss.  MedianShiftFamily searches its shift.

The search is scipy's bounded Brent method (Brent 1973).  It stops within
1e-5 of the minimum, so its point is compared with the family's
breakpoints (range ends and kinks of the profile), and the smallest value
wins: an optimum on a box face or at a kink comes out exactly.  Results
are family-relative: a minimizer over the given parameter box, not a claim
about all measurable decision rules.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from scipy.optimize import minimize_scalar as scipy_minimize

from .losses import LossSpec
from .model import (
    AffineMean,
    EstimatorSpec,
    GaussianLocationModel,
    Interval,
    SampleMedian,
    derive_seed,
)
from .risk import (
    MonteCarlo,
    Quadrature,
    RiskMethod,
    WorstCaseResult,
    worst_case_risk,
)


@dataclass(frozen=True)
class AffineMeanFamily:
    """All rules gamma * mean(X) + beta with (gamma, beta) in a box."""

    gamma_range: Interval
    beta_range: Interval

    @property
    def bounds(self) -> Tuple[Interval, ...]:
        return (self.gamma_range, self.beta_range)

    def make(self, params: Sequence[float]) -> EstimatorSpec:
        gamma, beta = params
        return AffineMean(gamma=float(gamma), beta=float(beta))

    def profile(self, gamma: float, theta_interval: Interval) -> Tuple[float, float]:
        """(gamma, beta*(gamma)): the beta with the smallest worst case.

        + 0.0 turns the -0.0 of (1 - gamma) * 0.0 for gamma > 1 into +0.0.
        """
        b = self.beta_range
        beta = min(max((1.0 - gamma) * theta_interval.midpoint, b.lo), b.hi)
        return (gamma, beta + 0.0)

    def breakpoints(self, theta_interval: Interval) -> Tuple[float, ...]:
        """The gammas where the profiled worst case may have a kink: the
        ends of the range, the two where (1 - gamma) * mid meets an end of
        the beta range, and gamma = 1, where the worst-case end of the theta
        interval switches under a clipped beta."""
        mid = theta_interval.midpoint
        points = [self.gamma_range.lo, self.gamma_range.hi, 1.0]
        if mid != 0.0:
            points += [1.0 - self.beta_range.lo / mid, 1.0 - self.beta_range.hi / mid]
        return tuple(g for g in points if self.gamma_range.contains(g))


@dataclass(frozen=True)
class MedianShiftFamily:
    """All rules median(X) + beta with beta in a range."""

    beta_range: Interval

    @property
    def bounds(self) -> Tuple[Interval, ...]:
        return (self.beta_range,)

    def make(self, params: Sequence[float]) -> EstimatorSpec:
        (beta,) = params
        return SampleMedian(beta=float(beta))

    def profile(self, beta: float, theta_interval: Interval) -> Tuple[float]:
        return (beta,)

    def breakpoints(self, theta_interval: Interval) -> Tuple[float, ...]:
        return (self.beta_range.lo, self.beta_range.hi)


FamilySpec = Union[AffineMeanFamily, MedianShiftFamily]


@dataclass(frozen=True)
class SolveOptions:
    """Master seed, iteration cap of the scalar search, and Monte Carlo
    sample count of the families without an exact Gaussian law."""

    seed: int = 0
    maxiter: int = 600
    mc_samples: int = 20_000

    def __post_init__(self):
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be >= 1, got {self.maxiter}")
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {self.mc_samples}")


@dataclass(frozen=True)
class MinimaxResult:
    best_params: Tuple[float, ...]
    minimax_value: float
    inner_results: WorstCaseResult
    outer_iterations: int
    converged: bool
    restart_agreement: float


def family_method(family: FamilySpec, opts: SolveOptions) -> RiskMethod:
    """Risk method for a family: exact quadrature when available, else
    seeded Monte Carlo with common random numbers across the whole solve."""
    if isinstance(family, AffineMeanFamily):
        return Quadrature()
    return MonteCarlo(opts.mc_samples, derive_seed(opts.seed, 1))


def worst_case_at(
    model: GaussianLocationModel,
    family: FamilySpec,
    params: Sequence[float],
    loss: LossSpec,
    theta_interval: Interval,
    opts: SolveOptions,
    method: Optional[RiskMethod] = None,
) -> WorstCaseResult:
    """worst_case_risk of the family member at the given parameters."""
    if method is None:
        method = family_method(family, opts)
    return worst_case_risk(model, family.make(params), loss, theta_interval, method=method)


def worst_case_on_profile(
    model: GaussianLocationModel, family: FamilySpec, x: float, loss: LossSpec,
    theta_interval: Interval, opts: SolveOptions, method: RiskMethod,
) -> WorstCaseResult:
    """worst_case_at of family.profile(x): the best member for free coordinate x."""
    params = family.profile(x, theta_interval)
    return worst_case_at(model, family, params, loss, theta_interval, opts, method)


def solve_minimax(
    model: GaussianLocationModel,
    family: FamilySpec,
    loss: LossSpec,
    theta_interval: Interval,
    opts: Optional[SolveOptions] = None,
) -> MinimaxResult:
    """Minimize sup_theta risk over the family's free coordinate.

    `outer_iterations` is the search's iteration count and `converged` its
    success flag; a False flag still returns the best point found.
    `restart_agreement` is the distance from the search point to the
    returned one, nonzero only when a breakpoint won.
    """
    if opts is None:
        opts = SolveOptions()
    method = family_method(family, opts)
    box = family.bounds[0]
    worst_at = functools.partial(
        worst_case_on_profile, model, family,
        loss=loss, theta_interval=theta_interval, opts=opts, method=method,
    )
    search = scipy_minimize(
        lambda x: worst_at(float(x)).sup_value,
        bounds=(box.lo, box.hi),
        method="bounded",
        options={"xatol": 1e-5, "maxiter": opts.maxiter},
    )
    x_search = float(search.x)
    # Near a kink the search stops up to xatol away; the breakpoints hold
    # the kinks exactly.  min keeps the first of equal values, so the
    # search point wins ties.
    inner, x = min(
        ((worst_at(c), c) for c in (x_search, *family.breakpoints(theta_interval))),
        key=lambda pair: pair[0].sup_value,
    )
    return MinimaxResult(
        best_params=tuple(float(v) for v in family.profile(x, theta_interval)),
        minimax_value=inner.sup_value,
        inner_results=inner,
        outer_iterations=int(search.nit),
        converged=bool(search.success),
        restart_agreement=abs(x_search - x),
    )

