"""Smallest worst-case risk over a parametric estimator family.

Every family here has one free coordinate, the first of its parameters, so
the outer problem is at most a bounded scalar search.  AffineMeanFamily
searches gamma: by Anderson's lemma the worst case of gamma * mean(X) + beta depends
on beta only through max |(gamma - 1) * theta + beta| over the two ends of
the theta interval, which beta*(gamma) = (1 - gamma) * mid, clipped to the
beta range, minimizes for every loss.  MedianShiftFamily needs no search:
the median's error law is symmetric and log-concave, so by the same lemma
the worst case of median(X) + beta is nondecreasing in |beta|, and the
optimum is the beta of the range closest to 0, from one worst case.

The affine search works on exact slopes.  Along the profile, the error's
scale |gamma| sigma/sqrt(n) and its largest |mean| over the theta interval
are affine in gamma between the family's breakpoints (the range ends,
gamma = 0 and 1, and the two clip points of beta*), so one
`risk.worst_case_slopes` pass gives the worst case with its one-sided
slopes and curvatures in gamma.  For a convex loss the profile is convex:
E L(mu + s Z) is jointly convex in (mu, s), and minimizing over beta keeps
that.  The search bisects over the breakpoints for the piece where the
slope changes sign, so an optimum on a box face or at a kink comes out
exactly, then runs a safeguarded Newton-bisection on that piece (rtsafe;
Press et al., *Numerical Recipes*, section 9.4).  A nonconvex loss (power
p < 1) gets the same bracketing, to a point where the slope changes sign.
Results are family-relative: a minimizer over the given parameter box,
not a claim about all measurable decision rules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Dict, NamedTuple, Optional, Sequence, Tuple, Union

from .losses import LossSpec
from .model import AffineMean, EstimatorSpec, GaussianLocationModel, Interval, SampleMedian
from .risk import WorstCaseResult, worst_case_risk, worst_case_slopes


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
        """The gammas where the profiled worst case may have a kink, sorted:
        the ends of the range, gamma = 0, where s = |gamma| sigma/sqrt(n)
        has one, gamma = 1, where |mu| at the ends of the theta interval
        has one, and the two where (1 - gamma) * mid meets an end of the
        beta range."""
        mid = theta_interval.midpoint
        points = [self.gamma_range.lo, self.gamma_range.hi, 0.0, 1.0]
        if mid != 0.0:
            points += [1.0 - self.beta_range.lo / mid, 1.0 - self.beta_range.hi / mid]
        return tuple(sorted({g for g in points if self.gamma_range.contains(g)}))

    def abs_mu_slopes(self, gamma: float, theta_interval: Interval) -> Tuple[float, float]:
        """One-sided slopes (left, right) in gamma of max |mu| over the theta
        interval along the profile.

        That maximum is |c| + |gamma - 1| * hw, where c = (gamma - 1) * mid
        + beta*(gamma) is mu at the midpoint: 0 where beta* is unclipped,
        positive with slope mid where beta* is clipped at the low end of
        its range, negative with slope mid at the high end.  Which holds on
        each side of gamma is decided against the clip points of
        `breakpoints`, so a breakpoint gets its two one-sided slopes."""
        mid = theta_interval.midpoint
        hw = theta_interval.hi - mid
        k = math.copysign(1.0, mid)
        # with mid = 0, beta* is constant: no clip point on either side
        clip_lo, clip_hi = ((1.0 - self.beta_range.lo / mid, 1.0 - self.beta_range.hi / mid)
                            if mid != 0.0 else (math.inf, -math.inf))
        slopes = []
        for side in (-1.0, 1.0):  # the derivative along gamma + side * h
            d_abs = hw if gamma == 1.0 else side * math.copysign(hw, gamma - 1.0)
            d_c = 0.0
            if k * (gamma - clip_lo) > 0.0 or (gamma == clip_lo and k * side > 0.0):
                d_c = side * mid
            elif k * (clip_hi - gamma) > 0.0 or (gamma == clip_hi and k * side < 0.0):
                d_c = -side * mid
            slopes.append(side * (d_c + d_abs))
        return (slopes[0], slopes[1])


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


FamilySpec = Union[AffineMeanFamily, MedianShiftFamily]


#: Iteration cap of the scalar search when none is given.
MAXITER = 600


@dataclass(frozen=True)
class MinimaxResult:
    """The family optimum.  An affine solve's `worst_case` is its last
    slope pass, so it carries the one-sided slopes and curvatures in the
    free coordinate, which certificates reuse; the median family's closed
    form has none."""

    SCHEMA: ClassVar[str] = "minmax-lab/minimax-result/v6"

    best_params: Tuple[float, ...]
    minimax_value: float
    worst_case: WorstCaseResult
    search_iterations: int
    converged: bool


class BoundedSearch(NamedTuple):
    """Point `scipy_minimize` stopped at, its count of slope passes (as
    both nit and nfev) and the pass at that point."""

    x: float
    nit: int
    nfev: int
    success: bool
    worst_case: WorstCaseResult


#: Relative step (and bracket) below which the search stops.
_XTOL = 1e-12


# ROADMAP item 1 renames this search; the benchmark's tracer patches the name.
def scipy_minimize(
    slopes_at: Callable[[float], WorstCaseResult], breakpoints: Sequence[float], maxiter: int
) -> BoundedSearch:
    """Minimize a profile that is smooth between the sorted `breakpoints`
    (the first and last are its range ends) in at most `maxiter` passes.

    Bisection over the breakpoints finds the piece where the slope changes
    sign; a breakpoint whose one-sided slopes bracket 0 is the optimum (at
    a range end only the inward slope counts: the KKT face test).  On the
    piece, Newton steps on slope and curvature are safeguarded as in rtsafe:
    a step that leaves the bracket, or is not half the step before last,
    tries the unevaluated range end it heads for, else bisects.  It stops
    converged when the step or bracket is below 1e-12 * max(1, |x|), else
    at the cap with the best point evaluated.
    """
    lo, hi = breakpoints[0], breakpoints[-1]
    done: Dict[float, WorstCaseResult] = {}

    def stop(x: float, success: bool) -> BoundedSearch:
        if not success:
            x = min(done, key=lambda c: done[c].sup_value)
        return BoundedSearch(x, len(done), len(done), success, done[x])

    def optimal(x: float) -> bool:
        # 0 lies between the one-sided slopes, or within a Newton step of
        # tolerance of one; at a range end only the inward slope counts
        (left, right), (h_left, h_right) = done[x].slopes, done[x].curvatures
        tol = _XTOL * max(1.0, abs(x))
        return ((x == lo or left <= tol * max(h_left, 0.0))
                and (x == hi or right >= -tol * max(h_right, 0.0)))

    # [a, b] brackets the optimum; Newton steps start from its evaluated end
    # with the smaller worst case
    a, b = lo, hi
    dx = dx_old = hi - lo
    while True:
        inside = [c for c in breakpoints if a < c < b]
        ends = [c for c in (a, b) if c in done]
        if inside:
            t = inside[(len(inside) - 1) // 2]
        elif not ends:
            t = b
        else:
            x = min(ends, key=lambda c: done[c].sup_value)
            side = 1 if x == a else 0  # the one-sided slope into the bracket
            g, h = done[x].slopes[side], done[x].curvatures[side]
            step = g / h if h > 0.0 else math.nan
            tol = _XTOL * max(1.0, abs(x))
            if abs(step) <= tol or b - a <= tol:
                return stop(x, True)
            t = x - step
            if not a < t < b or abs(step) > 0.5 * abs(dx_old):
                end = b if g < 0.0 else a
                t = end if end not in done else 0.5 * (a + b)
            dx_old, dx = dx, x - t
        if len(done) >= maxiter:
            return stop(t, False)
        done[t] = slopes_at(t)
        if optimal(t):
            return stop(t, True)
        if done[t].slopes[1] < 0.0:
            a = t
        else:
            b = t


def worst_case_on_profile(
    model: GaussianLocationModel, family: FamilySpec, x: float, loss: LossSpec,
    theta_interval: Interval,
) -> WorstCaseResult:
    """worst_case_risk of family.profile(x): the best member for free coordinate x."""
    params = family.profile(x, theta_interval)
    return worst_case_risk(model, family.make(params), loss, theta_interval)


def profile_slopes(
    model: GaussianLocationModel, family: FamilySpec, x: float, loss: LossSpec,
    theta_interval: Interval, at_x: Optional[WorstCaseResult] = None,
) -> WorstCaseResult:
    """worst_case_on_profile(x) with its one-sided slopes and curvatures in x.

    An affine rule with gamma != 0 takes them from the closed form's
    partials at its worst case (`worst_case_slopes`).  The median family,
    whose error is not Gaussian, and gamma = 0, where s = 0, take
    difference quotients with h = 1e-4 instead: one-sided on each side (the
    inward one on both at a face), and the second difference as curvature
    inside the range, 0 (none) at a face.  `at_x`, when given, is the worst
    case at x, which the quotients then do not evaluate again.
    """
    if isinstance(family, AffineMeanFamily) and x != 0.0:
        est = family.make(family.profile(x, theta_interval))
        return worst_case_slopes(model, est, loss, theta_interval,
                                 family.abs_mu_slopes(x, theta_interval))

    def worst(at: float) -> float:
        return worst_case_on_profile(model, family, at, loss, theta_interval).sup_value

    if at_x is None:
        at_x = worst_case_on_profile(model, family, x, loss, theta_interval)
    box, r0 = family.bounds[0], at_x.sup_value
    lo, hi = max(x - 1e-4, box.lo), min(x + 1e-4, box.hi)
    left = (r0 - worst(lo)) / (x - lo) if lo < x else None
    right = (worst(hi) - r0) / (hi - x) if x < hi else left
    left = right if left is None else left
    curv = 2.0 * (right - left) / (hi - lo) if lo < x < hi else 0.0
    return replace(at_x, slopes=(left, right), curvatures=(curv, curv))


def solve_minimax(
    model: GaussianLocationModel,
    family: FamilySpec,
    loss: LossSpec,
    theta_interval: Interval,
    maxiter: int = MAXITER,
) -> MinimaxResult:
    """Minimize sup_theta risk over the family's free coordinate.

    `search_iterations` counts the search's slope passes, and `converged`
    says it stopped at an optimum rather than at the `maxiter` cap; an
    unconverged solve still returns the best point it evaluated.  A median
    family takes its closed-form optimum: no search, 0 iterations,
    converged.  A `maxiter` below 1 is a ValueError.
    """
    if maxiter < 1:
        raise ValueError(f"maxiter must be >= 1, got {maxiter}")
    if isinstance(family, MedianShiftFamily):
        box = family.bounds[0]
        # never -0.0: max and min keep their first argument on a tie
        x = min(max(0.0, box.lo), box.hi)
        inner = worst_case_on_profile(model, family, x, loss, theta_interval)
        return MinimaxResult(best_params=(x,), minimax_value=inner.sup_value,
                             worst_case=inner, search_iterations=0, converged=True)
    search = scipy_minimize(
        functools.partial(profile_slopes, model, family, loss=loss,
                          theta_interval=theta_interval),
        family.breakpoints(theta_interval), maxiter,
    )
    return MinimaxResult(
        best_params=family.profile(search.x, theta_interval),
        minimax_value=search.worst_case.sup_value,
        worst_case=search.worst_case,
        search_iterations=search.nit,
        converged=search.success,
    )
