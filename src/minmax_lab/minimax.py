"""Smallest worst-case risk over a parametric estimator family.

Every family here has one free coordinate, the first of its parameters, so
the outer problem is a bounded scalar search.  AffineMeanFamily searches
gamma: by Anderson's lemma the worst case of gamma * mean(X) + beta depends
on beta only through max |(gamma - 1) * theta + beta| over the two ends of
the theta interval, which beta*(gamma) = (1 - gamma) * mid, clipped to the
beta range, minimizes for every loss.  MedianShiftFamily searches its shift.

The search is a port of scipy's bounded Brent method (Brent 1973,
`minimize_scalar(method="bounded")`), bit-identical to it: the same points
are evaluated in the same order, and it imports nothing beyond `math`, so
a command starts without loading scipy.  It keeps the name
`scipy_minimize` only because the benchmark's tracer patches that name.
It stops within 1e-5 of the minimum, so its point is compared with the
family's breakpoints (range ends and kinks of the profile), and the
smallest value wins: an optimum on a box face or at a kink comes out
exactly.  Results are family-relative: a minimizer over the given
parameter box, not a claim about all measurable decision rules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple, Optional, Sequence, Tuple, Union

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
    SCHEMA: ClassVar[str] = "minmax-lab/minimax-result/v5"

    best_params: Tuple[float, ...]
    minimax_value: float
    worst_case: WorstCaseResult
    search_iterations: int
    converged: bool
    breakpoint_gap: float


class BoundedSearch(NamedTuple):
    """Point and value `scipy_minimize` stopped at, with its counts."""

    x: float
    fun: float
    nit: int
    nfev: int
    success: bool


# scipy_minimize is a port of _minimize_scalar_bounded in scipy 1.17.1
# (scipy/optimize/_optimize.py), under its licence:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
def scipy_minimize(
    fun: Callable[[float], float], lo: float, hi: float, maxiter: int
) -> BoundedSearch:
    """Minimize fun on [lo, hi] by Brent's bounded method, as scipy does
    with xatol = 1e-5.

    The caller guarantees finite lo < hi and a finite fun, so scipy's
    bounds checks and NaN status are left out.  The search stops when the
    bracket around the best point is within about xatol, or unsuccessfully
    after maxiter evaluations.
    """
    xatol = 1e-5
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    # xf is the best point so far, nfc the second best, fulc the previous nfc
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fun(xf)
    fnfc = ffulc = fx
    num = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    success = True
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = fun(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            success = False
            break
    return BoundedSearch(x=xf, fun=fx, nit=num, nfev=num, success=success)


def family_method(family: FamilySpec, opts: SolveOptions) -> RiskMethod:
    """Risk method for a family: exact quadrature when available, else
    seeded Monte Carlo with common random numbers across the whole solve."""
    if isinstance(family, AffineMeanFamily):
        return Quadrature()
    return MonteCarlo(opts.mc_samples, derive_seed(opts.seed, 1))


def worst_case_on_profile(
    model: GaussianLocationModel, family: FamilySpec, x: float, loss: LossSpec,
    theta_interval: Interval, method: RiskMethod,
) -> WorstCaseResult:
    """worst_case_risk of family.profile(x): the best member for free coordinate x."""
    params = family.profile(x, theta_interval)
    return worst_case_risk(model, family.make(params), loss, theta_interval, method=method)


def solve_minimax(
    model: GaussianLocationModel,
    family: FamilySpec,
    loss: LossSpec,
    theta_interval: Interval,
    opts: Optional[SolveOptions] = None,
) -> MinimaxResult:
    """Minimize sup_theta risk over the family's free coordinate.

    `search_iterations` is the search's iteration count and `converged` its
    success flag; a False flag still returns the best point found.
    `breakpoint_gap` is the distance from the search point to the
    returned one, nonzero only when a breakpoint won.
    """
    if opts is None:
        opts = SolveOptions()
    method = family_method(family, opts)
    box = family.bounds[0]
    # cached by x: the breakpoint comparison below starts with the search's
    # own point, which the search has already evaluated
    worst_at = functools.lru_cache(maxsize=None)(functools.partial(
        worst_case_on_profile, model, family,
        loss=loss, theta_interval=theta_interval, method=method,
    ))
    search = scipy_minimize(lambda x: worst_at(x).sup_value, box.lo, box.hi, opts.maxiter)
    x_search = search.x
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
        worst_case=inner,
        search_iterations=int(search.nit),
        converged=bool(search.success),
        breakpoint_gap=abs(x_search - x),
    )

