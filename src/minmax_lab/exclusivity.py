"""Can one estimator be worst-case optimal for two different power classes?

The engine answers with numerical certificates.  For a pair of losses with
distinct local exponents p < q (both > 1, read exactly by
losses.local_exponent), it solves the family minimax problem for the p-loss
and walks downhill for the q-loss in the family's free coordinate x, along
the profile the solver searched.  One slope pass of the q-loss at x gives
its worst case, `gradient_q` and R_q'' exactly (from the closed form's
partials, risk.worst_case_slopes): the steepest-descent slope, one-sided at
a face or a kink of the profile, and `direction` is the sign of the step in
x.  `gradient_p_norm` is the same slope of the p-loss, from the p-solve's
own `worst_case` record.  The median family and gamma = 0 (s = 0) take
difference quotients with h = 1e-4 instead.  The steps alpha are alpha0/2
down to alpha0/16 below alpha0 = 2|slope| / R_q'' (at most 0.1), where the
local quadratic of the q-risk stops descending:

  * a strictly negative q-risk change at some step alpha, with the p-risk
    degrading only quadratically (fitted slope of |delta R_p| vs alpha near
    2), certifies that the p-optimum is not q-optimal -> Refuted;
  * a q-slope within 1e-2 R_q of zero, or a descent step that would leave
    the range at the face the optimum sits on (KKT on an interval), means
    both objectives are stationary at the same point in this family ->
    StationaryBoth (no refutation available here);
  * otherwise the ladder failed to certify anything -> NoDescentInFamily.

Every step and test is relative, so no verdict or step moves when theta,
sigma and the beta box scale together (the conic structure of the
losses).  Verdicts are family-relative by construction: every worst case
here is one of a family member, exact by the structure risk.py uses.  A
rule outside the families, such as the sign-flip perturbation in
model.py, has pointwise risks only.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar, Literal, Optional, Sequence, Tuple

import numpy as np

from .closed_form import gaussian_risk
from .errors import ExponentPreconditionError, InsufficientClassesError
# the benchmark's tracer patches classify_exponent and loss_of_error here
from .losses import LossSpec, Power, classify_exponent, local_exponent, loss_of_error  # noqa: F401
from .model import AffineMean, GaussianLocationModel, Interval, _require_finite
from .minimax import (
    MAXITER,
    FamilySpec,
    MinimaxResult,
    profile_slopes,
    solve_minimax,
    worst_case_on_profile,
)
# gaussian_expectation is not called here either; the tracer patches it too
from .quadrature import gaussian_expectation  # noqa: F401
# the benchmark's tracer also patches worst_case_risk under this module
from .risk import Quadrature, WorstCaseResult, _check_exponent, _checked, risk, worst_case_risk


class Verdict(enum.Enum):
    REFUTED = "Refuted"
    NO_DESCENT_IN_FAMILY = "NoDescentInFamily"
    STATIONARY_BOTH = "StationaryBoth"


@dataclass(frozen=True)
class LadderPoint:
    """One trial step: both worst-case risk changes at step size alpha."""

    alpha: float
    delta_Rp: float
    delta_Rq: float


@dataclass(frozen=True)
class RefutationCertificate:
    SCHEMA: ClassVar[str] = "minmax-lab/refutation-certificate/v3"

    p: float
    q: float
    delta_star_params: Tuple[float, ...]
    gradient_q: Tuple[float, ...]
    gradient_p_norm: float
    direction: Tuple[float, ...]
    alpha: Optional[float]
    delta_Rq: Optional[float]
    delta_Rp: Optional[float]
    taylor_slope_p: Optional[float]
    verdict: Verdict
    ladder: Tuple[LadderPoint, ...]


def grad_worst_case(
    model: GaussianLocationModel,
    family: FamilySpec,
    params: Sequence[float],
    loss: LossSpec,
    theta_interval: Interval,
) -> np.ndarray:
    """Central finite-difference gradient of sup_theta risk over all family
    parameters: the acceptance gate checks it; the refutation does not use it."""
    h = 1e-4
    params = np.asarray(params, dtype=float)

    grad = np.empty_like(params)
    for i in range(params.size):
        step = np.zeros_like(params)
        step[i] = h
        up, dn = params + step, params - step
        if not all(b.contains(u) and b.contains(d) for b, u, d in zip(family.bounds, up, dn)):
            raise ValueError(
                f"params {tuple(params)} are not interior to the family box "
                f"at step {h} in coordinate {i}"
            )
        f_up = worst_case_risk(model, family.make(up), loss, theta_interval)
        f_dn = worst_case_risk(model, family.make(dn), loss, theta_interval)
        grad[i] = (f_up.sup_value - f_dn.sup_value) / (2.0 * h)
    return grad


def refute_joint_minimaxity(
    model: GaussianLocationModel,
    family: FamilySpec,
    loss_p: LossSpec,
    loss_q: LossSpec,
    theta_interval: Interval,
    p_solution: Optional[MinimaxResult] = None,
    q_solution: Optional[MinimaxResult] = None,
) -> RefutationCertificate:
    """Certificate that the loss_p family optimum is (or is not) improvable
    for loss_q.

    Requires both local exponents > 1 and separated by more than 0.05;
    equal-class pairs are rejected up front because positive scaling never
    leaves a class.  The exponents, the certificate's `p` and `q`, are read
    from the specs (losses.local_exponent), not fitted.  `p_solution`, when
    given, must be the result of solve_minimax for loss_p with the same
    model, family and interval; it is used instead of solving that problem
    again.
    `q_solution`, likewise for loss_q, lends its optimum's worst case and
    slopes wherever the certificate evaluates loss_q there.
    """
    p, q = local_exponent(loss_p)[0], local_exponent(loss_q)[0]
    if p <= 1.0 or q <= 1.0:
        raise ExponentPreconditionError(
            f"both local exponents must exceed 1, got {p:.4f} and {q:.4f}"
        )
    if abs(p - q) <= 0.05:
        raise ExponentPreconditionError(
            f"local exponents {p:.4f} and {q:.4f} are in the same class (gap <= 0.05)"
        )

    mm = p_solution
    if mm is None:
        mm = solve_minimax(model, family, loss_p, theta_interval)
    x = mm.best_params[0]
    box = family.bounds[0]

    def worst(loss: LossSpec, solution: Optional[MinimaxResult], at: float) -> float:
        # a rung may land on the optimum of its loss's own solve (the first
        # rung does, for a quadratic q-risk): that value is known
        if solution is not None and at == solution.best_params[0]:
            return solution.minimax_value
        return worst_case_on_profile(model, family, at, loss, theta_interval).sup_value

    def slopes_at_x(loss: LossSpec, solution: Optional[MinimaxResult]) -> WorstCaseResult:
        # a solve's own record where its optimum is x (always, for p); an
        # affine solve's carries the slopes of its last pass
        known = solution.worst_case if solution and solution.best_params[0] == x else None
        if known and known.slopes:
            return known
        return profile_slopes(model, family, x, loss, theta_interval, at_x=known)

    at_p, at_q = slopes_at_x(loss_p, mm), slopes_at_x(loss_q, q_solution)
    rp0, rq0 = mm.minimax_value, at_q.sup_value
    g = _descent_slope(at_q, x, box)
    step = -math.copysign(1.0, g)
    # KKT on an interval: the q-slope is flat relative to the q-risk, or its
    # descent step would leave the range through the face x sits on
    face = box.hi if step > 0 else box.lo
    stationary = abs(g) <= 1e-2 * rq0 or x == face

    # The local quadratic in the step, R_q - |g| a + R_q'' a^2 / 2, descends
    # for a < alpha0 = 2|g| / R_q'' (at most 0.1), and the ladder takes the
    # four steps below that boundary the Taylor fit uses.  R_q'' is the
    # one-sided curvature on the side of the step; without a positive one
    # alpha0 is 0.1.
    curv = at_q.curvatures[1 if step > 0 else 0]
    alpha0 = min(0.1, 2.0 * abs(g) / curv) if curv > 0.0 else 0.1
    ladder = []
    for k in () if stationary else range(1, 5):
        alpha = alpha0 / 2.0**k
        x_k = x + alpha * step
        if box.contains(x_k):
            ladder.append(LadderPoint(alpha, worst(loss_p, mm, x_k) - rp0,
                                      worst(loss_q, q_solution, x_k) - rq0))

    # the ladder descends in alpha: the head is the largest step that
    # descends, and the fit takes its points ascending
    successes = [pt for pt in ladder if pt.delta_Rq < 0.0]
    fit_pts = [pt for pt in reversed(successes) if pt.delta_Rp != 0.0]
    slope = None
    if len(fit_pts) >= 2:
        xs = np.log([pt.alpha for pt in fit_pts])
        ys = np.log([abs(pt.delta_Rp) for pt in fit_pts])
        slope = float(np.polyfit(xs, ys, 1)[0])

    if stationary:
        verdict = Verdict.STATIONARY_BOTH
    elif slope is not None and 1.7 <= slope <= 2.3:
        verdict = Verdict.REFUTED
    else:
        verdict = Verdict.NO_DESCENT_IN_FAMILY

    head = successes[0] if successes else None
    return RefutationCertificate(
        p=p,
        q=q,
        delta_star_params=mm.best_params,
        gradient_q=(g,),
        gradient_p_norm=abs(_descent_slope(at_p, x, box)),
        direction=(0.0 if stationary else step,),
        alpha=head.alpha if head else None,
        delta_Rq=head.delta_Rq if head else None,
        delta_Rp=head.delta_Rp if head else None,
        taylor_slope_p=slope,
        verdict=verdict,
        ladder=tuple(ladder),
    )


def _descent_slope(at: WorstCaseResult, x: float, box: Interval) -> float:
    """The slope at x that steepest descent sees: the inward one-sided slope
    at a face; inside, the one-sided slope that descends, or 0.0 where
    neither does (a kink that minimizes the profile)."""
    left, right = at.slopes
    if x == box.lo:
        return right
    if x == box.hi:
        return left
    return right if right < 0.0 else left if left > 0.0 else 0.0


def _check_shift(alpha: float, n: int, q: float) -> Tuple[float, GaussianLocationModel]:
    """The input checks of both shift-risk functions, n by the model's own
    rule; returns alpha and the model of n observations."""
    if _require_finite("q", q) <= 1:
        raise ValueError(f"q must be > 1, got {q}")
    model = GaussianLocationModel(n)
    return _require_finite("alpha", alpha), model


def mean_shift_risk(alpha: float, n: int = 1, q: float = 2.0) -> float:
    """E|Z/sqrt(n) - alpha|^q for standard normal Z: the exact risk of
    the mean shifted by alpha under the power-q loss at theta = 0, as a
    scalar function of the shift.  A non-finite q or alpha, q <= 1 or an n
    that GaussianLocationModel refuses is a ValueError; a q above
    risk.MAX_EXPONENT or a risk that overflows is a NonFiniteRiskError.
    """
    alpha, model = _check_shift(alpha, n, q)
    return risk(model, AffineMean(1.0, -alpha), Power(p=float(q)), 0.0, Quadrature()).value


def mean_shift_risk_deriv(
    alpha: float,
    n: int = 1,
    q: float = 2.0,
    mode: Literal["analytic", "fd"] = "analytic",
) -> float:
    """d/d(alpha) of mean_shift_risk.

    analytic: -R_mu of the closed form R(mu, s) = E|mu + s*Z|^q at
    mu = -alpha, s = 1/sqrt(n) (closed_form.gaussian_risk);
    fd: central difference with step 1e-5 * max(1, |alpha|), relative past
    |alpha| = 1 so that it is not lost in rounding at large shifts.  The
    two must agree closely for q >= 1.5; the sign of the result is
    reported as computed.  Both modes check q, n and alpha as
    mean_shift_risk does, and a q above risk.MAX_EXPONENT or a derivative
    that is not finite is a NonFiniteRiskError.
    """
    alpha, model = _check_shift(alpha, n, q)
    context = f"alpha={alpha}, n={n}, q={q}"
    if mode == "fd":
        h = 1e-5 * max(1.0, abs(alpha))
        # a step that overflows stops at the largest float, where the risk,
        # at least |alpha|^q, overflows as well
        up = mean_shift_risk(min(alpha + h, sys.float_info.max), n, q)
        dn = mean_shift_risk(max(alpha - h, -sys.float_info.max), n, q)
        return _checked((up - dn) / (2.0 * h), context, "risk derivative")
    if mode != "analytic":
        raise ValueError(f"mode must be 'analytic' or 'fd', got {mode!r}")
    loss = Power(p=q)
    _check_exponent(loss)
    r_mu = gaussian_risk(loss, -alpha, model.mean_sd)[1]
    # + 0.0 normalizes -0.0 at symmetric shifts
    return _checked(-r_mu + 0.0, context, "risk derivative")


@dataclass(frozen=True)
class ClassSummary:
    exponent: float
    params: Tuple[float, ...]
    value: float


@dataclass(frozen=True)
class PartitionReport:
    """Joint outcome of per-class minimax solves and all pairwise refutations.

    `converged` is True when every class solve converged.  It is a run fact
    for the exit code and is kept out of the JSON document.
    """

    SCHEMA: ClassVar[str] = "minmax-lab/partition-report/v1"

    classes: Tuple[ClassSummary, ...]
    pairwise_disjoint: bool
    witnesses: Tuple[RefutationCertificate, ...]
    param_distances: Tuple[Tuple[float, ...], ...]
    converged: bool = field(metadata={"json": False})


def check_exclusivity_partition(
    model: GaussianLocationModel,
    family: FamilySpec,
    exponents: Sequence[float],
    theta_interval: Interval,
    maxiter: int = MAXITER,
) -> PartitionReport:
    """Solve each exponent class and try to refute every cross-class pair.

    Each class is solved once, with `maxiter` as its search's iteration
    cap: the refutations reuse the per-class results.
    pairwise_disjoint is True exactly when every pair came back Refuted;
    other verdicts are carried in the witnesses rather than raised.
    param_distances are the Euclidean distances between the class optima.
    """
    exponents = [float(p) for p in exponents]
    if len(exponents) < 2:
        raise InsufficientClassesError(
            f"need at least two exponent classes, got {len(exponents)}"
        )
    if len(set(exponents)) != len(exponents):
        raise InsufficientClassesError(f"exponents must be distinct, got {exponents}")
    if not all(1.0 < p < math.inf for p in exponents):
        raise ExponentPreconditionError(
            f"all exponents must be finite and exceed 1, got {exponents}"
        )

    exponents = sorted(exponents)
    losses = [Power(p=p) for p in exponents]
    results = [solve_minimax(model, family, loss, theta_interval, maxiter) for loss in losses]
    optima = [np.asarray(r.best_params) for r in results]

    witnesses = tuple(
        refute_joint_minimaxity(
            model, family, losses[i], losses[j], theta_interval,
            p_solution=results[i], q_solution=results[j],
        )
        for i in range(len(losses))
        for j in range(i + 1, len(losses))
    )
    return PartitionReport(
        classes=tuple(
            ClassSummary(exponent=p, params=r.best_params, value=r.minimax_value)
            for p, r in zip(exponents, results)
        ),
        pairwise_disjoint=all(w.verdict is Verdict.REFUTED for w in witnesses),
        witnesses=witnesses,
        param_distances=tuple(
            tuple(float(np.linalg.norm(a - b)) for b in optima) for a in optima
        ),
        converged=all(r.converged for r in results),
    )
