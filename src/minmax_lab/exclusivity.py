"""Can one estimator be worst-case optimal for two different power classes?

The engine answers with numerical certificates.  For a pair of losses with
distinct local exponents p < q (both > 1), it solves the family minimax
problem for the p-loss and walks downhill for the q-loss in the family's
free coordinate x, along the profile the solver searched.  No kink of the
worst case lies across it, so `gradient_q`, a difference quotient in x, is
a true slope, and `direction` is the sign of the step in x:

  * a strictly negative q-risk change at some step alpha, with the p-risk
    degrading only quadratically (fitted slope of |delta R_p| vs alpha near
    2), certifies that the p-optimum is not q-optimal -> Refuted;
  * a vanishing q-slope, or a descent step that would leave the range at
    the face the optimum sits on (KKT on an interval), means both
    objectives are stationary at the same point in this family ->
    StationaryBoth (no refutation available here);
  * otherwise the ladder failed to certify anything -> NoDescentInFamily.

Verdicts are family-relative by construction.  The sign-flip perturbation
(stepping the estimate toward a fixed target) leaves every parametric
family here, so it is evaluated by Monte Carlo and reported without a
verdict.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence, Tuple

import numpy as np

from .errors import ExponentPreconditionError, InsufficientClassesError
# loss_of_error is not called here; the benchmark's tracer patches the name
from .losses import LossSpec, Power, classify_exponent, loss_of_error  # noqa: F401
from .model import (
    AffineMean,
    EstimatorSpec,
    GaussianLocationModel,
    Interval,
    SignPerturbed,
    _require_finite,
    check_estimator,
)
from .minimax import (
    FamilySpec,
    MinimaxResult,
    RealizabilityReport,
    SolveOptions,
    family_method,
    realizability_report,
    solve_minimax,
    worst_case_at,
    worst_case_on_profile,
)
from .quadrature import gaussian_expectation
from .risk import MonteCarlo, Quadrature, WorstCaseResult, risk, worst_case_risk


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


@dataclass(frozen=True)
class RefuteOptions:
    solve: SolveOptions = field(default_factory=SolveOptions)
    halvings: int = 8

    def __post_init__(self):
        # past 52 halvings the step 0.1 / 2**k no longer moves an x of
        # order 1 in double precision
        if not 1 <= self.halvings <= 52:
            raise ValueError(f"halvings must be in [1, 52], got {self.halvings}")


def grad_worst_case(
    model: GaussianLocationModel,
    family: FamilySpec,
    params: Sequence[float],
    loss: LossSpec,
    theta_interval: Interval,
    opts: Optional[SolveOptions] = None,
) -> np.ndarray:
    """Central finite-difference gradient of sup_theta risk over all family
    parameters: the acceptance gate checks it; the refutation does not use it."""
    h = 1e-4
    if opts is None:
        opts = SolveOptions()
    params = np.asarray(params, dtype=float)
    method = family_method(family, opts)

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
        f_up = worst_case_at(model, family, up, loss, theta_interval, opts, method).sup_value
        f_dn = worst_case_at(model, family, dn, loss, theta_interval, opts, method).sup_value
        grad[i] = (f_up - f_dn) / (2.0 * h)
    return grad


def refute_joint_minimaxity(
    model: GaussianLocationModel,
    family: FamilySpec,
    loss_p: LossSpec,
    loss_q: LossSpec,
    theta_interval: Interval,
    opts: Optional[RefuteOptions] = None,
    p_solution: Optional[MinimaxResult] = None,
) -> RefutationCertificate:
    """Certificate that the loss_p family optimum is (or is not) improvable
    for loss_q.

    Requires both local exponents > 1 and separated by more than 0.05;
    equal-class pairs are rejected up front because positive scaling never
    leaves a class.  `p_solution`, when given, must be the
    result of solve_minimax for loss_p with the same model, family, interval
    and `opts.solve`; it is used instead of solving that problem again.
    """
    if opts is None:
        opts = RefuteOptions()

    cls_p = classify_exponent(loss_p)
    cls_q = classify_exponent(loss_q)
    if cls_p.p_hat <= 1.0 or cls_q.p_hat <= 1.0:
        raise ExponentPreconditionError(
            f"both local exponents must exceed 1, got {cls_p.p_hat:.4f} and {cls_q.p_hat:.4f}"
        )
    if abs(cls_p.p_hat - cls_q.p_hat) <= 0.05:
        raise ExponentPreconditionError(
            f"local exponents {cls_p.p_hat:.4f} and {cls_q.p_hat:.4f} are in the "
            "same class (gap <= 0.05)"
        )

    mm = p_solution
    if mm is None:
        mm = solve_minimax(model, family, loss_p, theta_interval, opts.solve)
    x = mm.best_params[0]
    box = family.bounds[0]
    method = family_method(family, opts.solve)

    def worst(loss: LossSpec, at: float) -> float:
        return worst_case_on_profile(
            model, family, at, loss, theta_interval, opts.solve, method
        ).sup_value

    def derivative(loss: LossSpec) -> float:
        # central in the interior, one-sided at a face of the range
        lo, hi = max(x - 1e-4, box.lo), min(x + 1e-4, box.hi)
        return (worst(loss, hi) - worst(loss, lo)) / (hi - lo)

    rp0 = mm.minimax_value
    rq0 = worst(loss_q, x)
    g = derivative(loss_q)
    step = -math.copysign(1.0, g)
    # KKT on an interval: the q-risk is flat, or its descent step would
    # leave the range through the face x sits on
    face = box.hi if step > 0 else box.lo
    stationary = abs(g) <= 1e-2 * max(1.0, abs(rq0)) or x == face

    ladder = []
    for k in range(0 if stationary else opts.halvings):
        alpha = 0.1 / 2.0**k
        x_k = x + alpha * step
        if box.contains(x_k):
            ladder.append(LadderPoint(alpha, worst(loss_p, x_k) - rp0, worst(loss_q, x_k) - rq0))

    successes = [pt for pt in ladder if pt.delta_Rq < 0.0]
    fit_pts = [pt for pt in successes if pt.delta_Rp != 0.0]
    fit_pts = sorted(fit_pts, key=lambda pt: pt.alpha)[:4]
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

    head = max(successes, key=lambda pt: pt.alpha) if successes else None
    return RefutationCertificate(
        p=cls_p.p_hat,
        q=cls_q.p_hat,
        delta_star_params=tuple(float(v) for v in mm.best_params),
        gradient_q=(g,),
        gradient_p_norm=abs(derivative(loss_p)),
        direction=(0.0 if stationary else step,),
        alpha=head.alpha if head else None,
        delta_Rq=head.delta_Rq if head else None,
        delta_Rp=head.delta_Rp if head else None,
        taylor_slope_p=slope,
        verdict=verdict,
        ladder=tuple(ladder),
    )


def sign_perturbation_risk(
    model: GaussianLocationModel,
    base_est: EstimatorSpec,
    epsilon: float,
    theta_star: float,
    loss: LossSpec,
    theta_interval: Interval,
    mc_samples: int,
    seed: int,
) -> Tuple[WorstCaseResult, WorstCaseResult]:
    """Worst-case risks of a base rule and its sign-flip perturbation.

    The perturbed rule steps the base estimate by epsilon toward a fixed
    target theta_star.  Both rules are evaluated by Monte Carlo on shared
    draws; no conclusion is drawn, the pair of results is the output.
    epsilon = 0 degenerates to evaluating the base rule twice.
    """
    check_estimator(base_est)
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    method = MonteCarlo(mc_samples, seed)
    perturbed_est = (
        base_est
        if epsilon == 0.0
        else SignPerturbed(base=base_est, epsilon=float(epsilon), theta_star=float(theta_star))
    )
    base = worst_case_risk(model, base_est, loss, theta_interval, grid=64, method=method)
    perturbed = worst_case_risk(model, perturbed_est, loss, theta_interval, grid=64, method=method)
    return base, perturbed


def mean_shift_risk(alpha: float, n: int = 1, q: float = 2.0) -> float:
    """E|Z/sqrt(n) - alpha|^q for standard normal Z: the quadrature risk of
    the mean shifted by alpha under the power-q loss at theta = 0, as a
    scalar function of the shift.  A non-finite alpha is a ValueError, a
    risk that overflows a NonFiniteRiskError.
    """
    if q <= 1:
        raise ValueError(f"q must be > 1, got {q}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    alpha = _require_finite("alpha", alpha)
    model = GaussianLocationModel(n)
    return risk(model, AffineMean(1.0, -alpha), Power(p=float(q)), 0.0, Quadrature()).value


def mean_shift_risk_deriv(
    alpha: float,
    n: int = 1,
    q: float = 2.0,
    mode: Literal["analytic", "fd"] = "analytic",
) -> float:
    """d/d(alpha) of mean_shift_risk.

    analytic: -q * E[(Z/sqrt(n) - alpha) * |Z/sqrt(n) - alpha|^(q-2)];
    fd: central difference with step 1e-5.  The two must agree closely
    for q >= 1.5; the sign of the result is reported as computed.
    """
    if q <= 1:
        raise ValueError(f"q must be > 1, got {q}")
    if mode == "fd":
        up = mean_shift_risk(alpha + 1e-5, n, q)
        dn = mean_shift_risk(alpha - 1e-5, n, q)
        return (up - dn) / 2e-5
    if mode != "analytic":
        raise ValueError(f"mode must be 'analytic' or 'fd', got {mode!r}")

    def signed_power(t: np.ndarray) -> np.ndarray:
        return np.sign(t) * np.abs(t) ** (q - 1.0)

    value = gaussian_expectation(
        signed_power,
        mu=-float(alpha),
        s=1.0 / math.sqrt(n),
        roots=(0.0,),
    )
    return -q * value + 0.0  # normalizes -0.0 at symmetric shifts


@dataclass(frozen=True)
class ClassSummary:
    exponent: float
    params: Tuple[float, ...]
    value: float


@dataclass(frozen=True)
class PartitionReport:
    """Joint outcome of per-class minimax solves and all pairwise refutations."""

    classes: Tuple[ClassSummary, ...]
    pairwise_disjoint: bool
    witnesses: Tuple[RefutationCertificate, ...]
    param_distances: Tuple[Tuple[float, ...], ...]


def check_exclusivity_partition(
    model: GaussianLocationModel,
    family: FamilySpec,
    exponents: Sequence[float],
    theta_interval: Interval,
    opts: Optional[RefuteOptions] = None,
) -> PartitionReport:
    """Solve each exponent class and try to refute every cross-class pair.

    Each class is solved once: the refutations reuse the per-class results.
    pairwise_disjoint is True exactly when every pair came back Refuted;
    other verdicts are carried in the witnesses rather than raised.
    """
    exponents = [float(p) for p in exponents]
    if len(exponents) < 2:
        raise InsufficientClassesError(
            f"need at least two exponent classes, got {len(exponents)}"
        )
    if len(set(exponents)) != len(exponents):
        raise InsufficientClassesError(f"exponents must be distinct, got {exponents}")
    if any(p <= 1.0 for p in exponents):
        raise ExponentPreconditionError(
            f"all exponents must exceed 1, got {exponents}"
        )
    if opts is None:
        opts = RefuteOptions()

    exponents = sorted(exponents)
    losses = [Power(p=p) for p in exponents]
    report: RealizabilityReport = realizability_report(
        model, family, losses, theta_interval, opts.solve
    )
    classes = tuple(
        ClassSummary(exponent=p, params=r.best_params, value=r.minimax_value)
        for p, r in zip(exponents, report.results)
    )

    witnesses = tuple(
        refute_joint_minimaxity(
            model, family, losses[i], losses[j], theta_interval, opts,
            p_solution=report.results[i],
        )
        for i in range(len(losses))
        for j in range(i + 1, len(losses))
    )
    return PartitionReport(
        classes=classes,
        pairwise_disjoint=all(w.verdict is Verdict.REFUTED for w in witnesses),
        witnesses=witnesses,
        param_distances=report.param_distances,
    )
