"""Smallest worst-case risk over a parametric estimator family.

The objective params -> sup_theta risk is only piecewise smooth (the inner
argmax jumps between interval endpoints), so the outer search is
derivative-free: Nelder-Mead simplex descent with random restarts, the
smallest value winning with a lexicographic tie-break on parameters.
Results are family-relative: a minimizer over the given parameter box, not
a claim about all measurable decision rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from .errors import InsufficientLossesError
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
    DEFAULT_GRID,
    DEFAULT_REFINE_TOL,
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
    def param_names(self) -> Tuple[str, ...]:
        return ("gamma", "beta")

    @property
    def bounds(self) -> Tuple[Interval, ...]:
        return (self.gamma_range, self.beta_range)

    def make(self, params: Sequence[float]) -> EstimatorSpec:
        gamma, beta = params
        return AffineMean(gamma=float(gamma), beta=float(beta))


@dataclass(frozen=True)
class MedianShiftFamily:
    """All rules median(X) + beta with beta in a range."""

    beta_range: Interval

    @property
    def param_names(self) -> Tuple[str, ...]:
        return ("beta",)

    @property
    def bounds(self) -> Tuple[Interval, ...]:
        return (self.beta_range,)

    def make(self, params: Sequence[float]) -> EstimatorSpec:
        (beta,) = params
        return SampleMedian(beta=float(beta))


FamilySpec = Union[AffineMeanFamily, MedianShiftFamily]


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the nested search; defaults are the documented ones."""

    restarts: int = 5
    seed: int = 0
    xatol: float = 1e-5
    fatol: float = 1e-10
    maxiter: int = 600
    agreement_tol: float = 1e-4
    grid: int = DEFAULT_GRID
    refine_tol: float = DEFAULT_REFINE_TOL
    quad_nodes: int = 200
    mc_samples: int = 20_000


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
        return Quadrature(opts.quad_nodes)
    return MonteCarlo(opts.mc_samples, derive_seed(opts.seed, 1))


def params_in_bounds(family: FamilySpec, params: Sequence[float]) -> bool:
    return all(b.contains(float(x)) for b, x in zip(family.bounds, params))


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
    return worst_case_risk(
        model,
        family.make(params),
        loss,
        theta_interval,
        grid=opts.grid,
        refine_tol=opts.refine_tol,
        method=method,
    )


def _start_points(family: FamilySpec, opts: SolveOptions) -> List[np.ndarray]:
    bounds = family.bounds
    center = np.array([b.midpoint for b in bounds])
    starts = [center]
    rng = np.random.default_rng(derive_seed(opts.seed, 0))
    for _ in range(max(0, opts.restarts - 1)):
        starts.append(np.array([b.lo + rng.uniform() * b.width for b in bounds]))
    return starts


def solve_minimax(
    model: GaussianLocationModel,
    family: FamilySpec,
    loss: LossSpec,
    theta_interval: Interval,
    opts: Optional[SolveOptions] = None,
) -> MinimaxResult:
    """Minimize sup_theta risk over the family parameters.

    Runs Nelder-Mead from a center start plus seeded random restarts and
    keeps the smallest worst-case value.  `converged` requires the winning
    run to have terminated within tolerance and all restarts to agree on
    the optimum within `agreement_tol` per coordinate; a False flag still
    returns the best point found.
    """
    if opts is None:
        opts = SolveOptions()
    method = family_method(family, opts)

    def objective(x: np.ndarray) -> float:
        return worst_case_at(model, family, x, loss, theta_interval, opts, method).sup_value

    scipy_bounds = [(b.lo, b.hi) for b in family.bounds]

    def run_one(x0: np.ndarray):
        return scipy_minimize(
            objective,
            x0,
            method="Nelder-Mead",
            bounds=scipy_bounds,
            options={
                "xatol": opts.xatol,
                "fatol": opts.fatol,
                "maxiter": opts.maxiter,
                "maxfev": 4 * opts.maxiter,
            },
        )

    results = [run_one(x0) for x0 in _start_points(family, opts)]
    order = sorted(range(len(results)), key=lambda i: (results[i].fun, tuple(results[i].x)))
    best = results[order[0]]
    agreement = max(
        float(np.max(np.abs(r.x - best.x))) for r in results
    )

    inner = worst_case_at(model, family, best.x, loss, theta_interval, opts, method)
    return MinimaxResult(
        best_params=tuple(float(v) for v in best.x),
        minimax_value=inner.sup_value,
        inner_results=inner,
        outer_iterations=int(best.nit),
        converged=bool(best.success) and agreement < opts.agreement_tol,
        restart_agreement=agreement,
    )


@dataclass(frozen=True)
class RealizabilityReport:
    """Per-loss minimax solutions plus pairwise optimum distances."""

    losses: Tuple[LossSpec, ...]
    results: Tuple[MinimaxResult, ...]
    param_distances: Tuple[Tuple[float, ...], ...]


def realizability_report(
    model: GaussianLocationModel,
    family: FamilySpec,
    losses: Sequence[LossSpec],
    theta_interval: Interval,
    opts: Optional[SolveOptions] = None,
) -> RealizabilityReport:
    """Solve the minimax problem for each loss and compare the optima.

    The distance matrix is Euclidean in family-parameter space; well-
    separated optima are the realizability evidence that each loss is
    served by its own estimator.
    """
    losses = tuple(losses)
    if len(losses) < 2:
        raise InsufficientLossesError(
            f"need at least two losses to compare optima, got {len(losses)}"
        )
    if opts is None:
        opts = SolveOptions()
    results = tuple(
        solve_minimax(model, family, loss, theta_interval, opts) for loss in losses
    )
    pts = [np.asarray(r.best_params) for r in results]
    distances = tuple(
        tuple(float(np.linalg.norm(a - b)) for b in pts) for a in pts
    )
    return RealizabilityReport(losses=losses, results=results, param_distances=distances)
