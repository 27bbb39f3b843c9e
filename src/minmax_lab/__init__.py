"""Worst-case risk laboratory for location estimation under power-type losses.

Evaluates frequentist risk in the Gaussian location model, solves
min-sup problems over parametric estimator families, classifies losses by
their local exponent, and produces numerical certificates that one family
optimum cannot serve two different exponent classes.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateLossError,
    ExponentPreconditionError,
    InsufficientClassesError,
    MinmaxLabError,
    NonFiniteRiskError,
    NonPositiveScaleError,
    OracleEstimatorError,
    QuadratureUnsupportedError,
)
from .model import (
    AffineMean,
    EstimatorSpec,
    GaussianLocationModel,
    Interval,
    SampleMedian,
    SignPerturbed,
    derive_seed,
    error_law,
)
from .losses import (
    ExponentClassification,
    Huber,
    LossSpec,
    Power,
    Scaled,
    SumLoss,
    classify_exponent,
    loss_of_error,
    scale_loss,
)
from .risk import (
    MonteCarlo,
    Quadrature,
    RiskEstimate,
    WorstCaseResult,
    crosscheck_risk,
    risk,
    worst_case_risk,
)
from .minimax import (
    AffineMeanFamily,
    FamilySpec,
    MedianShiftFamily,
    MinimaxResult,
    solve_minimax,
)
from .exclusivity import (
    PartitionReport,
    RefutationCertificate,
    Verdict,
    check_exclusivity_partition,
    grad_worst_case,
    mean_shift_risk,
    mean_shift_risk_deriv,
    refute_joint_minimaxity,
)

__all__ = [
    "__version__",
    # errors
    "MinmaxLabError",
    "ConfigError",
    "DegenerateLossError",
    "ExponentPreconditionError",
    "InsufficientClassesError",
    "NonFiniteRiskError",
    "NonPositiveScaleError",
    "OracleEstimatorError",
    "QuadratureUnsupportedError",
    # model
    "GaussianLocationModel",
    "Interval",
    "AffineMean",
    "SampleMedian",
    "SignPerturbed",
    "EstimatorSpec",
    "error_law",
    "derive_seed",
    # losses
    "Power",
    "Scaled",
    "SumLoss",
    "Huber",
    "LossSpec",
    "ExponentClassification",
    "loss_of_error",
    "scale_loss",
    "classify_exponent",
    # risk
    "Quadrature",
    "MonteCarlo",
    "RiskEstimate",
    "WorstCaseResult",
    "risk",
    "crosscheck_risk",
    "worst_case_risk",
    # minimax
    "AffineMeanFamily",
    "MedianShiftFamily",
    "FamilySpec",
    "MinimaxResult",
    "solve_minimax",
    # exclusivity
    "Verdict",
    "RefutationCertificate",
    "PartitionReport",
    "grad_worst_case",
    "refute_joint_minimaxity",
    "mean_shift_risk",
    "mean_shift_risk_deriv",
    "check_exclusivity_partition",
]
