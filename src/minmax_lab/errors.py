"""Exception types shared across the package."""


class MinmaxLabError(Exception):
    """Base class for all errors raised by minmax_lab."""


class OracleEstimatorError(MinmaxLabError):
    """An estimator is not a data-only decision rule and could depend on the
    unknown parameter."""


class NonPositiveScaleError(MinmaxLabError):
    """Loss scaling factor must be strictly positive (losses form a cone,
    not a vector space)."""


class DegenerateLossError(MinmaxLabError):
    """The loss vanishes somewhere on the classification window, so a
    log-log exponent fit is undefined."""


class QuadratureUnsupportedError(MinmaxLabError):
    """Quadrature and an exact worst case need an exact error law, which
    affine rules and the sample median have; this estimator (a
    sign-perturbed rule) only admits an empirical, Monte Carlo one."""


class NonFiniteRiskError(MinmaxLabError):
    """A risk evaluation, or a result value derived from risks (such as a
    difference quotient of two of them), is not finite, or an exact risk
    is refused: the loss has a power term above risk.MAX_EXPONENT, the one
    bound for every rule, whose risk the median kernel's truncation would
    understate."""


class InsufficientClassesError(MinmaxLabError, ValueError):
    """A partition check needs at least two distinct exponent classes."""


class ExponentPreconditionError(MinmaxLabError, ValueError):
    """The refutation engine requires finite local exponents > 1, clearly
    separated."""


class ConfigError(MinmaxLabError):
    """A run configuration is missing, malformed, or inconsistent."""
