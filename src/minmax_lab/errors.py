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
    """Quadrature needs an exact Gaussian error law, and an exact worst case
    needs a theta-free or Gaussian-affine error; this estimator only admits
    an empirical one."""


class NonFiniteRiskError(MinmaxLabError):
    """A risk evaluation produced a non-finite value."""


class InsufficientClassesError(MinmaxLabError, ValueError):
    """A partition check needs at least two distinct exponent classes."""


class ExponentPreconditionError(MinmaxLabError, ValueError):
    """The refutation engine requires finite local exponents > 1, clearly
    separated."""


class ConfigError(MinmaxLabError):
    """A run configuration is missing, malformed, or inconsistent."""
