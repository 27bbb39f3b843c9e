"""Gaussian location model, estimator specifications, and their errors.

Estimators are plain data (parameter records), never callables, so a rule
that peeks at the true location cannot be expressed at all: the oracle rule
is excluded by construction.  Everything here is a pure function of its
inputs plus an explicit seed.

The error delta(X) - theta of a rule is available in two forms: seeded
draws for every rule (`error_draws`), and, for the affine-in-mean rules
only, the exact Gaussian law mu + s*Z as the plain pair (mu, s)
(`error_law`).  `error_law` alone decides which rules have such a law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from .errors import OracleEstimatorError, QuadratureUnsupportedError


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Interval:
    """Closed finite interval, used both for theta ranges and parameter boxes."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", _require_finite("lo", self.lo))
        object.__setattr__(self, "hi", _require_finite("hi", self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"interval needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def midpoint(self) -> float:
        mid = 0.5 * (self.lo + self.hi)
        # lo + hi can overflow where the midpoint itself does not
        return mid if math.isfinite(mid) else 0.5 * self.lo + 0.5 * self.hi

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class GaussianLocationModel:
    """n i.i.d. observations from Normal(theta, sigma^2) with known sigma.

    The sample mean is then Normal(theta, sigma^2 / n).
    """

    n: int
    sigma: float = 1.0

    def __post_init__(self):
        try:
            ok = 1 <= self.n < math.inf and int(self.n) == self.n
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "sigma", _require_finite("sigma", self.sigma))
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    @property
    def mean_sd(self) -> float:
        """Standard deviation of the sample mean, sigma / sqrt(n)."""
        return self.sigma / math.sqrt(self.n)


@dataclass(frozen=True)
class AffineMean:
    """delta(X) = gamma * mean(X) + beta."""

    gamma: float
    beta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", _require_finite("gamma", self.gamma))
        object.__setattr__(self, "beta", _require_finite("beta", self.beta))


@dataclass(frozen=True)
class SampleMedian:
    """delta(X) = median(X) + beta.

    For even n the median is the midpoint of the two central order
    statistics (removes tie ambiguity); odd n is the intended default.
    """

    beta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "beta", _require_finite("beta", self.beta))


@dataclass(frozen=True)
class SignPerturbed:
    """delta(X) = base(X) + epsilon * sgn(theta_star - base(X)).

    A one-level wrapper: the base must itself be an unperturbed rule.
    """

    base: Union[AffineMean, SampleMedian]
    epsilon: float
    theta_star: float

    def __post_init__(self):
        if not isinstance(self.base, (AffineMean, SampleMedian)):
            raise ValueError("SignPerturbed base must be AffineMean or SampleMedian")
        object.__setattr__(self, "epsilon", _require_finite("epsilon", self.epsilon))
        object.__setattr__(self, "theta_star", _require_finite("theta_star", self.theta_star))
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


EstimatorSpec = Union[AffineMean, SampleMedian, SignPerturbed]

_ESTIMATOR_TYPES = (AffineMean, SampleMedian, SignPerturbed)


def check_estimator(est) -> EstimatorSpec:
    """Gate every entry point on the estimator being a known data-only spec.

    Arbitrary callables (or duck-typed stand-ins) are rejected: they could
    close over the true parameter, which is exactly the oracle rule we must
    exclude.
    """
    if not isinstance(est, _ESTIMATOR_TYPES):
        raise OracleEstimatorError(
            f"{est!r} is not a data-only estimator spec; only parameter records "
            "are accepted so that no rule can reference the unknown location"
        )
    return est


def derive_seed(master_seed: int, *counters: int) -> int:
    """Derive an independent per-task seed from a master seed.

    The documented splitting rule: feed (master_seed, counter, ...) into
    numpy's SeedSequence and take a 64-bit state word.  Deterministic,
    platform-independent, and distinct counters give independent streams.
    """
    words = np.random.SeedSequence([int(master_seed), *map(int, counters)]).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


@lru_cache(maxsize=32)
def _standard_normals(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(count)
    z.setflags(write=False)
    return z


@lru_cache(maxsize=32)
def _standard_median_errors(n: int, count: int, seed: int) -> np.ndarray:
    """median(Z_1..Z_n) draws, Z_i ~ N(0,1); scale by sigma for the model law.

    Each row of draws is partitioned in place at its middle order
    statistic k = n // 2, which is the median for odd n; for even n the
    partition is at (k - 1, k) and the median is (a + b) / 2.  These are
    the bits np.median gives, without its copy of the draws or its NaN
    scan.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, n))
    k = n // 2
    if n % 2:
        z.partition(k, axis=1)
        med = z[:, k].copy()
    else:
        z.partition((k - 1, k), axis=1)
        med = (z[:, k - 1] + z[:, k]) / 2.0
    med.setflags(write=False)
    return med


def error_draws(
    model: GaussianLocationModel,
    est: EstimatorSpec,
    theta: float,
    count: int,
    seed: int,
) -> np.ndarray:
    """Seeded draws of delta(X) - theta under the model at theta.

    Base rules reuse cached standard-normal material so that repeated calls
    with the same seed (common random numbers across theta or parameter
    sweeps) share draws and cost.
    """
    check_estimator(est)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    theta = float(theta)
    if isinstance(est, AffineMean):
        z = _standard_normals(count, seed)
        return (est.gamma - 1.0) * theta + est.beta + est.gamma * model.mean_sd * z
    if isinstance(est, SampleMedian):
        med = _standard_median_errors(model.n, count, seed)
        return model.sigma * med + est.beta
    base_err = error_draws(model, est.base, theta, count, seed)
    base_val = theta + base_err
    return base_err + est.epsilon * np.sign(est.theta_star - base_val)


def error_law(
    model: GaussianLocationModel,
    est: EstimatorSpec,
    theta: float,
) -> Tuple[float, float]:
    """Exact law of delta(X) - theta as the pair (mu, s): the error is
    mu + s * Z with Z ~ N(0, 1).

    For AffineMean(gamma, beta) the error is (gamma-1)*theta + beta plus
    gamma * sigma/sqrt(n) times a standard normal.  The scale is reported as
    |gamma| * sigma/sqrt(n); the symmetric normal makes this the same law as
    the signed version.  No other rule has an exact Gaussian error, so any
    other spec raises QuadratureUnsupportedError.  An overflow comes back as
    an infinite mu or s; the risk is then not finite, and `risk.risk`
    reports that as NonFiniteRiskError.
    """
    check_estimator(est)
    if not isinstance(est, AffineMean):
        raise QuadratureUnsupportedError(
            f"{type(est).__name__} has no exact Gaussian error law; "
            "use a MonteCarlo method"
        )
    mu = (est.gamma - 1.0) * float(theta) + est.beta
    return mu, abs(est.gamma) * model.mean_sd
