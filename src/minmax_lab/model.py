"""Gaussian location model, estimator specifications, and their errors.

Estimators are plain data (parameter records), never callables, so a rule
that peeks at the true location cannot be expressed at all: the oracle rule
is excluded by construction.  Everything here is a pure function of its
inputs plus an explicit seed.

The error delta(X) - theta of a rule is available in two forms: seeded
draws for every rule (`error_draws`), and, for the affine-in-mean rules and
the sample median, the exact law mu + s*Y as the triple (mu, s, weight),
where Y has the density weight(y) * phi(y) (`error_law`).  `error_law` alone
decides which rules have an exact law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import OracleEstimatorError, QuadratureUnsupportedError
from .quadrature import _leggauss


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
    statistics (removes tie ambiguity).  Its law is exact for every n
    (see `error_law`): symmetric and log-concave, so by Anderson's lemma the
    risk of every loss here is smallest at beta = 0.
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


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _log_cdf(t: np.ndarray) -> np.ndarray:
    """log Phi(t) elementwise, by math.erfc: no scipy on the run path."""
    return np.log(0.5 * _erfc(t / -math.sqrt(2.0)).astype(float))


@lru_cache(maxsize=32)
def _median_weight(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Density of Y = M / s_med relative to phi, where M is the median of n
    standard normals and s_med = sqrt(pi / (2n)) (David & Nagaraja, *Order
    Statistics*, 2003).  Scaling by s_med keeps Y near N(0, 1) for every n.

    Odd n = 2k+1: M has density n!/(k!)^2 (Phi(m) Phi(-m))^k phi(m).  Even
    n = 2k: M = (X_(k) + X_(k+1)) / 2 has density 2 n!/((k-1)!)^2 / (2 pi)
    times the integral over d >= 0 of (Phi(m-d) Phi(-m-d))^(k-1) e^(-m^2-d^2).
    That integrand is log-concave and decreasing in d, so it lies below
    e^(-rate d - d^2) times its value at 0, with rate its log-slope there;
    a 32-node Legendre rule on [0, D], where that bound has dropped by e^-40,
    sums it in logs.
    """
    s, k = math.sqrt(math.pi / (2 * n)), n // 2
    if n % 2:
        const = math.log(s) + math.lgamma(n + 1) - 2 * math.lgamma(k + 1)

        def weight(y):
            x = s * y
            return np.exp(const + k * (_log_cdf(x) + _log_cdf(-x)) + 0.5 * (y * y - x * x))
        return weight
    const = math.log(s / math.sqrt(0.5 * math.pi)) + math.lgamma(n + 1) - 2 * math.lgamma(k)
    _, w, x1 = _leggauss(32)

    def weight(y):
        x = s * y
        phi = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        rate = (k - 1) * phi * (np.exp(-_log_cdf(x)) + np.exp(-_log_cdf(-x)))
        span = 0.5 * (np.sqrt(rate * rate + 160.0) - rate)  # rate*span + span^2 = 40
        d = span[:, None] * (0.5 * x1)
        terms = (k - 1) * (_log_cdf(x[:, None] - d) + _log_cdf(-x[:, None] - d)) - d * d
        top = terms.max(axis=1)
        inner = np.log(0.5 * span * np.dot(np.exp(terms - top[:, None]), w)) + top
        return np.exp(const + inner + 0.5 * y * y - x * x)
    return weight


def error_law(
    model: GaussianLocationModel,
    est: EstimatorSpec,
    theta: float,
) -> Tuple[float, float, Optional[Callable[[np.ndarray], np.ndarray]]]:
    """Exact law of delta(X) - theta as the triple (mu, s, weight): the
    error is mu + s * Y, where Y has the density weight(y) * phi(y), and a
    weight of None means Y is standard normal.

    For AffineMean(gamma, beta) the error is (gamma-1)*theta + beta plus
    gamma * sigma/sqrt(n) times a standard normal.  The scale is reported as
    |gamma| * sigma/sqrt(n); the symmetric normal makes this the same law as
    the signed version.  For SampleMedian(beta) it is beta + sigma * M for
    the median M of n standard normals, with Y = M / sqrt(pi / (2n)) and the
    weight of `_median_weight`.  No other rule has an exact law, so any
    other spec raises QuadratureUnsupportedError.  An overflow comes back as
    an infinite mu or s; the risk is then not finite, and `risk.risk`
    reports that as NonFiniteRiskError.
    """
    check_estimator(est)
    if isinstance(est, SampleMedian):
        s_med = math.sqrt(math.pi / (2 * model.n))
        return est.beta, model.sigma * s_med, _median_weight(model.n)
    if not isinstance(est, AffineMean):
        raise QuadratureUnsupportedError(
            f"{type(est).__name__} has no exact Gaussian error law; "
            "use a MonteCarlo method"
        )
    mu = (est.gamma - 1.0) * float(theta) + est.beta
    return mu, abs(est.gamma) * model.mean_sd, None
