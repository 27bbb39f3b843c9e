"""Independent reference computations used by the tests.

Every oracle here takes a different numerical path from the library code it
checks: closed forms where they exist, adaptive QUADPACK integration, or
dense parameter scans.  Keeping them separate from the package is the point;
do not import library internals here.
"""

import functools
import math

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import gammaln, ndtr
from scipy.special import hyp1f1

#: The Gaussian-law oracles integrate over |z| <= Z_LIM, where the normal
#: weight underflows: the closed form they check truncates nothing, and the
#: +-15 of the median kernel loses 2e-11 of E|Z|^100.
Z_LIM = 40.0

#: Break points are passed to QUADPACK only for |z| below this.  One within
#: rounding of a range end leaves a sliver QUADPACK integrates wrongly (a
#: Huber elbow at z = 14.999999999999996 gave 0.645 for 0.62 on +-15); a
#: unit inside the end the normal weight is below 1e-42, so a kink there
#: needs no split.  The median oracles keep the kernel's +-15.
BREAK_Z = Z_LIM - 1.0
MEDIAN_BREAK_Z = 14.0


def abs_moment(q: float) -> float:
    """E|Z|^q for standard normal Z, closed form."""
    return 2 ** (q / 2) * gamma_fn((q + 1) / 2) / math.sqrt(math.pi)


def closed_form_power_risk(mu: float, s: float, p: float) -> float:
    """E|mu + s*Z|^p in closed form (Winkelbauer 2012, arXiv:1209.4340):
    s^p * E|Z|^p * 1F1(-p/2; 1/2; -mu^2 / (2 s^2)).  For even integer p it
    is the binomial sum over the even moments, sum_j C(p, 2j) mu^(p-2j)
    s^(2j) (2j-1)!!: scipy's 1F1 returns nan there once mu^2 / (2 s^2)
    passes about 1e19."""
    if s == 0:
        return abs(mu) ** p
    if p == int(p) and p % 2 == 0:
        p = int(p)
        return math.fsum(math.comb(p, 2 * j) * mu ** (p - 2 * j) * s ** (2 * j)
                         * _double_factorial(2 * j - 1) for j in range(p // 2 + 1))
    return s**p * abs_moment(p) * float(hyp1f1(-p / 2, 0.5, -mu * mu / (2 * s * s)))


def _double_factorial(k: int) -> int:
    """k!! for odd k >= -1 (with (-1)!! = 1)."""
    return math.prod(range(k, 0, -2))


def quadpack_power_risk(mu: float, s: float, p: float) -> float:
    """E|mu + s*Z|^p by adaptive QUADPACK integration."""
    if s == 0:
        return abs(mu) ** p

    def integrand(z):
        return abs(mu + s * z) ** p * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    root = -mu / s
    points = [root] if abs(root) < BREAK_Z else None
    value, _ = integrate.quad(integrand, -Z_LIM, Z_LIM, points=points, limit=300,
                              epsabs=1e-13, epsrel=1e-13)
    return value


def quadpack_huber_risk(mu: float, s: float, k: float) -> float:
    """E[huber_k(mu + s*Z)] by adaptive QUADPACK, split at the elbows and the root."""
    def huber(t):
        a = abs(t)
        return 0.5 * t * t if a <= k else k * a - 0.5 * k * k

    if s == 0:
        return huber(mu)

    def integrand(z):
        return huber(mu + s * z) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    points = [z for z in ((-k - mu) / s, -mu / s, (k - mu) / s) if abs(z) < BREAK_Z]
    value, _ = integrate.quad(integrand, -Z_LIM, Z_LIM, points=points or None, limit=300,
                              epsabs=1e-13, epsrel=1e-13)
    return value


def quadpack_risk_gradient(mu: float, s: float, loss_slope, kinks=()) -> tuple:
    """(R_mu, R_s) of R(mu, s) = E L(mu + s*Z), by QUADPACK on the loss
    slope L' (differentiation under the integral): R_mu = E L'(mu + s*Z) and
    R_s = E[L'(mu + s*Z) Z].  `kinks` are the points t where L' is not
    smooth; the integral is split there."""
    points = sorted(z for z in ((t - mu) / s for t in kinks) if abs(z) < BREAK_Z) or None

    def integrate_z(weight):
        def integrand(z):
            return loss_slope(mu + s * z) * weight(z) * math.exp(-0.5 * z * z)

        value, _ = integrate.quad(integrand, -Z_LIM, Z_LIM, points=points, limit=300,
                                  epsabs=1e-15, epsrel=1e-12)
        return value / math.sqrt(2 * math.pi)

    return integrate_z(lambda z: 1.0), integrate_z(lambda z: z)


def quadpack_sum_risk(mu: float, s: float, terms) -> float:
    """Risk of a sum of c * |t|^p terms, given as (c, p) pairs: by linearity,
    the sum of the terms' QUADPACK risks."""
    return sum(c * quadpack_power_risk(mu, s, p) for c, p in terms)


def _median_density(n: int, m: float) -> float:
    """Density of the median of n (odd) standard normals at m (David &
    Nagaraja, *Order Statistics*, 2003): n!/(k!)^2 (Phi(m) Phi(-m))^k phi(m)."""
    k = n // 2
    log_c = gammaln(n + 1) - 2 * gammaln(k + 1)
    return math.exp(log_c - 0.5 * m * m) * (ndtr(m) * ndtr(-m)) ** k / math.sqrt(2 * math.pi)


def _central_pair_density(n: int, u: float, v: float) -> float:
    """Joint density of the central order statistics (X_(k), X_(k+1)) of
    n = 2k standard normals at u < v."""
    k = n // 2
    log_c = gammaln(n + 1) - 2 * gammaln(k)
    return (math.exp(log_c - 0.5 * (u * u + v * v)) / (2 * math.pi)
            * (ndtr(u) * ndtr(-v)) ** (k - 1))


@functools.lru_cache(maxsize=None)  # the 2-D integral of even n takes up to a second
def quadpack_median_risk(n: int, beta: float, p: float, sigma: float = 1.0) -> float:
    """E|beta + sigma * M|^p for the sample median M of n standard normals.

    Odd n: QUADPACK on the order-statistic density of M.  Even n: M is the
    midpoint of X_(k) and X_(k+1), and the risk is a 2-D QUADPACK integral
    over their joint density, split where beta + sigma * (u + v) / 2 = 0.
    """
    root = -beta / sigma

    def loss(m):
        return abs(beta + sigma * m) ** p

    if n % 2:
        value, _ = integrate.quad(lambda m: loss(m) * _median_density(n, m), -15, 15,
                                  points=[root] if abs(root) < MEDIAN_BREAK_Z else None,
                                  limit=500, epsabs=1e-15, epsrel=1e-13)
        return value

    def inner(u):
        cut = 2 * root - u  # where the midpoint crosses the root
        value, _ = integrate.quad(lambda v: loss(0.5 * (u + v)) * _central_pair_density(n, u, v),
                                  u, 15, points=[cut] if u < cut < 15 else None,
                                  limit=500, epsabs=1e-15, epsrel=1e-13)
        return value

    value, _ = integrate.quad(inner, -15, 15,
                              points=[root] if abs(root) < MEDIAN_BREAK_Z else None,
                              limit=500, epsabs=1e-15, epsrel=1e-13)
    return value


def fourth_moment(mu: float, s: float) -> float:
    """E(mu + s*Z)^4 closed form."""
    return mu**4 + 6 * mu**2 * s**2 + 3 * s**4


def affine_l2_worst(gamma: float, beta: float, m: float, sigma_over_sqrt_n: float = 1.0):
    """Closed-form sup over theta in [-m, m] of the squared-error risk of
    gamma * mean + beta: risk = mu(theta)^2 + (gamma * sd)^2 with
    mu = (gamma-1)*theta + beta, even and increasing in |mu|, so the sup
    sits at whichever endpoint maximizes |mu|."""
    mus = [(gamma - 1.0) * t + beta for t in (-m, m)]
    mu = max(mus, key=abs)
    theta = -m if mus[0] == mu else m
    return mu**2 + (gamma * sigma_over_sqrt_n) ** 2, theta


def affine_l2_grid_min(lo, hi, sd, gamma_box, beta_box, points: int = 401) -> float:
    """Smallest closed-form squared-error worst case (see affine_l2_worst)
    over a dense (gamma, beta) grid of the box, for theta in [lo, hi] and
    mean standard deviation sd, in one numpy broadcast."""
    g = np.linspace(gamma_box[0], gamma_box[1], points)[:, None]
    b = np.linspace(beta_box[0], beta_box[1], points)[None, :]
    mu2 = np.maximum(((g - 1.0) * lo + b) ** 2, ((g - 1.0) * hi + b) ** 2)
    return float(np.min(mu2 + (g * sd) ** 2))


def affine_l4_worst(gamma: float, beta: float, m: float) -> float:
    """Closed-form sup of the quartic risk of gamma * mean + beta, n=1, sigma=1."""
    mus = [(gamma - 1.0) * t + beta for t in (-m, m)]
    mu = max(mus, key=abs)
    return fourth_moment(mu, gamma)


def scan_min(f, lo: float, hi: float, coarse: int = 40001, fine: int = 40001):
    """Two-stage dense 1-D scan for a minimum; independent of any solver."""
    xs = np.linspace(lo, hi, coarse)
    ys = np.array([f(x) for x in xs])
    i = int(np.argmin(ys))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, coarse - 1)]
    xs2 = np.linspace(a, b, fine)
    ys2 = np.array([f(x) for x in xs2])
    j = int(np.argmin(ys2))
    return float(xs2[j]), float(ys2[j])
