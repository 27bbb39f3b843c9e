"""Independent reference computations used by the tests.

Every oracle here takes a different numerical path from the library code it
checks: closed forms where they exist, adaptive QUADPACK integration, or
dense parameter scans.  Keeping them separate from the package is the point;
do not import library internals here.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import hyp1f1

#: Break points are passed to QUADPACK only for |z| below this.  One within
#: rounding of the +-15 range end leaves a sliver QUADPACK integrates wrongly
#: (a Huber elbow at z = 14.999999999999996 gave 0.645 for 0.62); past
#: |z| = 14 the normal weight is below 1e-42, so a kink there needs no split.
BREAK_Z = 14.0


def abs_moment(q: float) -> float:
    """E|Z|^q for standard normal Z, closed form."""
    return 2 ** (q / 2) * gamma_fn((q + 1) / 2) / math.sqrt(math.pi)


def closed_form_power_risk(mu: float, s: float, p: float) -> float:
    """E|mu + s*Z|^p in closed form (Winkelbauer 2012, arXiv:1209.4340):
    s^p * E|Z|^p * 1F1(-p/2; 1/2; -mu^2 / (2 s^2))."""
    if s == 0:
        return abs(mu) ** p
    return s**p * abs_moment(p) * float(hyp1f1(-p / 2, 0.5, -mu * mu / (2 * s * s)))


def quadpack_power_risk(mu: float, s: float, p: float) -> float:
    """E|mu + s*Z|^p by adaptive QUADPACK integration."""
    if s == 0:
        return abs(mu) ** p

    def integrand(z):
        return abs(mu + s * z) ** p * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    root = -mu / s
    points = [root] if abs(root) < BREAK_Z else None
    value, _ = integrate.quad(integrand, -15, 15, points=points, limit=300,
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
    value, _ = integrate.quad(integrand, -15, 15, points=points or None, limit=300,
                              epsabs=1e-13, epsrel=1e-13)
    return value


def quadpack_sum_risk(mu: float, s: float, terms) -> float:
    """Risk of a sum of c * |t|^p terms, given as (c, p) pairs: by linearity,
    the sum of the terms' QUADPACK risks."""
    return sum(c * quadpack_power_risk(mu, s, p) for c, p in terms)


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
