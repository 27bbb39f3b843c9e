"""Gaussian risks R(mu, s) = E[L(mu + s*Z)] in closed form, with their partials.

An affine rule's error is exactly N(mu, s^2), so its risk is this
expectation for standard normal Z.  `gaussian_risk` returns it with R_mu,
R_s, R_mumu, R_mus and R_ss, in plain floating point (math only), for every
loss spec:

  * Power c|t|^p.  R = c s^p E|Z|^p e^(-y) 1F1((1+p)/2; 1/2; y) with
    y = mu^2 / (2 s^2) (Winkelbauer 2012, arXiv:1209.4340, after Kummer's
    transformation, Abramowitz & Stegun 13.1.27): a series of positive
    terms.  R_mu = c p s^(p-2) mu E|Z|^p e^(-y) 1F1((1+p)/2; 3/2; y), whose
    terms are the first series' over 2k + 1.  R_s then follows from Euler's
    relation mu R_mu + s R_s = p R (R is homogeneous of degree p), R_mumu
    from the heat equation R_s = s R_mumu, and R_mus and R_ss from Euler's
    relation differentiated in mu and in s.
  * Past |mu/s| = sqrt(2 * 40), the series would need about y terms, its
    first factor e^(-y) underflows past y = 745, and Euler's subtraction
    loses about (mu/s)^2 ulps.  There the large-|mu/s| expansion
    R = c|mu|^p sum_n (-p/2)_n ((1-p)/2)_n / n! (2 s^2 / mu^2)^n
    takes over (A&S 13.5.1; exact for even p, where it terminates), each
    partial differentiated term by term.  What it leaves out is of order
    e^(-y), below rounding from y = 40 for every p up to 100.
  * Huber: truncated-normal moments in Phi and phi at a = (-k - mu)/s and
    b = (k - mu)/s, from math.erfc and math.exp.  R_mumu = Phi(b) - Phi(a),
    R_s = s R_mumu, R_mus = phi(a) - phi(b) and R_ss = R_mumu + a phi(a)
    - b phi(b).  Where b - a = 2k/s is small, Phi(b) - Phi(a) is a short
    Hermite series instead of a difference.
  * Scaled and SumLoss are linear in their terms.

A power that overflows comes back as inf, so an overflowing risk is not
finite rather than an OverflowError.
"""

from __future__ import annotations

import math
from typing import Tuple

from .losses import Huber, LossSpec, Power, Scaled, SumLoss

Partials = Tuple[float, float, float, float, float, float]

#: |mu/s| past which the large-|mu/s| expansion replaces the series (y = 40).
FAR = math.sqrt(80.0)

#: A series stops once its last term is below this part of its sum.
_EPS = 2.0**-54

#: A bound on the terms either series takes: at most about 150 for
#: p <= 100 (risk.MAX_EXPONENT); it also ends a run of nan terms.
_MAX_TERMS = 2000

_SQRT_PI = math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def gaussian_risk(loss: LossSpec, mu: float, s: float) -> Partials:
    """(R, R_mu, R_s, R_mumu, R_mus, R_ss) of R(mu, s) = E[L(mu + s*Z)]
    for standard normal Z and s > 0 (see the module docstring)."""
    if not s > 0.0:
        raise ValueError(f"s must be > 0, got {s}")
    if isinstance(loss, Power):
        return _power(loss.p, loss.c, mu, s)
    if isinstance(loss, Scaled):
        f = loss.factor
        return tuple(f * v for v in gaussian_risk(loss.inner, mu, s))
    if isinstance(loss, SumLoss):
        parts = [gaussian_risk(term, mu, s) for term in loss.terms]
        return tuple(sum(column) for column in zip(*parts))
    if isinstance(loss, Huber):
        return _huber(loss.k, mu, s)
    raise TypeError(f"not a loss spec: {loss!r}")


def _pow(x: float, e: float) -> float:
    try:
        return x**e
    except OverflowError:
        return math.inf


def _power(p: float, c: float, mu: float, s: float) -> Partials:
    if abs(mu) > FAR * s:
        return _power_far(p, c, mu, s)
    t = mu / s
    y = 0.5 * t * t
    a = 0.5 * (p + 1.0)
    # f0 = 1F1(a; 1/2; y) and f1 = 1F1(a; 3/2; y) from one run of terms:
    # the k-th term of f1 is f0's over 2k + 1 = 2 (k + 1/2)
    term = f0 = 1.0
    f1 = 2.0  # twice f1 until the end
    num, den = a, 0.5  # a + k - 1 and k - 1/2 at step k
    for k in range(1, _MAX_TERMS):
        term *= num * y / (den * k)
        f0 += term
        den += 1.0
        f1 += term / den
        if term <= _EPS * f0:
            break
        num += 1.0
    e = math.exp(-y)
    f0 *= e
    f1 *= 0.5 * e
    # In units of scale * s^p, scale = c E|Z|^p: R = f0, s R_mu = g, and by
    # Euler's relation s R_s = s^2 R_mumu = h; the relation differentiated
    # in mu and in s gives s^2 R_mus = mus and s^2 R_ss = ss
    scale = c * 2.0 ** (0.5 * p) * math.gamma(a) / _SQRT_PI
    g = p * t * f1
    h = p * f0 - t * g
    mus = (p - 1.0) * g - t * h
    ss = (p - 1.0) * h - t * mus
    s1, s2 = scale * _pow(s, p - 1.0), scale * _pow(s, p - 2.0)
    return (scale * _pow(s, p) * f0, s1 * g, s1 * h, s2 * h, s2 * mus, s2 * ss)


def _power_far(p: float, c: float, mu: float, s: float) -> Partials:
    m = abs(mu)
    r = s / m
    w = 2.0 * r * r
    # the terms past the first are w * v_n, v_n = (-p/2)_n ((1-p)/2)_n / n!
    # w^(n-1) for n >= 1; m0, m1 and m2 are the sums of v_n, n v_n and n^2 v_n
    v = 0.25 * p * (p - 1.0)
    m0 = m1 = m2 = 0.0
    for n in range(1, _MAX_TERMS):
        m0 += v
        m1 += n * v
        m2 += n * n * v
        v *= (n - 0.5 * p) * (n + 0.5 - 0.5 * p) / (n + 1.0) * w
        if abs(v) <= _EPS * abs(m0):
            break
    sign = math.copysign(c, mu)
    b0, b1, b2 = c * _pow(m, p), _pow(m, p - 1.0), _pow(m, p - 2.0)
    return (
        b0 * (1.0 + w * m0),
        sign * b1 * (p + w * (p * m0 - 2.0 * m1)),
        c * b1 * 2.0 * r * (2.0 * m1),
        c * b2 * (p * (p - 1.0) + w * (p * (p - 1.0) * m0 - 2.0 * (2.0 * p - 1.0) * m1
                                       + 4.0 * m2)),
        sign * b2 * 2.0 * r * (2.0 * p * m1 - 4.0 * m2),
        c * b2 * 2.0 * (4.0 * m2 - 2.0 * m1),
    )


def _cdf(x: float) -> float:
    return 0.5 * math.erfc(-x * _INV_SQRT_2)


def _pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _narrow_mass(m: float, d: float) -> float:
    """Phi(m + d) - Phi(m - d) for d <= 0.1 and |m| d <= 1, without the
    cancellation of a difference: phi(m + u) = phi(m) sum_n He_n(-m) u^n / n!
    in the probabilists' Hermite polynomials, integrated over |u| <= d, is
    2 d phi(m) sum_j He_2j(m) d^2j / (2j + 1)!.  Its terms past n = 24 are
    below 1e-17 of the sum there."""
    he0, he1 = 1.0, m  # He_(n-1) and He_n, from n = 1
    term = total = 1.0  # d^n / (n + 1)! and the sum, at n = 0
    for n in range(1, 25):
        he0, he1 = he1, m * he1 - n * he0
        term *= d / (n + 1)
        if n % 2 == 0:
            total += he0 * term
    return 2.0 * d * _pdf(m) * total


def _huber(k: float, mu: float, s: float) -> Partials:
    a, b = (-k - mu) / s, (k - mu) / s
    pa, pb = _pdf(a), _pdf(b)
    below, above = _cdf(a), _cdf(-b)  # the masses where L is linear
    # P = Phi(b) - Phi(a): over a narrow window (s >> k) by its series, else
    # from the side where both terms are small, or, with a <= 0 <= b, as a
    # sum of two erfs of one sign
    m, d = -mu / s, k / s
    if d <= 0.1 and abs(m) * d <= 1.0:
        inside = _narrow_mass(m, d)
    elif a > 0.0:
        inside = _cdf(-a) - above
    elif b < 0.0:
        inside = _cdf(b) - below
    else:
        inside = 0.5 * (math.erf(b * _INV_SQRT_2) - math.erf(a * _INV_SQRT_2))
    half_k2 = 0.5 * k * k
    value = (0.5 * (mu * (mu * inside) + s * (s * inside))
             + 0.5 * s * ((k + mu) * pa + (k - mu) * pb)
             + ((k * mu - half_k2) * above - (k * mu + half_k2) * below))
    r_mu = k * (above - below) + mu * inside + s * (pa - pb)
    return (value, r_mu, s * inside, inside, pa - pb, inside + a * pa - b * pb)
