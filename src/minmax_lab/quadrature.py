"""Gaussian expectations E[f(mu + s*Z)] by segmented Gauss-Legendre quadrature.

The integrand f is only piecewise smooth: power-type losses have a
(possibly fractional-power) zero at the error root mu + s*z = 0 and Huber
losses have elbow kinks.  The integral is therefore split at every such
point; segments whose endpoint is an error root additionally get a square
substitution z = root +/- u^2, which turns |t|^p endpoint behaviour into
u^(2p+1) and restores fast Gauss-Legendre convergence for fractional p.

All segments are evaluated in one pass: their nodes form the rows of one
array, f and the normal density are each called once on it, and the
per-segment weighted sums are added in segment order, which gives the same
bits as integrating the segments one at a time.  The Legendre rule is
cached together with x + 1, and a table whose rows all end at a root
(every power loss) needs no row selection.

With `hermite=True` the same pass also returns E[f(mu + s*Z) He_k(Z)] for
the probabilists' Hermite polynomials He_1..He_4: extra weighted sums over
the standardized nodes it already has.  By Stein's identity (Stein 1981,
*Ann. Statist.* 9) they give the derivatives of the expectation in mu and
s without differentiating f (see `risk.worst_case_slopes`).

Integration is truncated at |z| = 15 where the standard normal density is
~5e-50: invisible next to any polynomially growing loss at double
precision.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence, Tuple, Union

import numpy as np

#: Truncation point for the standard normal integral; it bounds the power
#: exponents whose risks are integrated (risk.MAX_EXPONENT).
Z_MAX = 15.0

#: Default Gauss-Legendre node count per smooth segment.
DEFAULT_NODES = 200

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@lru_cache(maxsize=8)
def _leggauss(nodes: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Legendre nodes x, weights w and x + 1, all read-only."""
    x, w = np.polynomial.legendre.leggauss(int(nodes))
    rule = (x, w, x + 1.0)
    for a in rule:
        a.setflags(write=False)
    return rule


def gaussian_expectation(
    f: Callable[[np.ndarray], np.ndarray],
    mu: float,
    s: float,
    nodes: int = DEFAULT_NODES,
    kinks: Sequence[float] = (),
    roots: Sequence[float] = (),
    hermite: bool = False,
) -> Union[float, Tuple[float, Tuple[float, float, float, float]]]:
    """E[f(mu + s*Z)] for standard normal Z.

    `kinks` and `roots` are values of t = mu + s*z where f is not smooth;
    `roots` get the singularity-absorbing substitution.  With s = 0 the law
    is a point mass and the expectation is f(mu) exactly.  With `hermite`
    the result is (value, (E[f He_1(Z)], ..., E[f He_4(Z)])), the value
    bit-identical to the one without it; that needs s > 0.
    """
    mu = float(mu)
    s = float(s)
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if s == 0.0:
        if hermite:
            raise ValueError("Hermite moments need s > 0")
        return float(np.asarray(f(np.asarray([mu])), dtype=float)[0])

    marks = []
    for t in roots:
        z = (float(t) - mu) / s
        if -Z_MAX < z < Z_MAX:
            marks.append((z, True))
    for t in kinks:
        z = (float(t) - mu) / s
        if -Z_MAX < z < Z_MAX:
            marks.append((z, False))
    marks.sort()

    # One row per smooth segment [a, b], z = c0 + c1 * g.  On a plain segment
    # g = x and c1 = scale = (b - a) / 2.  Next to a root g = u^2 with
    # u = scale * (x + 1), scale = sqrt(b - a) / 2, so z = a + u^2 (c1 = 1)
    # or z = b - u^2 (c1 = -1), and the Jacobian dz/du is 2u.
    edges = [(-Z_MAX, False)] + marks + [(Z_MAX, False)]
    rows = []  # (c0, c1, scale, at_root)
    for (a, a_is_root), (b, b_is_root) in zip(edges[:-1], edges[1:]):
        if b - a <= 0.0:
            continue
        if a_is_root or b_is_root:
            r = 0.5 * math.sqrt(b - a)
            rows.append((a, 1.0, r, True) if a_is_root else (b, -1.0, r, True))
        else:
            half = 0.5 * (b - a)
            rows.append((0.5 * (a + b), half, half, False))

    x, w, x1 = _leggauss(nodes)
    table = np.array(rows)  # columns c0, c1, scale, at_root (1.0 or 0.0)
    u = table[:, 2, None] * x1
    if all(row[3] for row in rows):
        z = u * u
        u *= 2.0
        jacobian = u
    else:
        at_root = table[:, 3, None] == 1.0
        z = np.where(at_root, u * u, x)
        jacobian = np.where(at_root, 2.0 * u, 1.0)
    z *= table[:, 1, None]
    z += table[:, 0, None]
    # f(mu + s * z) * phi(z) * jacobian, phi(z) = exp(-0.5 * z * z) / sqrt(2 pi)
    vals = np.multiply(z, -0.5)
    vals *= z
    np.exp(vals, out=vals)
    vals *= _INV_SQRT_2PI
    if hermite:
        # He_1..He_4 at the standardized nodes, before z becomes mu + s*z
        z2 = z * z
        he = np.stack((z, z2 - 1.0, z * (z2 - 3.0), z2 * (z2 - 6.0) + 3.0))
    z *= s
    z += mu
    vals *= np.reshape(f(z.ravel()), z.shape)
    vals *= jacobian
    # per-row dot products summed in segment order: a matrix-vector product
    # would round differently in the last bit
    total = 0.0
    for row, vals_i in zip(rows, vals):
        total += row[2] * float(np.dot(w, vals_i))
    if not hermite:
        return total
    vals *= w
    vals *= table[:, 2, None]
    moments = np.reshape(he, (4, -1)) @ vals.ravel()
    return total, tuple(float(m) for m in moments)

