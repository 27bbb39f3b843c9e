"""Loss specifications, the positive-scaling cone, and the exponent classifier.

Every loss here is a symmetric function of the error t = theta - a, zero at
t = 0 and nonnegative everywhere.  Every reader of a spec walks its conic
terms, the (factor, atom) pairs of `conic_terms`.  A loss's small-|t|
behaviour c*|t|^p is read from them exactly (`local_exponent`); losses with
the same local exponent belong to the same power class.  The classifier
only measures how power-like a loss is over a window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import DegenerateLossError, NonPositiveScaleError
from .model import _require_finite

#: Default log-log fit window and point count for the exponent classifier.
DEFAULT_WINDOW = (1e-5, 1e-2)
DEFAULT_POINTS = 16


@dataclass(frozen=True)
class Power:
    """c * |t|^p."""

    p: float
    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "p", _require_finite("p", self.p))
        object.__setattr__(self, "c", _require_finite("c", self.c))
        if self.p <= 0:
            raise ValueError(f"p must be > 0, got {self.p}")
        if self.c <= 0:
            raise ValueError(f"c must be > 0, got {self.c}")


@dataclass(frozen=True)
class Scaled:
    """factor * inner(t), factor > 0."""

    factor: float
    inner: "LossSpec"

    def __post_init__(self):
        object.__setattr__(self, "factor", _require_finite("factor", self.factor))
        if self.factor <= 0:
            raise NonPositiveScaleError(
                f"scale factor must be > 0 (losses form a cone), got {self.factor}"
            )


@dataclass(frozen=True)
class SumLoss:
    """Pointwise sum of component losses."""

    terms: Tuple["LossSpec", ...]

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("SumLoss needs at least one term")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class Huber:
    """t^2/2 for |t| <= k, else k*|t| - k^2/2."""

    k: float

    def __post_init__(self):
        object.__setattr__(self, "k", _require_finite("k", self.k))
        if self.k <= 0:
            raise ValueError(f"k must be > 0, got {self.k}")


LossSpec = Union[Power, Scaled, SumLoss, Huber]


def conic_terms(loss: LossSpec) -> Tuple[Tuple[float, Union[Power, Huber]], ...]:
    """The loss as a positive combination sum factor * atom(t): its
    (factor, atom) pairs, atoms in the order the SumLoss terms list them.
    A factor is the product of the Scaled factors around its atom, 1.0
    where there are none."""
    if isinstance(loss, (Power, Huber)):
        return ((1.0, loss),)
    if isinstance(loss, Scaled):
        return tuple((loss.factor * f, atom) for f, atom in conic_terms(loss.inner))
    if isinstance(loss, SumLoss):
        return tuple(pair for term in loss.terms for pair in conic_terms(term))
    raise TypeError(f"not a loss spec: {loss!r}")


def loss_of_error(loss: LossSpec, t) -> np.ndarray:
    """Vectorized loss as a function of the error t = theta - a."""
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    out = None
    for factor, atom in conic_terms(loss):
        value = (atom.c * a**atom.p if isinstance(atom, Power)
                 else np.where(a <= atom.k, 0.5 * t * t, atom.k * a - 0.5 * atom.k**2))
        if factor != 1.0:
            value = factor * value
        out = value if out is None else out + value
    return out


def loss_breakpoints(loss: LossSpec) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Error values where the loss is not smooth.

    Returns (kinks, roots): `roots` are zeros with possibly fractional-power
    behaviour (t = 0, the root of every atom), `kinks` are plain piecewise
    joins (the Huber elbows).  The median's quadrature splits integrals there.
    """
    kinks = {x for _, atom in conic_terms(loss) if isinstance(atom, Huber)
             for x in (-atom.k, atom.k)}
    return tuple(sorted(kinks)), (0.0,)


def local_exponent(loss: LossSpec) -> Tuple[float, float]:
    """The loss's behaviour c * |t|^p near t = 0, read from its conic terms:
    p is the smallest atom exponent and c the sum of the coefficients at
    it.  A Huber atom is t^2/2 there, exponent 2 with coefficient 1/2."""
    local = [(atom.p, factor * atom.c) if isinstance(atom, Power) else (2.0, 0.5 * factor)
             for factor, atom in conic_terms(loss)]
    p = min(e for e, _ in local)
    return p, sum(c for e, c in local if e == p)


def scale_loss(loss: LossSpec, factor: float) -> LossSpec:
    """Multiply a loss by a strictly positive scalar.

    Scaled rejects negative or zero factors: the loss space is closed
    under positive scaling only.
    """
    return Scaled(factor=factor, inner=loss)


@dataclass(frozen=True)
class ExponentClassification:
    """Fitted local behaviour c_hat * |t|^p_hat near t = 0."""

    p_hat: float
    c_hat: float
    window: Tuple[float, float]
    fit_residual: float


def classify_exponent(
    loss: LossSpec,
    window: Tuple[float, float] = DEFAULT_WINDOW,
    points: int = DEFAULT_POINTS,
) -> ExponentClassification:
    """Estimate the local exponent by a log-log slope fit.

    Evaluates the loss at the error -h (the action theta + h) on `points`
    geometrically spaced h in `window` and regresses log L on log h; the
    slope is p_hat and exp(intercept) is c_hat.  fit_residual is the
    largest absolute regression residual, a direct read on how power-like
    the loss is over the window.
    """
    h_min, h_max = float(window[0]), float(window[1])
    if not (0.0 < h_min < h_max < 1.0):
        raise ValueError(f"window must satisfy 0 < h_min < h_max < 1, got {window}")
    if points < 8:
        raise ValueError(f"need at least 8 fit points, got {points}")
    h = np.geomspace(h_min, h_max, int(points))
    values = loss_of_error(loss, -h)
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise DegenerateLossError(
            f"loss vanishes (or is non-finite) on the window {window}; "
            "no exponent fit is possible"
        )
    x = np.log(h)
    y = np.log(values)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    residual = float(np.max(np.abs(y - design @ coef)))
    return ExponentClassification(
        p_hat=slope,
        c_hat=math.exp(intercept),
        window=(h_min, h_max),
        fit_residual=residual,
    )

