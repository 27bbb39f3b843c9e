"""Correctness checks on each job's outputs, from paths independent of the package.

References use scipy's adaptive QUADPACK (`scipy.integrate.quad`) and the
closed forms below; they never call `minmax_lab`.  Each check returns None
when the output is right and a one-line reason when it is not.  References
are computed after a job's timer stops and memoised, since the cycle
repeats.

Tolerances: quadrature risks and the shift-risk curve agree to 1e-7
relative; Monte Carlo risks lie within 4 standard errors (as the job
reports them); the family optimum gamma lies within the acceptance gate's
+-0.005 and the minimax value within 1e-4 relative; analytic and
finite-difference shift derivatives agree to 1e-5.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy import integrate, optimize

from tracing import VERDICTS

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _pdf(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def _cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# -- losses, evaluated without the package -----------------------------------


def loss_value(spec: Tuple, t: float) -> float:
    kind = spec[0]
    a = abs(t)
    if kind == "power":
        return spec[2] * a ** spec[1]
    if kind == "huber":
        k = spec[1]
        return 0.5 * t * t if a <= k else k * a - 0.5 * k * k
    if kind == "scaled":
        return spec[1] * loss_value(spec[2], t)
    if kind == "sum":
        return sum(loss_value(term, t) for term in spec[1])
    raise ValueError(f"unknown loss spec {spec!r}")


def loss_breaks(spec: Tuple) -> List[float]:
    kind = spec[0]
    if kind == "power":
        return [0.0]
    if kind == "huber":
        return [-spec[1], 0.0, spec[1]]
    if kind == "scaled":
        return loss_breaks(spec[2])
    return sorted({b for term in spec[1] for b in loss_breaks(term)})


def local_exponent(spec: Tuple) -> Tuple[float, float]:
    """(p, c) of the loss's small-|t| behaviour c*|t|^p."""
    kind = spec[0]
    if kind == "power":
        return spec[1], spec[2]
    if kind == "huber":
        return 2.0, 0.5
    if kind == "scaled":
        p, c = local_exponent(spec[2])
        return p, spec[1] * c
    terms = [local_exponent(term) for term in spec[1]]
    p = min(tp for tp, _ in terms)
    return p, sum(tc for tp, tc in terms if tp == p)


# -- expectations ----------------------------------------------------------


def _integrate(g: Callable[[float], float], breaks: List[float], lo=-np.inf, hi=np.inf) -> float:
    edges = [lo] + sorted(b for b in set(breaks) if lo < b < hi) + [hi]
    return sum(
        integrate.quad(g, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


@lru_cache(maxsize=None)
def gaussian_loss(spec: Tuple, mu: float, s: float) -> float:
    """E L(mu + s Z) for standard normal Z."""
    if s == 0.0:
        return loss_value(spec, mu)
    return _integrate(
        lambda z: loss_value(spec, mu + s * z) * _pdf(z),
        [(b - mu) / s for b in loss_breaks(spec)],
    )


def _median_pdf(n: int) -> Callable[[float], float]:
    """Density of the median of n (odd) standard normals."""
    k = (n - 1) // 2
    const = math.factorial(n) / math.factorial(k) ** 2
    return lambda x: const * (_cdf(x) * _cdf(-x)) ** k * _pdf(x)


def _error_law(est: Tuple, n: int, theta: float):
    """(density, [centre]) of the base rule's error delta - theta."""
    if est[0] == "affine":
        gamma, beta = est[1], est[2]
        mu, s = (gamma - 1.0) * theta + beta, abs(gamma) / math.sqrt(n)
        return (lambda e: _pdf((e - mu) / s) / s), [mu]
    if n % 2 == 0:
        raise ValueError("median references need odd n")
    pdf, beta = _median_pdf(n), est[1]
    return (lambda e: pdf(e - beta)), [beta]


@lru_cache(maxsize=None)
def estimator_risk(est: Tuple, loss: Tuple, n: int, theta: float) -> float:
    """E L(theta - delta(X)) for the benchmark's estimator specs (sigma = 1)."""
    if est[0] == "sign":
        base, eps, target = est[1], est[2], est[3]
        density, centre = _error_law(base, n, theta)
        cut = target - theta  # the rule steps up when the base error is below this
        breaks = centre + [cut] + [b - eps for b in loss_breaks(loss)] + [b + eps for b in loss_breaks(loss)]
        below = _integrate(lambda e: loss_value(loss, e + eps) * density(e), breaks, hi=cut)
        above = _integrate(lambda e: loss_value(loss, e - eps) * density(e), breaks, lo=cut)
        return below + above
    if est[0] == "affine":
        gamma, beta = est[1], est[2]
        return gaussian_loss(loss, (gamma - 1.0) * theta + beta, abs(gamma) / math.sqrt(n))
    density, centre = _error_law(est, n, theta)
    return _integrate(lambda e: loss_value(loss, e) * density(e), centre + loss_breaks(loss))


@lru_cache(maxsize=None)
def affine_minimax(loss: Tuple, n: int, m: float, gamma_hi: float) -> Tuple[float, float]:
    """(gamma*, value) of min over gamma*mean(X) of sup over [-m, m] of the risk.

    The risk of an affine rule is even and nondecreasing in the error mean
    (Anderson's lemma), so the sup sits at theta = +-m, and beta* = 0 by
    symmetry.  The L2 case has the closed form m^2 / (1/n + m^2).
    """
    if loss == ("power", 2.0, 1.0):
        gamma = min(m * m / (1.0 / n + m * m), gamma_hi)
        return gamma, (1.0 - gamma) ** 2 * m * m + gamma * gamma / n
    sd = 1.0 / math.sqrt(n)

    def sup(gamma: float) -> float:
        return gaussian_loss(loss, (gamma - 1.0) * m, gamma * sd)

    res = optimize.minimize_scalar(sup, bounds=(0.0, gamma_hi), method="bounded",
                                   options={"xatol": 1e-9})
    return float(res.x), float(res.fun)


# -- output readers ----------------------------------------------------------


def read_csv(path: Path) -> List[List[str]]:
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(line for line in handle if not line.startswith("#"))]
    return rows[1:]


def read_result(path: Path) -> Dict:
    return json.loads(path.read_text())["result"]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


# -- checks ----------------------------------------------------------------


def _check_optimum(params, value, loss, n, m, box) -> Optional[str]:
    gamma_ref, value_ref = affine_minimax(loss, n, m, box[1])
    if abs(params[0] - gamma_ref) > 0.005:
        return f"gamma {params[0]:.6f} is not the reference {gamma_ref:.6f} +- 0.005"
    if abs(params[1]) > 0.005:
        return f"beta {params[1]:.6f} is not 0 +- 0.005"
    if _rel(value, value_ref) > 1e-4:
        return f"minimax value {value:.8g} is not the reference {value_ref:.8g}"
    return None


def check_affine_minimax(expect: Dict, out: Path) -> Optional[str]:
    result = read_result(out / "minimax.json")
    return _check_optimum(result["best_params"], result["minimax_value"], expect["loss"],
                          expect["n"], expect["m"], expect["box"])


def check_median_minimax(expect: Dict, out: Path) -> Optional[str]:
    result = read_result(out / "minimax.json")
    (beta,) = result["best_params"]
    if abs(beta) > 0.05:
        return f"median shift {beta:.4f} is not 0 +- 0.05"
    # sup over theta is the theta-free risk E (M + beta)^2 of the median M
    loss, n = expect["loss"], expect["n"]
    ref = estimator_risk(("median", beta), loss, n, 0.0)
    second = estimator_risk(("median", beta), ("power", 4.0, 1.0), n, 0.0)
    se = math.sqrt(max(second - ref * ref, 0.0) / expect["samples"])
    if abs(result["minimax_value"] - ref) > 4.0 * se:
        return f"median minimax value {result['minimax_value']:.6g} is not {ref:.6g} +- 4 SE"
    return None


def check_exclusivity(expect: Dict, out: Path) -> Optional[str]:
    report = read_result(out / "exclusivity.json")
    exponents = sorted(expect["exponents"])
    if [c["exponent"] for c in report["classes"]] != exponents:
        return "classes do not match the requested exponents"
    for cls in report["classes"]:
        reason = _check_optimum(cls["params"], cls["value"], ("power", cls["exponent"], 1.0),
                                expect["n"], expect["m"], expect["box"])
        if reason:
            return f"class p={cls['exponent']}: {reason}"
    verdicts = [w["verdict"] for w in report["witnesses"]]
    k = len(exponents)
    if len(verdicts) != k * (k - 1) // 2 or not set(verdicts) <= set(VERDICTS):
        return f"witnesses {verdicts} are not one verdict per pair"
    if report["pairwise_disjoint"] != all(v == "Refuted" for v in verdicts):
        return "pairwise_disjoint disagrees with the verdicts"
    if expect["refuted"] and verdicts != ["Refuted"]:
        return f"exponents {exponents} on the default box gave {verdicts}, not Refuted"
    return None


def check_risk(expect: Dict, out: Path) -> Optional[str]:
    rows = read_csv(out / "risk.csv")
    if not rows:
        return "risk.csv has no rows"
    for theta, value, std_error in ((float(a), float(b), float(c)) for a, b, c in rows):
        ref = estimator_risk(expect["est"], expect["loss"], expect["n"], theta)
        if expect["method"] == "quadrature":
            if _rel(value, ref) > 1e-7:
                return f"quadrature risk {value!r} at theta={theta} is not {ref!r}"
        elif not (std_error > 0.0 and abs(value - ref) <= 4.0 * std_error):
            return (f"Monte Carlo risk {value:.6g} at theta={theta} is not {ref:.6g} "
                    f"within 4 x {std_error:.3g}")
    return None


def check_shift(expect: Dict, out: Path) -> Optional[str]:
    rows = read_csv(out / "shift_risk.csv")
    if not rows:
        return "shift_risk.csv has no rows"
    loss = ("power", expect["q"], 1.0)
    for alpha, value, d_analytic, d_fd in ([float(x) for x in row] for row in rows):
        ref = gaussian_loss(loss, -alpha, 1.0 / math.sqrt(expect["n"]))
        if _rel(value, ref) > 1e-7:
            return f"shift risk {value!r} at alpha={alpha} is not {ref!r}"
        if abs(d_analytic - d_fd) > 1e-5 * max(1.0, abs(d_analytic)):
            return f"derivatives {d_analytic!r} and {d_fd!r} disagree at alpha={alpha}"
    return None


def check_classify(expect: Dict, out: Path) -> Optional[str]:
    rows = read_csv(out / "classify.csv")
    if [row[0] for row in rows] != list(expect["losses"]):
        return "classify.csv does not list the requested losses"
    for name, p_hat, c_hat, _ in rows:
        spec = expect["losses"][name]
        p, c = local_exponent(spec)
        # a sum's higher-order terms bend the fit by at most ~h^(q-p) <= 1e-2
        tol = 0.01 if spec[0] == "sum" else 1e-6
        if abs(float(p_hat) - p) > tol:
            return f"loss {name}: p_hat {p_hat} is not {p}"
        if spec[0] != "sum" and _rel(float(c_hat), c) > 1e-6:
            return f"loss {name}: c_hat {c_hat} is not {c}"
    return None


CHECKS = {
    "affine_minimax": check_affine_minimax,
    "median_minimax": check_median_minimax,
    "exclusivity": check_exclusivity,
    "risk": check_risk,
    "shift": check_shift,
    "classify": check_classify,
}


def check(expect: Dict, out: Path) -> Optional[str]:
    """None when the job's outputs in `out` are right, else the reason."""
    try:
        return CHECKS[expect["kind"]](expect, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
