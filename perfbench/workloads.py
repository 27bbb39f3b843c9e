"""Seeded job cycles for the three benchmark workloads.

A job is one `minmax-lab` command with a config written by the benchmark.
Each workload is a fixed list of jobs (a cycle) drawn from the workload
seed; the seed moves parameter values, never the structure of the cycle,
so every seed costs about the same.  Losses and estimators are kept here
as small tuples, rendered into config text and also read by checks.py,
which evaluates them without the package.

    loss:       ("power", p, c) | ("huber", k) | ("scaled", factor, loss)
                | ("sum", (loss, ...))
    estimator:  ("affine", gamma, beta) | ("median", beta)
                | ("sign", base, epsilon, theta_star)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: The family box of the acceptance gate and the CLI tests.
DEFAULT_BOX = (0.0, 1.5, -1.0, 1.0)

#: Options that keep a solve under a second while keeping its answer to the
#: acceptance gate's +-0.005 (the default L2 solve checks the defaults).
LIGHT_SOLVE = {"restarts": 2, "grid": 32}
#: One Nelder-Mead start per solve: an exclusivity job makes up to six solves,
#: and short cycles give each run several of them to take a median over.
CERTIFY_SOLVE = {"restarts": 1, "grid": 32}

#: Entries in each of model.py's draw caches (`lru_cache(maxsize=32)`).
DRAW_CACHE_SIZE = 32


@dataclass
class Job:
    name: str
    command: str
    config: str
    #: What checks.py needs to verify the outputs: kind plus parameters.
    expect: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    jobs: List[Job]
    warmups: List[Job]
    #: A job run once, traced, after the traced cycle, whose counts are
    #: pinned.  It is not part of the timed cycle.
    pin: Optional[Job] = None


# -- config rendering ------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _render_loss(spec: Tuple, name: str, out: List[str]) -> None:
    kind = spec[0]
    if kind == "power":
        out.append(f"[loss {name}]\nkind = power\np = {_fmt(spec[1])}\nc = {_fmt(spec[2])}\n")
    elif kind == "huber":
        out.append(f"[loss {name}]\nkind = huber\nk = {_fmt(spec[1])}\n")
    elif kind == "scaled":
        _render_loss(spec[2], name + "_in", out)
        out.append(f"[loss {name}]\nkind = scaled\nfactor = {_fmt(spec[1])}\ninner = {name}_in\n")
    elif kind == "sum":
        names = [f"{name}_t{i}" for i in range(len(spec[1]))]
        for term, term_name in zip(spec[1], names):
            _render_loss(term, term_name, out)
        out.append(f"[loss {name}]\nkind = sum\nterms = {', '.join(names)}\n")
    else:
        raise ValueError(f"unknown loss spec {spec!r}")


def _render_estimator(spec: Tuple, name: str, out: List[str]) -> None:
    kind = spec[0]
    if kind == "affine":
        out.append(
            f"[estimator {name}]\nkind = affine_mean\ngamma = {_fmt(spec[1])}\n"
            f"beta = {_fmt(spec[2])}\n"
        )
    elif kind == "median":
        out.append(f"[estimator {name}]\nkind = sample_median\nbeta = {_fmt(spec[1])}\n")
    elif kind == "sign":
        _render_estimator(spec[1], name + "_base", out)
        out.append(
            f"[estimator {name}]\nkind = sign_perturbed\nbase = {name}_base\n"
            f"epsilon = {_fmt(spec[2])}\ntheta_star = {_fmt(spec[3])}\n"
        )
    else:
        raise ValueError(f"unknown estimator spec {spec!r}")


def _header(n: int, m: float, seed: Optional[int]) -> List[str]:
    parts = [f"[model]\nn = {n}\nsigma = 1.0\n", f"[theta]\nlo = {_fmt(-m)}\nhi = {_fmt(m)}\n"]
    if seed is not None:
        parts.append(f"[run]\nseed = {seed}\n")
    return parts


def _affine_family(box: Tuple[float, float, float, float]) -> str:
    g_lo, g_hi, b_lo, b_hi = box
    return (
        f"[family]\nkind = affine_mean\ngamma_lo = {_fmt(g_lo)}\ngamma_hi = {_fmt(g_hi)}\n"
        f"beta_lo = {_fmt(b_lo)}\nbeta_hi = {_fmt(b_hi)}\n"
    )


def _options(opts: Dict[str, Any]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in opts.items())


# -- job builders ----------------------------------------------------------


def minimax_job(name, loss, n, m, seed, opts, box=DEFAULT_BOX) -> Job:
    parts = _header(n, m, seed)
    _render_loss(loss, "l", parts)
    parts.append(_affine_family(box))
    parts.append("[minimax]\nloss = l\n" + _options(opts))
    return Job(
        name, "minimax", "\n".join(parts),
        {"kind": "affine_minimax", "loss": loss, "n": n, "m": m, "box": box}
    )


def median_minimax_job(name, n, m, seed, opts) -> Job:
    loss = ("power", 2.0, 1.0)
    parts = _header(n, m, seed)
    _render_loss(loss, "l", parts)
    parts.append("[family]\nkind = median_shift\nbeta_lo = -1.0\nbeta_hi = 1.0\n")
    parts.append("[minimax]\nloss = l\n" + _options(opts))
    return Job(
        name, "minimax", "\n".join(parts),
        {"kind": "median_minimax", "loss": loss, "n": n, "samples": opts["mc_samples"]}
    )


def exclusivity_job(name, exponents, n, m, seed, opts, box=DEFAULT_BOX, refuted=False) -> Job:
    parts = _header(n, m, seed)
    parts.append(_affine_family(box))
    parts.append(
        "[exclusivity]\nexponents = " + ", ".join(_fmt(p) for p in exponents) + "\n"
        + _options(opts)
    )
    return Job(
        name, "exclusivity", "\n".join(parts),
        {"kind": "exclusivity", "exponents": tuple(exponents), "n": n, "m": m, "box": box,
         "refuted": refuted}
    )


def risk_job(name, est, loss, n, thetas, method, seed=None, samples=None) -> Job:
    parts = _header(n, max(abs(t) for t in thetas) + 1.0, seed)
    _render_loss(loss, "l", parts)
    _render_estimator(est, "e", parts)
    body = "[risk]\nestimator = e\nloss = l\nthetas = " + ", ".join(_fmt(t) for t in thetas)
    body += f"\nmethod = {method}\n"
    if samples is not None:
        body += f"samples = {samples}\n"
    parts.append(body)
    return Job(
        name, "risk", "\n".join(parts),
        {"kind": "risk", "est": est, "loss": loss, "n": n, "method": method}
    )


def shift_job(name, q, n, alphas) -> Job:
    parts = _header(n, 3.0, None)
    parts.append(
        f"[shift_risk]\nq = {_fmt(q)}\nn = {n}\nalphas = " + ", ".join(_fmt(a) for a in alphas) + "\n"
    )
    return Job(name, "shift-risk", "\n".join(parts), {"kind": "shift", "q": q, "n": n})


def classify_job(name, losses) -> Job:
    parts = _header(1, 3.0, None)
    names = [f"l{i}" for i in range(len(losses))]
    for spec, loss_name in zip(losses, names):
        _render_loss(spec, loss_name, parts)
    parts.append("[classify]\nlosses = " + ", ".join(names) + "\n")
    return Job(name, "classify", "\n".join(parts),
               {"kind": "classify", "losses": dict(zip(names, losses))})


# -- workloads -------------------------------------------------------------


def _seed_of(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def minimax_solve(seed: int) -> Workload:
    rng = random.Random(seed)
    # The seed moves the interval and the Huber elbow.  Solver seeds stay
    # fixed: the Nelder-Mead start points change a solve's work by up to
    # 80%, which would show as run-to-run spread.
    m = rng.uniform(2.75, 3.25)
    huber_k = rng.uniform(0.9, 1.1)
    jobs = [
        minimax_job("l2", ("power", 2.0, 1.0), 1, m, 1, LIGHT_SOLVE),
        minimax_job("l2_n4", ("power", 2.0, 1.0), 4, m, 2, LIGHT_SOLVE),
        minimax_job("p1.5", ("power", 1.5, 1.0), 1, m, 3, LIGHT_SOLVE),
        minimax_job("p4", ("power", 4.0, 1.0), 1, m, 4, LIGHT_SOLVE),
        minimax_job("huber_n4", ("huber", huber_k), 4, m, 5, LIGHT_SOLVE),
        median_minimax_job("median", 5, m, 6, dict(LIGHT_SOLVE, mc_samples=20000)),
    ]
    warmups = [minimax_job("warmup", ("power", 3.0, 1.0), 2, 1.0, 1,
                           {"restarts": 1, "grid": 16})]
    # The default L2 solve: default box and options, no seed (so the solver
    # seed is 0).  It makes 191,542 risk() calls and takes about 9 s, so it
    # runs once per traced run instead of in the timed cycle.
    pin = minimax_job("default_l2", ("power", 2.0, 1.0), 1, 3.0, None, {})
    return Workload("minimax-solve", jobs, warmups, pin)


def exclusivity_certify(seed: int) -> Workload:
    rng = random.Random(seed)
    m = rng.uniform(2.75, 3.25)  # solver seeds fixed, as in minimax_solve
    jobs = [
        # k = 3: six solves today where three are distinct.
        exclusivity_job("k3", (1.5, 2.0, 4.0), 1, m, 1, CERTIFY_SOLVE),
        exclusivity_job("default_24", (2.0, 4.0), 1, 3.0, 2, CERTIFY_SOLVE, refuted=True),
        # The p=2 optimum (gamma = 0.9) lies outside this box, on its face.
        exclusivity_job("face_24", (2.0, 4.0), 1, 3.0, 3, CERTIFY_SOLVE,
                        box=(0.0, 0.85, -1.0, 1.0)),
        exclusivity_job("pair_n4", (2.0, 3.0), 4, m, 4, CERTIFY_SOLVE),
    ]
    warmups = [exclusivity_job("warmup", (2.5, 3.5), 2, 1.0, 1,
                               {"restarts": 1, "grid": 16, "maxiter": 20, "halvings": 2})]
    return Workload("exclusivity-certify", jobs, warmups)


_POINTWISE_LOSSES = (
    lambda r: ("power", r.choice((1.5, 2.0, 3.0, 4.0)), r.uniform(0.5, 2.0)),
    lambda r: ("huber", r.uniform(0.5, 1.5)),
    lambda r: ("sum", (("power", 2.0, 1.0), ("power", 4.0, r.uniform(0.1, 1.0)))),
    lambda r: ("scaled", r.uniform(0.5, 3.0), ("power", r.choice((1.5, 2.5)), 1.0)),
)


def _thetas(rng: random.Random, count: int) -> List[float]:
    m = rng.uniform(1.0, 3.0)
    return [-m + 2.0 * m * i / (count - 1) for i in range(count)]


def _mc_rule(rng: random.Random, median_base: bool) -> Tuple:
    if median_base:
        base = ("median", rng.uniform(-0.3, 0.3))
    else:
        base = ("affine", rng.uniform(0.6, 1.1), rng.uniform(-0.3, 0.3))
    if rng.random() < 0.5:
        return base
    return ("sign", base, rng.uniform(0.05, 0.3), rng.uniform(-1.0, 1.0))


def pointwise_eval(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs: List[Job] = []

    def loss_at(i: int) -> Tuple:
        return _POINTWISE_LOSSES[i % len(_POINTWISE_LOSSES)](rng)

    for i in range(24):
        est = ("affine", rng.uniform(0.5, 1.2), rng.uniform(-0.3, 0.3))
        jobs.append(risk_job(f"quad{i}", est, loss_at(i), rng.choice((1, 2, 4, 9)),
                             _thetas(rng, 7), "quadrature"))

    # Monte Carlo jobs, half on a few draw-cache keys and half on more
    # distinct keys than the cache holds, for each of the two caches
    # (affine: (samples, seed); median: (n, samples, seed)).
    miss = DRAW_CACHE_SIZE + 4
    hit_keys = {
        False: [(1, 20000, _seed_of(rng)), (1, 50000, _seed_of(rng))],
        True: [(5, 20000, _seed_of(rng)), (3, 50000, _seed_of(rng))],
    }
    for median_base in (False, True):
        for i in range(miss):
            n = rng.choice((3, 5, 7)) if median_base else rng.choice((1, 4))
            key = (n, (20000, 50000)[i % 2], _seed_of(rng))
            for group, (kn, samples, mc_seed) in (("miss", key), ("hit", hit_keys[median_base][i % 2])):
                jobs.append(risk_job(
                    f"mc_{group}_{'median' if median_base else 'affine'}{i}",
                    _mc_rule(rng, median_base), loss_at(i), kn, _thetas(rng, 3),
                    "monte_carlo", seed=mc_seed, samples=samples,
                ))

    for i in range(12):
        alphas = [0.0] + sorted(rng.uniform(0.05, 2.0) for _ in range(5))
        jobs.append(shift_job(f"shift{i}", rng.uniform(1.5, 4.0), rng.randint(1, 8), alphas))
    for i in range(12):
        jobs.append(classify_job(f"classify{i}", [loss_at(i + j) for j in range(5)]))
    rng.shuffle(jobs)

    warmups = [
        risk_job("warmup_risk", ("affine", 0.8, 0.0), ("power", 2.0, 1.0), 1, [0.0, 1.0],
                 "monte_carlo", seed=1, samples=1000),
        shift_job("warmup_shift", 2.0, 1, [0.0, 1.0]),
        classify_job("warmup_classify", [("power", 2.0, 1.0)]),
    ]
    return Workload("pointwise-eval", jobs, warmups)


BUILDERS = {
    "minimax-solve": minimax_solve,
    "exclusivity-certify": exclusivity_certify,
    "pointwise-eval": pointwise_eval,
}
