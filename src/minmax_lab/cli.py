"""Command-line front end.

Commands (each takes --config PATH --out DIR [--seed N]):

    risk         pointwise risk on a theta grid          -> risk.csv
    minimax      family minimax for one loss             -> minimax.json
    exclusivity  per-class optima + pairwise refutation  -> exclusivity.json,
                                                            alpha_ladder.csv
    shift-risk   risk of a shifted mean vs shift size    -> shift_risk.csv
    classify     local-exponent fits for named losses    -> classify.csv

Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 a minimax solve, or a class solve of exclusivity, did not converge (its
files are still written; --allow-nonconverged exits 0 instead).
Outputs are written atomically and contain no timestamps, so a rerun with
the same config and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Optional, Sequence

from . import __version__
from .config import RunConfig, SectionView, load_config
from .errors import (
    ConfigError,
    DegenerateLossError,
    MinmaxLabError,
    NonFiniteRiskError,
    NonPositiveScaleError,
    OracleEstimatorError,
    QuadratureUnsupportedError,
)
from .exclusivity import (
    check_exclusivity_partition,
    mean_shift_risk,
    mean_shift_risk_deriv,
)
from .losses import DEFAULT_POINTS, DEFAULT_WINDOW, classify_exponent
from .minimax import MAXITER, solve_minimax
from .risk import MonteCarlo, Quadrature, risk
from .serialize import to_document, to_json

_CONFIG_ERRORS = (
    ConfigError,
    OracleEstimatorError,
    NonPositiveScaleError,
    QuadratureUnsupportedError,
    ValueError,
)
_NUMERIC_ERRORS = (NonFiniteRiskError, DegenerateLossError)


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(
    path: Path,
    cfg: RunConfig,
    seed: Optional[int],
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
    extra_comments: Sequence[str] = (),
) -> None:
    buf = io.StringIO()
    buf.write(f"# minmax-lab {__version__}\n")
    buf.write(f"# config_sha256={cfg.sha256}\n")
    buf.write(f"# seed={'none' if seed is None else seed}\n")
    for comment in extra_comments:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _write_json(path: Path, cfg: RunConfig, seed: Optional[int], command: str,
                result: Any) -> None:
    document = {
        "schema": "minmax-lab/cli-output/v1",
        "tool_version": __version__,
        "command": command,
        "config_sha256": cfg.sha256,
        "seed": seed,
        "result": to_document(result),
    }
    _atomic_write(path, to_json(document))


def _maxiter(cfg: RunConfig, view: SectionView) -> int:
    """The iteration cap of a family solve for the `minimax` or
    `exclusivity` command, named by its section, which the config must
    pair with a [family]; the solve checks its range.  Every family solve
    is exact, so none needs a seed."""
    if cfg.family is None:
        raise ConfigError(f"missing [family] section ({view.name} needs a family)")
    return view.int("maxiter", MAXITER)


def _nonconverged(args, what: str) -> int:
    """Exit code 4 for a solve that did not converge, unless
    --allow-nonconverged accepts it."""
    if args.allow_nonconverged:
        return 0
    print(f"{what} did not converge; rerun with --allow-nonconverged to accept",
          file=sys.stderr)
    return 4


def cmd_risk(cfg: RunConfig, args, out_dir: Path, seed: Optional[int]) -> int:
    view = cfg.section("risk")
    est = cfg.estimator(view.str("estimator"))
    loss = cfg.loss(view.str("loss"))
    if view.has("thetas"):
        thetas = view.floats("thetas")
    else:
        lo, hi, count = view.float("theta_lo"), view.float("theta_hi"), view.int("theta_count")
        if count < 1:
            raise ConfigError("[risk] theta_count must be >= 1")
        step = (hi - lo) / (count - 1) if count > 1 else 0.0
        thetas = [lo + i * step for i in range(count)]

    method_name = view.str("method", "quadrature")
    # risk raises a ValueError only for a theta that is not finite
    with view.checked():
        if method_name == "quadrature":
            method = Quadrature()
        elif method_name == "monte_carlo":
            if seed is None:
                raise ConfigError("run.seed is required when method = monte_carlo; "
                                  "set seed in the [run] section or pass --seed")
            method = MonteCarlo(view.int("samples", 100_000), seed)
        else:
            raise ConfigError(f"[risk] method = {method_name!r} is not a risk method")
        rows = []
        for theta in thetas:
            estimate = risk(cfg.model, est, loss, theta, method)
            rows.append([theta, estimate.value, estimate.std_error])
    _write_csv(out_dir / "risk.csv", cfg, seed, ["theta", "risk", "std_error"], rows)
    print(f"wrote {out_dir / 'risk.csv'} ({len(rows)} rows)")
    return 0


def cmd_minimax(cfg: RunConfig, args, out_dir: Path, seed: Optional[int]) -> int:
    view = cfg.section("minimax")
    loss = cfg.loss(view.str("loss"))
    maxiter = _maxiter(cfg, view)
    # the solve raises a ValueError only for maxiter
    with view.checked():
        result = solve_minimax(cfg.model, cfg.family, loss, cfg.theta_interval, maxiter)
    _write_json(out_dir / "minimax.json", cfg, seed, "minimax", result)
    print(
        f"minimax value {result.minimax_value:.6g} at params "
        f"{tuple(round(v, 6) for v in result.best_params)} "
        f"(converged={result.converged})"
    )
    return 0 if result.converged else _nonconverged(args, "solver")


def cmd_exclusivity(cfg: RunConfig, args, out_dir: Path, seed: Optional[int]) -> int:
    view = cfg.section("exclusivity")
    exponents = view.floats("exponents")
    maxiter = _maxiter(cfg, view)
    # the partition's ValueErrors are about the exponents and maxiter
    with view.checked():
        report = check_exclusivity_partition(
            cfg.model, cfg.family, exponents, cfg.theta_interval, maxiter
        )
    _write_json(out_dir / "exclusivity.json", cfg, seed, "exclusivity", report)

    ladder_rows = []
    for cert in report.witnesses:
        for pt in cert.ladder:
            ladder_rows.append([cert.p, cert.q, pt.alpha, pt.delta_Rp, pt.delta_Rq])
    _write_csv(
        out_dir / "alpha_ladder.csv",
        cfg,
        seed,
        ["p", "q", "alpha", "delta_Rp", "delta_Rq"],
        ladder_rows,
    )
    for cert in report.witnesses:
        print(f"pair (p={cert.p:.4g}, q={cert.q:.4g}): {cert.verdict.value}")
    print(f"pairwise_disjoint={report.pairwise_disjoint}")
    # verdicts are data, not errors; only a class solve that did not
    # converge makes the certificates suspect
    return 0 if report.converged else _nonconverged(args, "a class solve")


def cmd_shift_risk(cfg: RunConfig, args, out_dir: Path, seed: Optional[int]) -> int:
    view = cfg.section("shift_risk")
    q = view.float("q")
    n = view.int("n", cfg.model.n)
    alphas = view.floats("alphas")

    rows = []
    positive_signs = set()
    # the shift-risk functions raise a ValueError only for q, n or alpha
    with view.checked():
        for alpha in alphas:
            value = mean_shift_risk(alpha, n, q)
            d_analytic = mean_shift_risk_deriv(alpha, n, q, "analytic")
            d_fd = mean_shift_risk_deriv(alpha, n, q, "fd")
            rows.append([alpha, value, d_analytic, d_fd])
            if alpha > 0:
                positive_signs.add(1 if d_analytic > 0 else (-1 if d_analytic < 0 else 0))

    if not positive_signs:
        sign_summary = "no-positive-shifts"
    elif positive_signs == {1}:
        sign_summary = "positive"
    elif positive_signs == {-1}:
        sign_summary = "negative"
    else:
        sign_summary = "mixed"
    _write_csv(
        out_dir / "shift_risk.csv",
        cfg,
        seed,
        ["alpha", "risk", "deriv_analytic", "deriv_fd"],
        rows,
        extra_comments=[f"deriv_sign_for_positive_shift={sign_summary}"],
    )
    print(f"wrote {out_dir / 'shift_risk.csv'} ({len(rows)} rows)")
    print(
        f"sign check: d(risk)/d(shift) is {sign_summary} for the positive shifts "
        "in this sweep (reported as computed)"
    )
    return 0


def cmd_classify(cfg: RunConfig, args, out_dir: Path, seed: Optional[int]) -> int:
    view = cfg.section("classify", required=False)
    names = view.names("losses") if view.has("losses") else sorted(cfg.losses)
    if not names:
        raise ConfigError("no losses to classify; define [loss NAME] sections")
    window = (view.float("window_lo", DEFAULT_WINDOW[0]),
              view.float("window_hi", DEFAULT_WINDOW[1]))
    points = view.int("points", DEFAULT_POINTS)
    # classify_exponent raises a ValueError only for the window or the points
    with view.checked():
        results = [classify_exponent(cfg.loss(name), window=window, points=points)
                   for name in names]

    rows = []
    print(f"{'loss':<16}{'p_hat':>14}{'c_hat':>14}{'fit_residual':>16}")
    for name, result in zip(names, results):
        rows.append([name, result.p_hat, result.c_hat, result.fit_residual])
        print(f"{name:<16}{result.p_hat:>14.6f}{result.c_hat:>14.6f}{result.fit_residual:>16.3e}")
    _write_csv(
        out_dir / "classify.csv",
        cfg,
        seed,
        ["loss", "p_hat", "c_hat", "fit_residual"],
        rows,
    )
    return 0


_COMMANDS = {
    "risk": (cmd_risk, "pointwise risk on a theta grid -> risk.csv"),
    "minimax": (cmd_minimax, "family minimax for one loss -> minimax.json"),
    "exclusivity": (
        cmd_exclusivity,
        "per-class optima and pairwise refutations -> exclusivity.json, alpha_ladder.csv",
    ),
    "shift-risk": (
        cmd_shift_risk,
        "shifted-mean risk and its derivative -> shift_risk.csv",
    ),
    "classify": (cmd_classify, "local-exponent fits for named losses -> classify.csv"),
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmax-lab",
        description="Worst-case risk laboratory for location estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides [run] seed)")
        p.add_argument("--allow-nonconverged", action="store_true",
                       help="exit 0 even when the minimax solve, or a class solve "
                            "of exclusivity, did not converge")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the --out directory {out_dir}: {exc}") from exc
        seed = args.seed if args.seed is not None else cfg.seed
        handler, _ = _COMMANDS[args.command]
        return handler(cfg, args, out_dir, seed)
    except _NUMERIC_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MinmaxLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
