"""Spans and counters around the package's layers, installed from outside.

`install` replaces names in the package's modules with wrappers that record
a span per call.  A name is patched in the module that looks it up, found
through `importlib.import_module`: the package attribute `minmax_lab.risk`
is the *function* `risk`, so the module `minmax_lab.risk` must be fetched
by its dotted name.  A name missing from its module is recorded in
`Tracer.missing` and reported, never skipped.

A span holds (id, name, start, end, parent id, job id).  Spans are kept in
memory and written out when the run ends.  Calls of the four hot functions
(`risk`, `gaussian_expectation`, `loss_of_error`, `error_draws`; up to
millions per cycle) are aggregated by name instead of kept one by one.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

HOT = {"risk.risk", "quadrature.gaussian_expectation", "losses.loss_of_error", "model.error_draws"}

COMMANDS = ("risk", "minimax", "exclusivity", "shift-risk", "classify")
EXIT_CODES = (0, 2, 3, 4)
VERDICTS = ("Refuted", "StationaryBoth", "NoDescentInFamily")

# (span name, [(module, attribute), ...]): every site that looks the name up.
PATCHES: List[Tuple[str, List[Tuple[str, str]]]] = [
    ("cli.main", [("minmax_lab.cli", "main")]),
    ("config.load_config", [("minmax_lab.cli", "load_config")]),
    ("serialize.to_json", [("minmax_lab.cli", "to_json")]),
    ("quadrature.gaussian_expectation",
     [("minmax_lab.risk", "gaussian_expectation"), ("minmax_lab.exclusivity", "gaussian_expectation")]),
    ("losses.loss_of_error",
     [("minmax_lab.risk", "loss_of_error"), ("minmax_lab.exclusivity", "loss_of_error"),
      ("minmax_lab.losses", "loss_of_error")]),
    ("losses.classify_exponent",
     [("minmax_lab.cli", "classify_exponent"), ("minmax_lab.exclusivity", "classify_exponent")]),
    ("model.error_draws", [("minmax_lab.risk", "error_draws"), ("minmax_lab.model", "error_draws")]),
    ("risk.risk", [("minmax_lab.risk", "risk"), ("minmax_lab.cli", "risk")]),
    ("risk.worst_case_risk",
     [("minmax_lab.minimax", "worst_case_risk"), ("minmax_lab.exclusivity", "worst_case_risk")]),
    ("risk.golden_section_max", [("minmax_lab.risk", "golden_section_max")]),
    ("minimax.solve_minimax",
     [("minmax_lab.cli", "solve_minimax"), ("minmax_lab.minimax", "solve_minimax"),
      ("minmax_lab.exclusivity", "solve_minimax")]),
    ("minimax.nm", [("minmax_lab.minimax", "scipy_minimize")]),
    ("exclusivity.check_exclusivity_partition", [("minmax_lab.cli", "check_exclusivity_partition")]),
    ("exclusivity.refute_joint_minimaxity", [("minmax_lab.exclusivity", "refute_joint_minimaxity")]),
    ("exclusivity.grad_worst_case", [("minmax_lab.exclusivity", "grad_worst_case")]),
    ("exclusivity.mean_shift_risk",
     [("minmax_lab.cli", "mean_shift_risk"), ("minmax_lab.exclusivity", "mean_shift_risk")]),
    ("exclusivity.mean_shift_risk_deriv", [("minmax_lab.cli", "mean_shift_risk_deriv")]),
    ("cli.atomic_write", [("minmax_lab.cli", "_atomic_write")]),
]

# Draw caches read through cache_info(): (module, attribute).
DRAW_CACHES = [("minmax_lab.model", "_standard_normals"), ("minmax_lab.model", "_standard_median_errors")]

# (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("quadrature.gaussian_expectation.calls", "count", "lower"),
    ("quadrature.gaussian_expectation.self_s", "s", "lower"),
    ("quadrature.segments", "count", "lower"),
    ("quadrature.nodes", "count", "lower"),
    ("losses.loss_of_error.calls", "count", "lower"),
    ("losses.loss_of_error.self_s", "s", "lower"),
    ("losses.classify_exponent.calls", "count", "lower"),
    ("losses.classify_exponent.self_s", "s", "lower"),
    ("model.error_draws.calls", "count", "lower"),
    ("model.error_draws.self_s", "s", "lower"),
    ("model.draws", "count", "lower"),
    ("model.draw_cache.lookups", "count", "lower"),
    ("model.draw_cache.hit_ratio", "ratio", "higher"),
    ("risk.risk.calls.quadrature", "count", "lower"),
    ("risk.risk.calls.monte_carlo", "count", "lower"),
    ("risk.risk.self_s", "s", "lower"),
    ("risk.worst_case_risk.calls", "count", "lower"),
    ("risk.worst_case_risk.self_s", "s", "lower"),
    ("risk.worst_case_risk.risk_calls_per_call", "ratio", "lower"),
    ("risk.worst_case_risk.constant_in_theta", "count", "higher"),
    ("risk.golden_section_max.calls", "count", "lower"),
    ("risk.default_l2_job.risk_calls", "count", "lower"),
    ("risk.default_l2_job.risk_calls_per_worst_case", "ratio", "lower"),
    ("minimax.solve_minimax.calls", "count", "lower"),
    ("minimax.solve_minimax.self_s", "s", "lower"),
    ("minimax.solve_minimax.duplicate_calls", "count", "lower"),
    ("minimax.nm.restarts", "count", "lower"),
    ("minimax.nm.nfev", "count", "lower"),
    ("minimax.nm.nit", "count", "lower"),
    ("minimax.nm.success_ratio", "ratio", "higher"),
    ("exclusivity.check_exclusivity_partition.calls", "count", "lower"),
    ("exclusivity.check_exclusivity_partition.self_s", "s", "lower"),
    ("exclusivity.refute_joint_minimaxity.calls", "count", "lower"),
    ("exclusivity.refute_joint_minimaxity.self_s", "s", "lower"),
    ("exclusivity.grad_worst_case.calls", "count", "lower"),
    ("exclusivity.grad_worst_case.self_s", "s", "lower"),
    ("exclusivity.grad_worst_case.failed", "count", "lower"),
    *[(f"exclusivity.verdict.{v}", "count", "higher") for v in VERDICTS],
    ("exclusivity.mean_shift_risk.calls", "count", "lower"),
    ("exclusivity.mean_shift_risk.self_s", "s", "lower"),
    ("exclusivity.mean_shift_risk_deriv.calls", "count", "lower"),
    ("exclusivity.mean_shift_risk_deriv.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *[(f"cli.{c}.wall_s", "s", "lower") for c in COMMANDS],
    ("config.load_config.self_s", "s", "lower"),
    ("serialize.to_json.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    *[(f"cli.exit_code.{n}", "count", "higher" if n == 0 else "lower") for n in EXIT_CODES],
    ("trace.jobs", "count", "higher"),
    ("trace.missing_names", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


class Tracer:
    """Span recorder; inactive (a pass-through) until `active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.job: Any = None  # job index in the cycle, or "pin"
        self.stack: List[list] = []  # [span id, name, start, child seconds]
        self.spans: List[Tuple] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.job_counts: Counter = Counter()  # (job id, name) -> calls
        self.missing: List[str] = []
        self.solved: set = set()  # (job, solve_minimax arguments)
        self._next_id = 0

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [sid, name, perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            duration = end - frame[2]
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[3]
            self.job_counts[self.job, name] += 1
            if self.stack:
                self.stack[-1][3] += duration
            if name not in HOT:
                self.spans.append((sid, name, frame[2], end, parent, self.job))

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    def dump(self, path: Path, info: Dict[str, Any]) -> None:
        doc = {
            "info": info,
            "missing": self.missing,
            "aggregates": {
                name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "job_calls": [[job, name, n] for (job, name), n in self.job_counts.items()],
            "span_fields": ["id", "name", "start", "end", "parent", "job"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


# -- hooks: counts taken at the boundaries where the work happens ------------


def _gaussian_expectation(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(f, *args, **kwargs):
        def integrand(t):
            tracer.counts["quadrature.segments"] += 1
            tracer.counts["quadrature.nodes"] += len(t)
            return f(t)
        return fn(integrand, *args, **kwargs)
    return wrapper


def _risk(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        method = args[4] if len(args) > 4 else kwargs.get("method")
        kind = "monte_carlo" if hasattr(method, "samples") else "quadrature"
        tracer.counts["risk.risk.calls." + kind] += 1
        if tracer.inside("risk.worst_case_risk"):
            tracer.counts["risk.worst_case_risk.risk_calls"] += 1
        return fn(*args, **kwargs)
    return wrapper


def _error_draws(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tracer.counts["model.draws"] += int(args[3] if len(args) > 3 else kwargs.get("count", 0))
        return fn(*args, **kwargs)
    return wrapper


def _worst_case_risk(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.counts["risk.worst_case_risk.constant_in_theta"] += bool(result.constant_in_theta)
        return result
    return wrapper


def _solve_minimax(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        # same model, family, loss, interval and options within one job
        key = (tracer.job, args, tuple(sorted(kwargs.items())))
        if key in tracer.solved:
            tracer.counts["minimax.solve_minimax.duplicate_calls"] += 1
        tracer.solved.add(key)
        return fn(*args, **kwargs)
    return wrapper


def _nm(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        res = fn(*args, **kwargs)
        tracer.counts["minimax.nm.restarts"] += 1
        tracer.counts["minimax.nm.nfev"] += int(res.nfev)
        tracer.counts["minimax.nm.nit"] += int(res.nit)
        tracer.counts["minimax.nm.successes"] += bool(res.success)
        return res
    return wrapper


def _grad_worst_case(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception:
            tracer.counts["exclusivity.grad_worst_case.failed"] += 1
            raise
    return wrapper


def _refute(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        cert = fn(*args, **kwargs)
        tracer.counts["exclusivity.verdict." + cert.verdict.value] += 1
        return cert
    return wrapper


def _atomic_write(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(path, text, *args, **kwargs):
        tracer.counts["cli.bytes_written"] += len(text.encode())
        return fn(path, text, *args, **kwargs)
    return wrapper


HOOKS = {
    "quadrature.gaussian_expectation": _gaussian_expectation,
    "risk.risk": _risk,
    "model.error_draws": _error_draws,
    "risk.worst_case_risk": _worst_case_risk,
    "minimax.solve_minimax": _solve_minimax,
    "minimax.nm": _nm,
    "exclusivity.grad_worst_case": _grad_worst_case,
    "exclusivity.refute_joint_minimaxity": _refute,
    "cli.atomic_write": _atomic_write,
}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    inner = HOOKS[name](tracer, fn) if name in HOOKS else fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(name, inner, args, kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every name in PATCHES and every CLI command handler."""
    for name, sites in PATCHES:
        for module_name, attr in sites:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, _wrap(tracer, name, getattr(module, attr)))
    # The CLI dispatches through its _COMMANDS table, so the handlers are
    # looked up there, not by their function names.
    cli = importlib.import_module("minmax_lab.cli")
    table = getattr(cli, "_COMMANDS", None)
    for command in COMMANDS:
        if table is None or command not in table:
            tracer.missing.append(f"minmax_lab.cli._COMMANDS[{command!r}]")
            continue
        handler, help_text = table[command]
        table[command] = (_wrap(tracer, f"cli.{command}", handler), help_text)
    for module_name, attr in DRAW_CACHES:
        if not hasattr(getattr(importlib.import_module(module_name), attr, None), "cache_info"):
            tracer.missing.append(f"{module_name}.{attr}.cache_info")


def draw_cache_totals() -> Tuple[int, int]:
    """(hits, misses) summed over the draw caches that exist."""
    hits = misses = 0
    for module_name, attr in DRAW_CACHES:
        cache = getattr(importlib.import_module(module_name), attr, None)
        if hasattr(cache, "cache_info"):
            info = cache.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
    return hits, misses


def ratio(num: float, den: float) -> float:
    """num / den, and 0 for an empty base (the base is reported beside it)."""
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, cache_delta: Tuple[int, int], exit_codes: List[object],
                      overhead_frac: float) -> Dict[str, float]:
    """Every PER_LAYER metric for one traced cycle, `exit_codes` holding one
    entry per job.  The risk.default_l2_job metrics are 0 here; the caller
    fills them in from the pinned job."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    values: Dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        stem, _, leaf = metric.rpartition(".")
        if leaf == "calls":
            values[metric] = calls[stem]
        elif leaf == "self_s":
            values[metric] = self_s[stem]
        else:
            values[metric] = counts[metric]
    hits, misses = cache_delta
    values["model.draw_cache.lookups"] = hits + misses
    values["model.draw_cache.hit_ratio"] = ratio(hits, hits + misses)
    values["risk.worst_case_risk.risk_calls_per_call"] = ratio(
        counts["risk.worst_case_risk.risk_calls"], calls["risk.worst_case_risk"])
    values["minimax.nm.success_ratio"] = ratio(counts["minimax.nm.successes"],
                                                counts["minimax.nm.restarts"])
    for command in COMMANDS:
        values[f"cli.{command}.wall_s"] = tracer.total_s[f"cli.{command}"]
    for code in EXIT_CODES:
        values[f"cli.exit_code.{code}"] = exit_codes.count(code)
    values["trace.jobs"] = len(exit_codes)
    values["trace.missing_names"] = len(tracer.missing)
    values["trace.overhead_frac"] = overhead_frac
    return values
