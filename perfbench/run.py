"""minmax-lab benchmark: seeded CLI job cycles, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload minimax-solve --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process is one closed-loop client: each
job is `minmax_lab.cli.main(argv)` called in-process, and the next job
starts when the previous one returns.  Whole cycles of the workload's jobs
run until `--seconds` of job time has passed.  Every job's outputs are
checked (checks.py) after its timer stops.  Times are reported in reference
seconds, scaled by a calibration loop timed between jobs (CAL_REF_S).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics (tracing.py) with `--trace 1`.  The line
before it records the run's settings and environment.  See README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; recorded in the output.
PINNED_ENV = {
    "MINMAX_LAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TRACES = HERE / "traces"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 5

#: Machine-speed calibration.  On a shared host the CPU speed drifts with
#: other tenants' load (by up to 60% over minutes on a 2-core VM), which no
#: run length averages out.  A fixed loop of the jobs' kind of work (small
#: numpy arrays, dicts, strings) is timed between jobs, outside their
#: timers, and every time is scaled by CAL_REF_S / (the loop's median time),
#: so times read as seconds on a machine that runs the loop in CAL_REF_S.
#: The unscaled metrics go to the info line.
CAL_REF_S = 0.010
#: Job time between two calibration samples (bounds their overhead to ~5%).
CAL_EVERY_S = 0.2

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, write the configs, run the warm-up and exit (timed by setup_s)")
    return parser.parse_args(argv)


def load_package():
    """Import minmax_lab from this checkout's src/, never from elsewhere."""
    init = SRC / "minmax_lab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import minmax_lab.cli

    if Path(minmax_lab.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported minmax_lab from {minmax_lab.__file__}, not {init}")
    return minmax_lab.cli


class Entry(NamedTuple):
    job: workloads.Job
    argv: List[str]
    out: Path


class Runner:
    """Writes a workload's configs under a private work dir and runs its jobs."""

    def __init__(self, cli, workload, work_dir: Path):
        self.cli = cli
        self.work_dir = work_dir
        self.cycle = [self._entry(job, f"j{i}") for i, job in enumerate(workload.jobs)]
        self.warmups = [self._entry(job, f"w{i}") for i, job in enumerate(workload.warmups)]
        self.pin = self._entry(workload.pin, "pin") if workload.pin else None

    def _entry(self, job, tag: str) -> Entry:
        config = self.work_dir / f"{tag}.ini"
        config.write_text(job.config)
        out = self.work_dir / tag
        return Entry(job, [job.command, "--config", str(config), "--out", str(out)], out)

    def call(self, argv: List[str]) -> Tuple[object, float, float, str]:
        """(exit code, wall s, cpu s, captured output) of one in-process CLI call."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = "exception"
                traceback.print_exc()
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return rc, wall, cpu, buf.getvalue()

    def warm_up(self) -> None:
        for entry in self.warmups:
            rc, _, _, output = self.call(entry.argv)
            if rc != 0:
                raise SystemExit(f"perfbench: warm-up {entry.job.name} exited {rc}: {output.strip()}")


def calibrate() -> float:
    """Seconds taken by a fixed loop of work like the jobs' own."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 200)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(1200):
        acc += float(np.dot(x, np.abs(x - 0.3) ** 1.5))
        acc += len(str({"a": acc, "b": [acc] * 4})) * 1e-9
    return time.perf_counter() - start


class Cycle:
    """Results of one pass over a list of jobs."""

    def __init__(self):
        self.names: List[str] = []
        self.codes: List[object] = []
        self.walls: List[float] = []
        self.cpu = 0.0
        self.cal: List[float] = []  # calibration samples taken in the pass
        self.failures: Dict[str, str] = {}  # job name -> reason
        self.misses: Dict[str, str] = {}  # the failures that are check misses

    @property
    def busy(self) -> float:
        return sum(self.walls)

    @property
    def speed(self) -> float:
        """Factor from this pass's seconds to reference seconds."""
        return CAL_REF_S / statistics.median(self.cal)

    @property
    def ok_walls(self) -> List[float]:
        return [w for name, w in zip(self.names, self.walls) if name not in self.failures]

    def ops_per_s(self, speed: float) -> float:
        return len(self.ok_walls) / (self.busy * speed)


def run_cycle(runner: Runner, entries: List[Entry], checks,
              on_job: Optional[Callable[[int], None]] = None) -> Cycle:
    cycle = Cycle()
    since_cal = 0.0
    for index, entry in enumerate(entries):
        if on_job:
            on_job(index)
        rc, wall, cpu, output = runner.call(entry.argv)
        name = entry.job.name
        cycle.names.append(name)
        cycle.codes.append(rc)
        cycle.walls.append(wall)
        cycle.cpu += cpu
        since_cal += wall
        if since_cal >= CAL_EVERY_S or index == len(entries) - 1:
            cycle.cal.append(calibrate())
            since_cal = 0.0
        if rc != 0:
            lines = output.strip().splitlines()
            cycle.failures[name] = f"exit {rc}: {lines[-1] if lines else ''}"
        else:
            reason = checks.check(entry.job.expect, entry.out)
            if reason:
                cycle.failures[name] = cycle.misses[name] = reason
    return cycle


def measure(runner: Runner, checks, seconds: float) -> List[Cycle]:
    """Whole cycles until `seconds` of job time has passed (at least one)."""
    cycles: List[Cycle] = []
    while not cycles or sum(c.busy for c in cycles) < seconds:
        cycles.append(run_cycle(runner, runner.cycle, checks))
    return cycles


def time_setups(args: argparse.Namespace) -> List[Tuple[float, float]]:
    """(wall s, calibration s) of fresh processes that import, write configs
    and warm up, each timed from spawn to exit after a calibration sample."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        cal = calibrate()
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        samples.append((time.perf_counter() - start, cal))
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup process exited {proc.returncode}: {proc.stderr.strip()}")
    return samples


def end_to_end(cycles: List[Cycle], setups: List[Tuple[float, float]],
               scaled: bool = True) -> Dict[str, float]:
    """The END_TO_END metrics, in reference seconds unless `scaled` is off."""
    speeds = [c.speed if scaled else 1.0 for c in cycles]
    walls = sorted(w * v for c, v in zip(cycles, speeds) for w in c.ok_walls)
    if len(walls) < 2:
        raise SystemExit("perfbench: fewer than two jobs completed; no timing to report")
    return {
        "setup_s": statistics.median(wall * (CAL_REF_S / cal if scaled else 1.0)
                                     for wall, cal in setups),
        "ops_per_s": statistics.median(c.ops_per_s(v) for c, v in zip(cycles, speeds)),
        "op_s.p50": statistics.median(walls),
        "op_s.p90": statistics.quantiles(walls, n=10, method="inclusive")[-1],
        "cpu_s_per_op": statistics.median(c.cpu * v / len(c.codes) for c, v in zip(cycles, speeds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def environment(args: argparse.Namespace) -> Dict[str, object]:
    import numpy
    import scipy

    import minmax_lab

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned_env": PINNED_ENV,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "minmax_lab": minmax_lab.__version__,
    }


def traced_run(runner: Runner, checks, untraced: List[Cycle]):
    """One cycle with spans on, after `untraced` warmed the draw caches,
    then the pinned job if the workload has one.

    Returns the passes run, the per-layer metrics and the tracer.
    """
    tracer = tracing.Tracer()
    tracing.install(tracer)
    for name in tracer.missing:
        print(f"perfbench: not traced, missing from its module: {name}", file=sys.stderr)
    hits0, misses0 = tracing.draw_cache_totals()
    tracer.active = True
    cycle = run_cycle(runner, runner.cycle, checks, on_job=lambda index: setattr(tracer, "job", index))
    hits1, misses1 = tracing.draw_cache_totals()
    untraced_rate = statistics.median(c.ops_per_s(c.speed) for c in untraced)
    metrics = tracing.per_layer_metrics(
        tracer, (hits1 - hits0, misses1 - misses0), cycle.codes,
        1.0 - cycle.ops_per_s(cycle.speed) / untraced_rate,
    )
    passes = [cycle]
    if runner.pin:
        passes.append(run_cycle(runner, [runner.pin], checks,
                                on_job=lambda _: setattr(tracer, "job", "pin")))
        risk_calls = tracer.job_counts["pin", "risk.risk"]
        metrics["risk.default_l2_job.risk_calls"] = risk_calls
        metrics["risk.default_l2_job.risk_calls_per_worst_case"] = tracing.ratio(
            risk_calls, tracer.job_counts["pin", "risk.worst_case_risk"])
    tracer.active = False
    return passes, metrics, tracer


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    cli = load_package()
    if args.workload not in workloads.BUILDERS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.BUILDERS)}")
    workload = workloads.BUILDERS[args.workload](args.seed)
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        runner = Runner(cli, workload, work_dir)
        runner.warm_up()
        if args.setup_only:
            return 0
        import checks  # scipy.integrate is the benchmark's cost, not set-up's

        info = environment(args)
        if args.trace:
            cycles = measure(runner, checks, args.seconds)
            info["cycle_s"] = [c.busy for c in cycles]
            passes, metrics, tracer = traced_run(runner, checks, cycles)
            cycles += passes
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            trace_file = TRACES / f"{args.workload}-seed{args.seed}.json"
            info["trace_file"] = str(trace_file.relative_to(ROOT))
            info["trace_missing"] = tracer.missing
        else:
            setups = time_setups(args)
            cycles = measure(runner, checks, args.seconds)
            info["cycle_s"] = [c.busy for c in cycles]
            info["setup_samples_s"] = [wall for wall, _ in setups]
            info["raw_metrics"] = end_to_end(cycles, setups, scaled=False)
            metrics = end_to_end(cycles, setups)
            units = dict(END_TO_END)
        info["calibration_s"] = {"reference": CAL_REF_S,
                                 "median": statistics.median(x for c in cycles for x in c.cal)}
        attempted = sum(len(c.codes) for c in cycles)
        failures = [(name, why) for c in cycles for name, why in c.failures.items()]
        info.update(
            jobs_per_cycle=len(workload.jobs),
            attempted=attempted,
            failed=len(failures),
            ops_failed_frac=len(failures) / attempted,
            timed_jobs=sum(len(c.ok_walls) for c in cycles),
            failures=sorted(set(failures)),
        )
        if args.trace:
            tracer.dump(trace_file, info)
        for name, why in sorted(set(failures)):
            print(f"perfbench: job {name} failed: {why}", file=sys.stderr)
        print(json.dumps({"perfbench": info}))
        result = {
            "correct": not any(c.misses for c in cycles),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
