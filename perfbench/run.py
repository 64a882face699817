"""Benchmark of zipcrt: Monte Carlo studies, ICC rows and CLI round trips.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-study --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for the layer-to-metric table):

  grid-study  t-sized null and alternative ``mc.run_power_study`` calls on
              the six q = 0.5 cells of the reference grid;
  icc         ``mc.estimate_poisson_icc`` on 10,000-cluster datasets of two
              table3-icc rows;
  roundtrip   in-process ``zipcrt simulate`` then ``zipcrt fit`` on
              2,000-cluster datasets of two table3-icc rows.

The program runs in this process with ``workers=1``.  A run times whole
rounds of fixed work until ``--seconds`` is used up and reports medians over
rounds.  Set-up (importing zipcrt and building the inputs) is timed in
fresh child processes.  Times are scaled to a reference host speed measured
around every call (see clock.py); the raw times are printed too.  ``--trace 1`` alternates untraced rounds with traced
copies of them and reports per-layer spans instead of the end-to-end
metrics.  Outputs are checked against oracles after timing.  The last line
of standard output is the JSON result; the lines before it record the
environment and the per-round samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grid-study", "icc", "roundtrip")
SETUP_SAMPLES = 5

_SETUP_CHILD = """
import sys, time
from pathlib import Path
src, here, name, seed, tiny, workdir = sys.argv[1:]
sys.path[:0] = [src, here]
start = time.perf_counter()
import zipcrt
import workloads
from clock import Clock
workloads.build(name, int(seed), tiny == "1", Path(workdir), Clock(False))
print(time.perf_counter() - start)
"""

SPANS = (
    "bench.round",
    "mc.run_power_study",
    "mc.estimate_poisson_icc",
    "cli.main",
    "simulate.generate_trial",
    "simulate.write_dataset",
    "simulate.read_dataset",
    "gee.fit_zip",
    "gee.fit_beta",
    "gee.wald_test",
    "power.t_quantile",
    "power.sample_size_t",
    "power.sample_size_normal",
)
# Layers that can fail: by raising, or as the hooks below decide.
FAILING_SPANS = (
    "mc.run_power_study",
    "mc.estimate_poisson_icc",
    "cli.main",
    "simulate.generate_trial",
    "simulate.write_dataset",
    "simulate.read_dataset",
    "gee.fit_zip",
    "gee.fit_beta",
)
COUNTS = {
    "gee.fit_zip.iterations": "count",
    "simulate.generate_trial.subjects": "count",
    "simulate.write_dataset.bytes": "bytes",
    "cli.main.simulate_ms": "ms",
    "cli.main.fit_ms": "ms",
}


def _fit_hook(tracer, args, fit, seconds) -> bool:
    iterations = getattr(fit, "iterations", None)
    if iterations is not None:
        tracer.counts["gee.fit_zip.iterations"].append(iterations)
    return not getattr(fit, "converged", True)


def _trial_hook(tracer, args, data, seconds) -> bool:
    subjects = getattr(data, "n_subjects", None)
    if subjects is not None:
        tracer.counts["simulate.generate_trial.subjects"].append(subjects)
    return False


def _write_hook(tracer, args, _, seconds) -> bool:
    tracer.counts["simulate.write_dataset.bytes"].append(os.path.getsize(args[1]))
    return False


def _cli_hook(tracer, args, code, seconds) -> bool:
    command = args[0][0] if args and args[0] else None
    if command in ("simulate", "fit"):
        tracer.counts[f"cli.main.{command}_ms"].append(1e3 * seconds)
    return code != 0


# (module, name callers look up, span, hook).  The harness itself calls the
# top-level functions through their modules, so wrapping them there times it.
TARGETS = [
    ("zipcrt.mc", "run_power_study", "mc.run_power_study", None),
    ("zipcrt.mc", "estimate_poisson_icc", "mc.estimate_poisson_icc", None),
    ("zipcrt.cli", "main", "cli.main", _cli_hook),
    ("zipcrt.mc", "generate_trial", "simulate.generate_trial", _trial_hook),
    ("zipcrt.cli", "generate_trial", "simulate.generate_trial", _trial_hook),
    ("zipcrt.cli", "write_dataset", "simulate.write_dataset", _write_hook),
    ("zipcrt.cli", "read_dataset", "simulate.read_dataset", None),
    ("zipcrt.mc", "fit_zip", "gee.fit_zip", _fit_hook),
    ("zipcrt.cli", "fit_zip", "gee.fit_zip", _fit_hook),
    ("zipcrt.mc", "fit_beta", "gee.fit_beta", None),
    ("zipcrt.mc", "wald_test", "gee.wald_test", None),
    ("zipcrt.cli", "wald_test", "gee.wald_test", None),
    ("zipcrt.gee", "t_quantile", "power.t_quantile", None),
    ("zipcrt.power", "t_quantile", "power.t_quantile", None),
    ("zipcrt.mc", "sample_size_t", "power.sample_size_t", None),
    ("zipcrt.mc", "sample_size_normal", "power.sample_size_normal", None),
    ("zipcrt.power", "sample_size_normal", "power.sample_size_normal", None),
]


def _parse(argv):
    def seed(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs and one set-up sample, for the self-test",
    )
    return parser.parse_args(argv)


def _use_checkout_source() -> None:
    """Import zipcrt from this checkout's ``src`` or stop without a result."""
    if not (SRC / "zipcrt" / "__init__.py").is_file():
        sys.exit(f"error: no zipcrt sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _setup_seconds(args, workdir: Path) -> list[tuple[float, float]]:
    """(raw, scaled) import-and-build times, each in a fresh interpreter."""
    from clock import host_speed

    samples = []
    for k in range(1 if args.tiny else SETUP_SAMPLES):
        child_dir = workdir / f"setup{k}"
        child_dir.mkdir()
        before = host_speed()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE),
             args.workload, str(args.seed), "1" if args.tiny else "0", str(child_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        speed = 0.5 * (before + host_speed())
        raw = float(done.stdout.strip().splitlines()[-1])
        samples.append((raw, raw * speed))
        shutil.rmtree(child_dir)
    return samples


def _keep_going(start: float, durations: list[float], seconds: float) -> bool:
    """Start another round unless it would end well past the deadline."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * statistics.fmean(durations) <= seconds


def _measure(workload, seconds: float):
    """Per round: wall seconds, result, and raw and scaled seconds in calls."""
    rounds = []
    start = time.perf_counter()
    while not rounds or _keep_going(start, [d for d, _ in rounds], seconds):
        workload.clock.reset()
        t0 = time.perf_counter()
        result = workload.round(len(rounds))
        rounds.append((time.perf_counter() - t0, result))
        result.raw_s, result.scaled_s = workload.clock.raw, workload.clock.scaled
        result.speeds = workload.clock.speeds
    return rounds


def _measure_traced(workload, seconds: float, tracer):
    """Pairs of (untraced round, traced copy of it): durations and results."""
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or _keep_going(start, [a + b for (a, _), (b, _) in zip(plain, traced)], seconds):
        index = len(plain)
        t0 = time.perf_counter()
        result = workload.round(index)
        plain.append((time.perf_counter() - t0, result))
        with tracer.installed(TARGETS):
            t0 = time.perf_counter()
            result = tracer.call("bench.round", workload.round, index)
            traced.append((time.perf_counter() - t0, result))
    return plain, traced


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(rounds, setup: list[tuple[float, float]]) -> dict:
    attempted = sum(r.attempted for _, r in rounds)
    failed = sum(r.failed for _, r in rounds)
    return {
        "setup_s": _metric(statistics.median(s for _, s in setup), "s"),
        "reps_per_s": _metric(statistics.median(r.units / r.scaled_s for _, r in rounds), "1/s"),
        "clusters_per_s": _metric(
            statistics.median(r.clusters / r.scaled_s for _, r in rounds), "1/s"
        ),
        "success_frac": _metric((attempted - failed) / attempted, "fraction"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def _per_layer(tracer, plain, traced) -> dict:
    n = len(traced)
    metrics = {}
    for name in SPANS:
        span = tracer.spans.get(name)
        calls = span.calls if span else 0
        metrics[f"{name}.calls"] = _metric(calls / n, "count")
        metrics[f"{name}.total_ms"] = _metric(1e3 * span.total / n if span else 0.0, "ms")
        metrics[f"{name}.self_ms"] = _metric(1e3 * span.self_time / n if span else 0.0, "ms")
        metrics[f"{name}.p50_ms"] = _metric(1e3 * span.p50() if span else 0.0, "ms")
        if name in FAILING_SPANS:
            metrics[f"{name}.failed"] = _metric(span.failed / n if span else 0.0, "count")
    for name, unit in COUNTS.items():
        values = tracer.counts.get(name)
        metrics[f"{name}_p50"] = _metric(statistics.median(values) if values else 0.0, unit)
    attempted = sum(r.attempted for _, r in plain + traced)
    failed = sum(r.failed for _, r in plain + traced)
    metrics["replicates.success_frac"] = _metric((attempted - failed) / attempted, "fraction")
    metrics["trace.wall_ms"] = _metric(1e3 * sum(d for d, _ in traced) / n, "ms")
    metrics["trace.self_sum_ms"] = _metric(
        1e3 * sum(s.self_time for s in tracer.spans.values()) / n, "ms"
    )
    metrics["trace.untraced_ms"] = _metric(1e3 * sum(d for d, _ in plain) / n, "ms")
    metrics["trace.overhead_ms"] = _metric(
        1e3 * statistics.median(b - a for (a, _), (b, _) in zip(plain, traced)), "ms"
    )
    return metrics


def _git_commit():
    """HEAD of the checkout, read from its ``.git`` directory if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _use_checkout_source()
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    try:
        from clock import Clock

        clock = Clock(calibrate=not args.trace)
        setup = [] if args.trace else _setup_seconds(args, workdir)
        import workloads
        from tracing import Tracer

        workload = workloads.build(args.workload, args.seed, args.tiny, workdir, clock)
        workload.warmup()
        if args.trace:
            tracer = Tracer()
            plain, traced = _measure_traced(workload, args.seconds, tracer)
            rounds = plain + traced
            metrics = _per_layer(tracer, plain, traced)
        else:
            rounds = _measure(workload, args.seconds)
            metrics = _end_to_end(rounds, setup)
        errors = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        wall = metrics["trace.wall_ms"]["value"]
        self_sum = metrics["trace.self_sum_ms"]["value"]
        if abs(self_sum - wall) > 0.01 * wall:
            errors.append(f"span self times add to {self_sum} ms, traced wall is {wall} ms")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    print(json.dumps({"environment": _environment(args)}))
    print(json.dumps({
        "setup_s": [{"raw": raw, "scaled": scaled} for raw, scaled in setup],
        "rounds": [
            {"wall_s": d, "attempted": r.attempted, "failed": r.failed,
             "units": r.units, "clusters": r.clusters, "raw_s": r.raw_s,
             "scaled_s": r.scaled_s, "speed_p50": statistics.median(r.speeds or [1.0])}
            for d, r in rounds
        ],
    }))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for _, r in rounds),
        "failed": sum(r.failed for _, r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
