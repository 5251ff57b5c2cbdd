#!/usr/bin/env python3
"""Benchmark for thetaheights: one workload at one seed, checked outputs.

    python3 bench/run.py --workload norms-g2 --seed 1 --seconds 30 --trace 0

Run from a source checkout; the package is imported from ``src/`` next to
this directory and never from an installed copy.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it runs half the length
untraced, replays exactly the same units with every traced function wrapped,
and reports the per-layer metrics (spans go to ``.bench_work/``).  The last
stdout line is the result object; the line before it carries the
environment, configuration, verdict digest and every metric with its unit.
Exit status: 0 when every output checks out, 1 when a check or an item
failed, 2 when the run could not start.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from clock import KERNEL_S, MachineClock, kernel_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# set-ups per run: this process plus fresh interpreters; setup_s is the
# median of their scaled times
SETUP_RUNS = 21
# kernel runs in each sample taken between set-ups
KERNEL_RUNS = 4


def _setup(workload: str, seed: int):
    """Import the package and generate the workload's inputs; returns the
    raw seconds this took."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workloads = importlib.import_module("workloads")
    mod_file = Path(workloads.thetaheights.__file__).resolve()
    if SRC not in mod_file.parents:
        raise ImportError(f"thetaheights imported from {mod_file}, not {SRC}")
    wl = workloads.WORKLOADS[workload]()
    wl.prepare(seed)
    return workloads, wl, time.perf_counter() - t0


def _setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def setups(workload: str, seed: int):
    """Set up here, then ``SETUP_RUNS`` - 1 times in fresh interpreters,
    with a kernel sample (see clock.py) before and after each set-up."""
    kernel = [kernel_times(KERNEL_RUNS)]
    workloads, wl, raw = _setup(workload, seed)
    raws = [raw]
    kernel.append(kernel_times(KERNEL_RUNS))
    for _ in range(SETUP_RUNS - 1):
        raws.append(_setup_in_fresh_interpreter(workload, seed))
        kernel.append(kernel_times(KERNEL_RUNS))
    return workloads, wl, raws, kernel


def run_pass(wl, log, seconds: float | None = None, units: int | None = None):
    """Run units until ``seconds`` would be overrun (stopping when half a
    mean unit or less remains), or exactly ``units`` units."""
    log.clock = MachineClock()
    t0 = time.perf_counter()
    j = 0
    while True:
        if units is not None:
            if j >= units:
                break
        elif j > 0:
            elapsed = time.perf_counter() - t0
            if elapsed + 0.5 * elapsed / j >= seconds:
                break
        wl.run_unit(j, log)
        j += 1
    log.raw_wall = log.clock.raw_elapsed()
    log.rescale()
    return log


def traced_pass(workloads, wl, units: int):
    tracer = spans.Tracer()
    log = workloads.Log()
    log.tracer = tracer
    tracer.install(workloads.MODULES)
    try:
        run_pass(wl, log, units=units)
    finally:
        tracer.uninstall()
    return log, tracer


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _environment(args, wl) -> dict:
    import mpmath
    import mpmath.libmp
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "git_commit": _git_commit(),
            "workload": args.workload, "config": wl.config()}


def end_to_end(log, setup_s: float) -> dict:
    ms = [s * 1e3 for s in log.local_seconds]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (log.report_items / log.wall, "1/s"),
        "item_ms.p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "determinate_share": (1 - log.indeterminate / max(log.rows, 1), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("norms-g2", "heights-corpus", "lattice-delta"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this interpreter and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "thetaheights" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    if args.setup_only:
        print(json.dumps({"setup_s": _setup(args.workload, args.seed)[2]}))
        return 0
    workloads, wl, setup_raw, setup_kernel = setups(args.workload, args.seed)

    log = run_pass(wl, workloads.Log(), seconds=args.seconds / (1 + args.trace))
    # each set-up is scaled by the mean of the kernel samples around it
    setup_s = statistics.median(
        raw * KERNEL_S / statistics.fmean(setup_kernel[i] + setup_kernel[i + 1])
        for i, raw in enumerate(setup_raw))
    logs = [log]
    if args.trace:
        traced, tracer = traced_pass(workloads, wl, log.units)
        logs.append(traced)
        if traced.digest() != log.digest():
            traced.problems.append("the traced pass changed the verdicts")
        ii_useful = traced.ii_accepted / traced.ii_computed if traced.ii_computed else 0.0
        metrics = spans.per_layer(tracer, len(traced.seconds), traced.wall,
                                  traced.scale, sum(traced.seconds), log.wall,
                                  ii_useful)
        tracer.write(ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = end_to_end(log, setup_s)

    problems = [p for lg in logs for p in lg.problems]
    attempted = sum(len(lg.seconds) for lg in logs)
    failed = sum(lg.failed for lg in logs)
    correct = not problems and failed == 0

    for p in problems[:20]:
        print("check failed:", p, file=sys.stderr)
    report = {"env": _environment(args, wl),
              "setup": {"raw_s": setup_raw,
                        "kernel_ms": [[k * 1e3 for k in ks] for ks in setup_kernel]},
              "wall_s": {"scaled": log.wall, "raw": log.raw_wall},
              "machine_scale": log.scale,
              "kernel_ms": {"n": len(log.clock.kernel),
                            "min": min(log.clock.kernel) * 1e3,
                            "mean": statistics.fmean(log.clock.kernel) * 1e3,
                            "max": max(log.clock.kernel) * 1e3},
              "item_ms.p50": statistics.median(log.local_seconds) * 1e3,
              "units": log.units, "items": len(log.seconds),
              "report_items": log.report_items, "rows": log.rows,
              "digest": log.digest(), "problems": len(problems),
              "corpus_rejected": getattr(wl, "rejected", None),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
