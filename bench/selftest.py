#!/usr/bin/env python3
"""Determinism test of the benchmark itself.

Two traced passes over the same units at one seed must give identical
verdict digests and identical exact counts (theta box terms, theta
evaluations per curve, HNFs per delta), and every output check must pass.

    python3 bench/selftest.py
"""
from __future__ import annotations

import sys
from fractions import Fraction

import run

SEED = 7
UNITS = {"norms-g2": 6, "heights-corpus": 12, "lattice-delta": 2}


def exact_counts(tracer) -> dict:
    calls, _ = tracer.aggregate()
    return {
        "theta.box_terms": tracer.box_terms,
        "heights.theta_evals_per_curve": (
            Fraction(calls["theta.theta"], calls["heights.window_check"])
            if calls["heights.window_check"] else None),
        "lattices.hnf_per_delta": (
            Fraction(calls["lattices.hnf_columns"], calls["lattices.delta_exact"])
            if calls["lattices.delta_exact"] else None),
    }


def main() -> int:
    failures = []
    for name, units in UNITS.items():
        seen = []
        for _ in range(2):
            workloads, wl, _ = run._setup(name, SEED)
            log, tracer = run.traced_pass(workloads, wl, units)
            failures += [f"{name}: {p}" for p in log.problems]
            if log.failed:
                failures.append(f"{name}: {log.failed} items failed")
            seen.append((log.digest(), exact_counts(tracer)))
        (d1, c1), (d2, c2) = seen
        if d1 != d2:
            failures.append(f"{name}: digests differ ({d1[:12]} vs {d2[:12]})")
        if c1 != c2:
            failures.append(f"{name}: exact counts differ ({c1} vs {c2})")
        print(f"{name}: {units} units, digest {d1[:16]}, counts {c1}")
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
