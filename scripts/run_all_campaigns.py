#!/usr/bin/env python3
"""Run every verification campaign at its full advertised scale and write the
reports (CSV and JSON) under out/.

Exit code 0 iff no suite produced a fail row.
"""
import argparse
import sys
from pathlib import Path

# run from a source checkout: the package is imported from src/ next to
# this directory, ahead of any installed copy
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from thetaheights.campaign import CampaignConfig, run_campaign  # noqa: E402

DEFAULT_RUNS = [
    dict(suite="norm-bounds", samples=500, g=1, r=2),
    dict(suite="norm-bounds", samples=500, g=2, r=2),
    dict(suite="duplication", samples=50, g=1, steps=6),
    dict(suite="duplication", samples=20, g=2, steps=4),
    dict(suite="window", samples=16),
    dict(suite="matrix-lemma", samples=16),
    dict(suite="delta-metric", samples=10_000, n_max=4),
    dict(suite="lemmas", samples=100_000),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--prec", type=int, default=96)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    total_fail = 0
    for spec in DEFAULT_RUNS:
        cfg = CampaignConfig(seed=args.seed, prec=args.prec, **spec)
        rep = run_campaign(cfg, workers=args.workers)
        stem = f"{cfg.suite}-g{cfg.g}-r{cfg.r}-s{cfg.samples}-seed{cfg.seed}"
        (out / f"{stem}.csv").write_text(rep.to_csv())
        (out / f"{stem}.json").write_text(rep.to_json())
        s = rep.summary
        print(f"{cfg.suite:14s} g={cfg.g} samples={cfg.samples:6d} "
              f"rows={s['rows']:7d} pass={s['pass']:7d} fail={s['fail']} "
              f"indeterminate={s['indeterminate']} wall={rep.wall_time:8.1f}s")
        total_fail += s["fail"]
    print(f"total fail rows: {total_fail}")
    return 0 if total_fail == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
