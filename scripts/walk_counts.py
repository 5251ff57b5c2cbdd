#!/usr/bin/env python3
"""Count the work of the theta walks of a seeded norm-bounds sweep, so that
two commits can be compared walk by walk.

The sweep computes the samples ``i:0..149`` and ``ii:0..149`` of
``CampaignConfig(suite="norm-bounds", samples=500, g=2, r=2, prec=96)`` at
one seed (``--seed``, default 56), the config of the ``norms-g2``
benchmark, one ``campaign.compute_sample`` call each.  It counts, by
wrapping functions of ``theta`` for the run:

- walks: ``_row_sum`` calls;
- lines: ``_chain_plan`` calls, one per run of consecutive walked rows;
- fresh anchors (rows whose start values are fresh exps), of them the
  re-anchors (fresh anchors off a line's centre row), chained rows, and
  skipped rows, from each chain plan;
- walked rows and terms (a walked row of last index k has k + 1 terms);
- ``mpc_expjpi`` calls by call site: the walk's anchors, its outer ratios
  (the first O of a chain), its constants (one exp each per walk), the
  class weights (``_unit``) and the finisher's scale (``_complex``).

    python scripts/walk_counts.py              # counts, then per-walk means
    python scripts/walk_counts.py --seed 7
"""
import argparse
import linecache
import sys
from collections import Counter
from pathlib import Path

# run from a source checkout: the package is imported from src/ next to
# this directory, ahead of any installed copy
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from thetaheights import campaign, theta  # noqa: E402

SAMPLES = 150


def _site(frame) -> str:
    """The call site of an ``mpc_expjpi`` call whose caller is ``frame``."""
    if frame.f_code.co_name == "_expjpi":
        frame = frame.f_back
    name = frame.f_code.co_name
    if name == "_row_sum":
        line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
        return "walk outer ratio" if "_outer" in line else "walk anchor"
    return {"const": "walk constant", "_const": "walk constant", "_unit": "class weight",
            "_complex": "finisher scale"}.get(name, name)


def count(seed: int) -> tuple[Counter, Counter]:
    """(counts, exps by call site) over the sweep at ``seed``."""
    counts, exps = Counter(), Counter()
    row_sum, chain_plan, expjpi = theta._row_sum, theta._chain_plan, theta.mpc_expjpi

    def counted_row_sum(*args):
        counts["walks"] += 1
        return row_sum(*args)

    def counted_chain_plan(line, plan):
        out = chain_plan(line, plan)
        counts["lines"] += 1
        for j, d, how, _ in out:
            if how == "skip":
                counts["skipped rows"] += 1
                continue
            counts["walked rows"] += 1
            counts["walked terms"] += line[j].last + 1
            if how == "chain":
                counts["chained rows"] += 1
            else:
                counts["fresh anchors"] += 1
                counts["re-anchors"] += d != 0
        return out

    def counted_expjpi(*args):
        exps[_site(sys._getframe(1))] += 1
        return expjpi(*args)

    theta._row_sum, theta._chain_plan = counted_row_sum, counted_chain_plan
    theta.mpc_expjpi = counted_expjpi
    try:
        cfg = campaign.CampaignConfig(suite="norm-bounds", samples=500, seed=seed, g=2,
                                      r=2, prec=96)
        for k in range(SAMPLES):
            for sid in (f"i:{k}", f"ii:{k}"):
                counts["units"] += 1
                campaign.compute_sample(cfg, sid)
    finally:
        theta._row_sum, theta._chain_plan, theta.mpc_expjpi = row_sum, chain_plan, expjpi
    return counts, exps


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=56, help="campaign seed (default 56)")
    args = ap.parse_args()
    counts, exps = count(args.seed)
    walks = counts["walks"] or 1
    for key in ("units", "walks", "lines", "fresh anchors", "re-anchors", "chained rows",
                "skipped rows", "walked rows", "walked terms"):
        print(f"{key:<28}{counts[key]:>9}{counts[key] / walks:>10.2f} per walk")
    for site in sorted(exps):
        print(f"{'mpc_expjpi ' + site:<28}{exps[site]:>9}{exps[site] / walks:>10.2f} per walk")
    total = sum(exps.values())
    print(f"{'mpc_expjpi total':<28}{total:>9}{total / walks:>10.2f} per walk")
    return 0


if __name__ == "__main__":
    sys.exit(main())
