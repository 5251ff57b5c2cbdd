#!/usr/bin/env python3
"""Count the work of the theta walks of seeded norm-bounds sweeps, so that
two commits can be compared walk by walk.

A sweep computes the samples ``i:0..149`` and ``ii:0..149`` of
``CampaignConfig(suite="norm-bounds", samples=500, g=g, r=2, prec=96)`` at
one seed (``--seed``, default 56), one ``campaign.compute_sample`` call
each.  The script prints one block of counts for g = 2, the config of the
``norms-g2`` benchmark, then one for g = 1.  It counts, by wrapping
functions of ``theta`` for the run:

- walks: ``_row_sum`` calls;
- lines: runs of consecutive walked rows, one chain plan each;
- fresh anchors (rows whose start values are fresh exps), of them the
  re-anchors (fresh anchors off a line's centre row), the half-lines (the
  rows on one side of a line's centre) whose chain the error bound cut (a
  fresh anchor right after a walked row), chained rows, and skipped rows,
  of them the rows that miss the ellipsoid, from each chain plan;
- box terms, over every row of the lines, skipped ones included (a row of
  last index k holds k + 1 terms of the box), and the walked rows and
  their walked terms, the ones the ellipsoid keeps;
- ``mpc_expjpi`` calls (fresh exps) by call site: the walk's anchors, its
  outer ratios (the first O of a chain), its constants (one exp each per
  walk), the class weights (``_unit``) and the finisher's scale
  (``_complex``); and the values the walk forms as exact inverses
  (``_inverse``) in place of fresh exps, by the same sites;
- the fixed-point widths pf of the walks, one line per value of pf.

    python scripts/walk_counts.py              # counts, then per-walk means, per g
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
    """The call site of an ``mpc_expjpi`` or ``_inverse`` call whose caller
    is ``frame``."""
    if frame.f_code.co_name == "_expjpi":
        frame = frame.f_back
    name = frame.f_code.co_name
    if name == "_row_sum":
        line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
        return "walk outer ratio" if "outer" in line else "walk anchor"
    return {"outer": "walk outer ratio", "const": "walk constant", "_unit": "class weight",
            "_complex": "finisher scale"}.get(name, name)


def count(seed: int, g: int) -> tuple[Counter, Counter, Counter]:
    """(counts, fresh exps by call site, inverses by call site) over the
    sweep of genus ``g`` at ``seed``."""
    counts, exps, inverses = Counter(), Counter(), Counter()
    row_sum, plan, expjpi, inverse = theta._row_sum, theta._plan, theta.mpc_expjpi, theta._inverse

    def counted_row_sum(*args):
        counts["walks"] += 1
        return row_sum(*args)

    def counted_plan(*args):
        shape, out = plan(*args)
        counts[f"pf {out.pf}"] += 1
        for run, line, chain in zip(shape.runs, out.lines, out.chains):
            counts["lines"] += 1
            counts["box terms"] += sum(frame.last + 1 for frame in run)
            hows = {j: how for j, _, how, _, _ in chain}
            counts["half-lines cut by the bound"] += len({
                d for j, d, how, _, _ in chain if d and how == "anchor" and hows[j - d] != "skip"})
            for j, d, how, _, _ in chain:
                row = line[j]
                if how == "skip":
                    counts["skipped rows"] += 1
                    counts["rows missing the ellipsoid"] += row.lo > row.hi
                    continue
                counts["walked rows"] += 1
                counts["walked terms"] += row.hi - row.lo + 1
                if how == "chain":
                    counts["chained rows"] += 1
                else:
                    counts["fresh anchors"] += 1
                    counts["re-anchors"] += d != 0
        return shape, out

    def counted_expjpi(*args):
        exps[_site(sys._getframe(1))] += 1
        return expjpi(*args)

    def counted_inverse(*args):
        inverses[_site(sys._getframe(1))] += 1
        return inverse(*args)

    theta._row_sum, theta._plan = counted_row_sum, counted_plan
    theta.mpc_expjpi, theta._inverse = counted_expjpi, counted_inverse
    try:
        cfg = campaign.CampaignConfig(suite="norm-bounds", samples=500, seed=seed, g=g,
                                      r=2, prec=96)
        for k in range(SAMPLES):
            for sid in (f"i:{k}", f"ii:{k}"):
                counts["units"] += 1
                campaign.compute_sample(cfg, sid)
    finally:
        theta._row_sum, theta._plan = row_sum, plan
        theta.mpc_expjpi, theta._inverse = expjpi, inverse
    return counts, exps, inverses


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=56, help="campaign seed (default 56)")
    args = ap.parse_args()
    for g in (2, 1):
        if g == 1:
            print("\ng = 1, r = 2, the same samples")
        counts, exps, inverses = count(args.seed, g)
        walks = counts["walks"] or 1
        widths = sorted((k for k in counts if k.startswith("pf ")), key=lambda k: int(k[3:]))
        for key in ("units", "walks", "lines", "fresh anchors", "re-anchors",
                    "half-lines cut by the bound", "chained rows", "skipped rows",
                    "rows missing the ellipsoid", "walked rows", "box terms", "walked terms",
                    *widths):
            print(f"{key:<32}{counts[key]:>9}{counts[key] / walks:>10.2f} per walk")
        for name, table in (("mpc_expjpi", exps), ("inverse", inverses)):
            for site in sorted(table):
                print(f"{name + ' ' + site:<32}{table[site]:>9}"
                      f"{table[site] / walks:>10.2f} per walk")
            total = sum(table.values())
            print(f"{name + ' total':<32}{total:>9}{total / walks:>10.2f} per walk")
    return 0


if __name__ == "__main__":
    sys.exit(main())
