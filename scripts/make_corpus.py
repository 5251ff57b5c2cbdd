#!/usr/bin/env python3
"""Regenerate the test corpus of elliptic curves (src/thetaheights/data/curves.csv).

Selection criteria, all verified in exact integer arithmetic:

  * full rational 2-torsion: the depressed cubic X^3 - 27 c4 X - 54 c6
    splits over Z;
  * gcd(c4, disc) = 1.  For an integral model this certifies both claims we
    assert downstream: a non-minimal model at p would have v_p(c4) >= 4, so
    p | disc and p coprime to c4 force minimality at p, and a minimal model
    with p | disc, p coprime to c4 has multiplicative reduction at p.  Hence
    the model is globally minimal and the curve is semistable.

The output keeps the dozen smallest discriminants plus a few extreme-lambda
curves that stress the large-Im-tau regime of the reduction and theta code.
Deterministic; no randomness.
"""
import argparse
import csv
import math
import sys
from fractions import Fraction
from pathlib import Path

# run from a source checkout: the package is imported from src/ next to
# this directory, ahead of any installed copy
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from thetaheights.heights import _depressed_roots  # noqa: E402


def invariants(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    return c4, c6, (c4 ** 3 - c6 ** 2) // 1728


def split_roots(c4, c6):
    """Integer roots of X^3 - 27 c4 X - 54 c6, largest first, or None if it
    does not split: the package's exact rule (integer bisection and isqrt)."""
    try:
        return [int(r) for r in _depressed_roots(Fraction(c4), Fraction(c6))]
    except ValueError:
        return None


def search(a4_range=120, a6_range=400):
    found = {}
    for a1 in (0, 1):
        for a2 in (-1, 0, 1):
            for a3 in (0, 1):
                for a4 in range(-a4_range, a4_range + 1):
                    for a6 in range(-a6_range, a6_range + 1):
                        c4, c6, disc = invariants(a1, a2, a3, a4, a6)
                        if disc == 0 or math.gcd(abs(c4), abs(disc)) != 1:
                            continue
                        if (c4, c6) in found:
                            continue
                        roots = split_roots(c4, c6)
                        if roots is None:
                            continue
                        found[(c4, c6)] = ((a1, a2, a3, a4, a6), disc, roots)
    return found


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "src/thetaheights/data/curves.csv"))
    ap.add_argument("--main-count", type=int, default=12)
    ap.add_argument("--stress-count", type=int, default=4)
    args = ap.parse_args()

    found = search()
    print(f"{len(found)} admissible curves found", file=sys.stderr)

    def lam(entry):
        e1, e2, e3 = entry[2]
        return Fraction(e2 - e3, e1 - e3)

    by_disc = sorted(found.values(), key=lambda v: (abs(v[1]), v[0]))
    main_rows = by_disc[:args.main_count]
    by_extreme = sorted(found.values(),
                        key=lambda v: (min(lam(v), 1 - lam(v)), v[0]))
    stress_rows = []
    for entry in by_extreme:
        if entry not in main_rows:
            stress_rows.append(entry)
        if len(stress_rows) == args.stress_count:
            break

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "a1", "a2", "a3", "a4", "a6", "minimal", "semistable"])
        for kind, rows in (("main", main_rows), ("stress", stress_rows)):
            for n, ((a1, a2, a3, a4, a6), disc, roots) in enumerate(rows):
                w.writerow([f"{kind}-{n}-disc{disc}", a1, a2, a3, a4, a6,
                            "true", "true"])
    print(f"wrote {len(main_rows) + len(stress_rows)} curves to {out}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
