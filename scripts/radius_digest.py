#!/usr/bin/env python3
"""Digest every radius of a seeded sweep of radius searches, so that two
commits can be compared search by search.

The sweep takes the points of acceptance criterion 2,
``sampling.substream(2002, f"cert:{g}:{k}")`` for g = 1 and g = 2 (167
each): a point tau, a random z, then one random characteristic of level 2,
4 and 6.  Each characteristic is searched at z = 0 and at that z, at prec
8, 96 and 200, and with the default tol, 2^-1200 (a target below the
double range) and 2^16: 18 036 searches.  Each point is one line

    g k digest

where digest is the first 16 hex digits of the sha256 of its 54 radii (or
the name of the error a search raised), in sweep order.  The last line is
the sha256 of all records together.

    python scripts/radius_digest.py                   # lines, then the total
    python scripts/radius_digest.py --out lines.txt   # lines to a file
"""
import argparse
import hashlib
import sys
from pathlib import Path

# run from a source checkout: the package is imported from src/ next to
# this directory, ahead of any installed copy
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from mpmath import mpf  # noqa: E402

from thetaheights import sampling, theta  # noqa: E402

POINTS = 167
LEVELS = (2, 4, 6)
PRECS = (8, 96, 200)
TOLS = (None, mpf(2) ** -1200, mpf(2) ** 16)


def _radius(tau, z, char, prec: int, tol):
    try:
        return theta.choose_radius(tau, z, char, prec, tol)
    except ArithmeticError as e:
        return type(e).__name__


def record(g: int, k: int) -> str:
    """The radii of the k-th point of the sweep at g."""
    rng = sampling.substream(2002, f"cert:{g}:{k}")
    tau = sampling.random_siegel_point(rng, g)
    z = sampling.random_z(rng, tau)
    chars = [sampling.random_char(rng, g, r) for r in LEVELS]
    return repr((g, k, [_radius(tau, w, char, prec, tol)
                        for char in chars for w in (None, z)
                        for prec in PRECS for tol in TOLS]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write the per-point lines here")
    args = ap.parse_args()
    total = hashlib.sha256()
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for g in (1, 2):
            for k in range(POINTS):
                rec = record(g, k).encode()
                total.update(rec + b"\n")
                out.write(f"{g} {k} {hashlib.sha256(rec).hexdigest()[:16]}\n")
    finally:
        if args.out:
            out.close()
    print(f"total {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
