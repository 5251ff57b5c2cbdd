#!/usr/bin/env python3
"""Digest every output of a seeded sweep of Siegel reductions, so that two
commits can be compared reduction by reduction.

The sweep reduces the points ``sampling.substream(77, f"red:{g}:{k}")``:
g = 1 at prec 128 (3 000 points), g = 2 at prec 96 (3 000) and at prec 128
(1 000), and g = 3 at prec 96 (200).  Each reduction is one line

    g prec k digest

where digest is the first 16 hex digits of the sha256 of every field of
its result: the word, the exact (sign, man, exp, bc) of every reduced
entry, gamma, and of its certificate the det history and the action
residual (each mpf by its exact (sign, man, exp, bc) too), the iteration
count, ``converged`` and the S.2, S.3 (both bullets) and S.1 flags.  The
last line is the sha256 of all records together.

    python scripts/reduction_digest.py                   # lines, then the total
    python scripts/reduction_digest.py --out lines.txt   # lines to a file
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

from thetaheights import sampling, siegel  # noqa: E402

SWEEP = ((1, 128, 3000), (2, 96, 3000), (2, 128, 1000), (3, 96, 200))


def _key(x) -> tuple[int, ...]:
    return tuple(int(v) for v in x._mpf_)


def record(g: int, prec: int, k: int) -> str:
    """The exact outputs of the k-th reduction of the sweep at (g, prec)."""
    tau = sampling.random_siegel_point(sampling.substream(77, f"red:{g}:{k}"), g)
    res = siegel.reduce_heuristic(tau, prec=prec)
    cert, rep = res.certificate, res.certificate.report
    return repr((g, prec, k, cert.word,
                 [_key(x) for part in (res.reduced.re, res.reduced.im)
                  for row in part for x in row],
                 cert.iterations, cert.converged,
                 rep.s2_ok, rep.s3_quadform_ok, rep.s3_offdiag_ok, rep.s1_ok,
                 res.gamma, [_key(d) for d in cert.det_history],
                 _key(cert.action_residual)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write the per-reduction lines here")
    args = ap.parse_args()
    total = hashlib.sha256()
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for g, prec, count in SWEEP:
            for k in range(count):
                rec = record(g, prec, k).encode()
                total.update(rec + b"\n")
                out.write(f"{g} {prec} {k} {hashlib.sha256(rec).hexdigest()[:16]}\n")
    finally:
        if args.out:
            out.close()
    print(f"total {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
