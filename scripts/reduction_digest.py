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
count, ``converged`` and the S.2, S.3 (both bullets) and S.1 flags.  After
the lines comes one ``counts`` line: per g, the calls over the sweep of
``siegel._denominator_det`` (one per S.1 determinant),
``SymplecticMatrix.is_symplectic`` (one per checked matrix) and
``siegel.act``, counted by wrapping them here.  The last line is the sha256
of all records together.

    python scripts/reduction_digest.py                   # lines, counts, then the total
    python scripts/reduction_digest.py --out lines.txt   # lines to a file
"""
import argparse
import hashlib
import sys
from collections import Counter
from pathlib import Path

# run from a source checkout: the package is imported from src/ next to
# this directory, ahead of any installed copy
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from thetaheights import sampling, siegel  # noqa: E402

SWEEP = ((1, 128, 3000), (2, 96, 3000), (2, 128, 1000), (3, 96, 200))

# the counted functions, as (owner, name)
COUNTED = ((siegel, "_denominator_det"), (siegel.SymplecticMatrix, "is_symplectic"),
           (siegel, "act"))


def count_calls(calls: Counter) -> None:
    """Wrap each function of ``COUNTED`` so that a call adds one to
    calls[name]; the results are unchanged."""
    def counted(real, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper
    for owner, name in COUNTED:
        setattr(owner, name, counted(getattr(owner, name), name))


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
    calls: Counter = Counter()
    count_calls(calls)
    per_g: dict[int, Counter] = {}
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for g, prec, count in SWEEP:
            before = calls.copy()
            for k in range(count):
                rec = record(g, prec, k).encode()
                total.update(rec + b"\n")
                out.write(f"{g} {prec} {k} {hashlib.sha256(rec).hexdigest()[:16]}\n")
            per_g.setdefault(g, Counter()).update(calls - before)
    finally:
        if args.out:
            out.close()
    print("counts " + "; ".join(
        f"g={g} " + " ".join(f"{name}={c[name]}" for _, name in COUNTED)
        for g, c in per_g.items()))
    print(f"total {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
