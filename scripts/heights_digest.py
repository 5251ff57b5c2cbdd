#!/usr/bin/env python3
"""Digest every verdict of the g = 1 height checks on a fixed set of
curves, so that two commits can be compared curve by curve.

The set is the shipped corpus (16 curves) followed by 2 000 seeded curves
drawn here from ``random.Random(SEED)``: even k from the semistable family
y^2 + xy = x^3 + ((B - A - 1)/4) x^2 - (AB/16) x (A = -1 mod 4, 16 | B,
gcd(A, B) = 1, |A|, |B| log-uniform up to 10^4), odd k as
y^2 = (x - e1)(x - e2)(x - e3) with rational roots of log-uniform size up
to 10^6 over a few denominators.  Each curve gets ``window_check`` and
``matrix_lemma_check`` at prec 128 (relative heights allowed), and is one
line

    k label lambda window_lower window_upper bost_lower hf_lower matrix_lemma tau

where tau is the exact (sign, man, exp, bc) of Re and Im of the reduced
tau.  After the lines, ``verdicts`` is the sha256 of every line without
its tau (k, label, lambda and the five verdicts), which stays fixed when
only the last bits of tau move; the last line, ``total``, is the sha256
of all lines together.  With
``--values`` each line goes on with h_theta, h_F and the window, each as
its exact midpoint and error (hex mantissa, ``p``, binary exponent);
those fields are not part of the digest, so it stays comparable when only
the certified errors move.

    python scripts/heights_digest.py                      # lines, then the digests
    python scripts/heights_digest.py --values --out a.txt # lines with values to a file
"""
import argparse
import hashlib
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

# run from a source checkout: the package is imported from src/ next to
# this directory, ahead of any installed copy
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from thetaheights import heights  # noqa: E402

SEED = 30
SEEDED = 2000
PREC = 128


def _log_uniform(rng: random.Random, hi: int) -> int:
    return int(math.exp(rng.random() * math.log(hi)))


def _semistable(rng: random.Random, k: int) -> heights.EllipticCurveQ:
    while True:
        a = rng.choice((-1, 1)) * _log_uniform(rng, 10 ** 4)
        b = rng.choice((-1, 1)) * 16 * _log_uniform(rng, 10 ** 4 // 16)
        if a % 4 == 3 and math.gcd(a, b) == 1:
            return heights.EllipticCurveQ.from_coefficients(
                1, Fraction(b - a - 1, 4), 0, Fraction(-a * b, 16), 0,
                label=f"s{k}:A{a}B{b}")


def _split(rng: random.Random, k: int) -> heights.EllipticCurveQ:
    while True:
        den = rng.choice((1, 1, 2, 3, 16, 1000))
        es = {Fraction(rng.choice((-1, 1)) * _log_uniform(rng, 10 ** 6), den)
              for _ in range(3)}
        if len(es) == 3:
            e1, e2, e3 = es
            return heights.EllipticCurveQ.from_coefficients(
                0, -(e1 + e2 + e3), 0, e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3,
                label=f"r{k}")


def curves() -> list[heights.EllipticCurveQ]:
    rng = random.Random(SEED)
    return heights.load_corpus() + [(_split if k % 2 else _semistable)(rng, k)
                                    for k in range(SEEDED)]


def _bits(x) -> str:
    return ",".join(str(int(v)) for v in x._mpf_)


def _exact(x) -> str:
    sign, man, exp, _ = x._mpf_
    return f"{'-' if sign else ''}{int(man):#x}p{exp}"


def record(k: int, curve: heights.EllipticCurveQ, values: bool) -> tuple[str, str, str]:
    """(the verdict fields of curve k, its tau fields, the value fields or
    ''); the first two make its digested line."""
    rep = heights.window_check(curve, PREC, allow_relative=True)
    lemma = heights.matrix_lemma_check(curve, PREC)
    tau = rep.tau_reduced
    verdicts = " ".join([str(k), curve.label, str(rep.lam),
                         *(v.verdict for v in rep.verdicts.values()), lemma.verdict])
    extra = ""
    if values:
        extra = " ".join(f"{_exact(x.value)} {_exact(x.err)}"
                         for x in (rep.h_theta, rep.h_faltings, rep.window_value))
    return verdicts, f"{_bits(tau.re[0][0])} {_bits(tau.im[0][0])}", extra


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write the per-curve lines here")
    ap.add_argument("--values", action="store_true",
                    help="append h_theta, h_F and the window to each line")
    args = ap.parse_args()
    verdicts, total = hashlib.sha256(), hashlib.sha256()
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for k, curve in enumerate(curves()):
            head, tau, extra = record(k, curve, args.values)
            line = f"{head} {tau}"
            verdicts.update(head.encode() + b"\n")
            total.update(line.encode() + b"\n")
            out.write(f"{line} {extra}\n" if extra else line + "\n")
    finally:
        if args.out:
            out.close()
    print(f"verdicts {verdicts.hexdigest()[:16]}")
    print(f"total {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
