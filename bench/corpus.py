"""Seeded elliptic-curve corpus for the heights-corpus workload.

The family is y^2 + xy = x^3 + ((B - A - 1)/4) x^2 - (AB/16) x with
A = -1 (mod 4), 16 | B and gcd(A, B) = 1.  Completing the square gives
(y + x/2)^2 = x (x - A/4) (x + B/4), so the 2-torsion is rational, and
c4 = A^2 - AB + B^2 is prime to disc = (AB(A - B))^2 / 256, which is the
gcd(c4, disc) = 1 certificate of scripts/make_corpus.py: the integral model
is minimal and the curve semistable.  Neither fact is trusted: each curve is
re-verified exactly before its claims are asserted, and rejected otherwise.
"""
from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

from thetaheights import heights

MAX_ABS = 10_000


def _log_uniform(rng: random.Random, hi: int) -> int:
    return int(math.exp(rng.random() * math.log(hi)))


def _draw_ab(rng: random.Random) -> tuple[int, int]:
    while True:
        a = rng.choice((-1, 1)) * _log_uniform(rng, MAX_ABS)
        b = rng.choice((-1, 1)) * 16 * _log_uniform(rng, MAX_ABS // 16)
        if a % 4 == 3 and math.gcd(a, b) == 1:
            return a, b


def cross_ratios(a: int, b: int) -> frozenset[Fraction]:
    """The six cross-ratios of the x-coordinates 0, A/4, -B/4 of the
    2-torsion; the curve's lambda invariant must be one of them."""
    e = (Fraction(0), Fraction(a, 4), Fraction(-b, 4))
    return frozenset((e[i] - e[k]) / (e[j] - e[k])
                     for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 0, 2),
                                     (1, 2, 0), (2, 0, 1), (2, 1, 0)))


def verified_curve(a: int, b: int):
    """The family member for (A, B) with minimal/semistable claims asserted,
    or None if an exact check fails."""
    try:
        curve = heights.EllipticCurveQ.from_coefficients(
            1, Fraction(b - a - 1, 4), 0, Fraction(-a * b, 16), 0,
            label=f"A{a}B{b}")
    except ValueError:          # 2-torsion not fully rational, or singular
        return None
    coeffs = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
    if any(c.denominator != 1 for c in coeffs):
        return None
    c4, disc = curve.c4, curve.disc
    if disc == 0 or math.gcd(int(c4), int(disc)) != 1:
        return None
    return dataclasses.replace(curve, claims=heights.Claims(True, True))


class Stream:
    """The seed's corpus: entry j is the j-th distinct (A, B) of a seeded
    draw whose curve passed the exact checks, so it depends only on
    (seed, j) and no curve comes twice.  Only the pairs are kept; a curve
    is rebuilt (and re-verified) when it is asked for, so what the stream
    holds grows by two small ints per curve."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"heights-corpus:{seed}")
        self._seen: set[tuple[int, int]] = set()
        self.pairs: list[tuple[int, int]] = []
        self.rejected = 0

    def _draw(self):
        while True:
            ab = _draw_ab(self._rng)
            if ab in self._seen:
                continue
            self._seen.add(ab)
            curve = verified_curve(*ab)
            if curve is None:
                self.rejected += 1
                continue
            self.pairs.append(ab)
            return curve

    def extend_to(self, n: int) -> None:
        while len(self.pairs) < n:
            self._draw()

    def get(self, j: int):
        """(A, B) and the verified curve of entry j."""
        self.extend_to(j)
        curve = (self._draw() if j == len(self.pairs)
                 else verified_curve(*self.pairs[j]))
        return self.pairs[j], curve
