"""Certified values: a number together with a proven absolute error bound.

A ``CertifiedReal`` is a ball: a midpoint v, kept as the raw libmp tuple
(sign, man, exp, bc) of an mpf, and a radius r >= 0, a raw libmp
magnitude.  This is Arb's midpoint-radius arithmetic (F. Johansson, IEEE
Trans. Comput. 66 (2017); J. van der Hoeven, "Ball arithmetic" (2010)).
The constructor keeps the caller's radius exactly; every radius an
operation forms is rounded upward to ``RADIUS_BITS`` bits.  Each operation
has one rule, with p = mp.prec:

* ``+ - * /``: v is libmp's correctly rounded result at p bits, and its
  rounding costs one ulp of the result, 2^(exp + bc - p), in the radius.
  The radius of a + b and of a - b is r_a + r_b, that of a b is
  |a| r_b + |b| r_a + r_a r_b, a product with a factor 0 being 0 even
  when the other is an infinite radius, and that of a / b is
  (r_a + |a/b| r_b) / (|b| - r_b), with |b| - r_b rounded down and
  ``PrecisionError`` when it is <= 0.
* ``sqrt``: one root at p bits.  The radius is r / (sqrt(lo) + sqrt(v)),
  both roots at 30 bits rounded down, or sqrt(hi) when lo <= 0, plus one
  ulp.
* ``log`` and ``exp``: r / lo and exp(hi) r, each factor bounded upward
  (exp(hi) at 30 bits, with the allowance below), plus the allowance of
  the assumption below for v.
* ``abs``, negation and ``ldexp(k)`` (v and r both shifted by k bits, so
  times 2^k with no ulp; an infinite radius stays infinite) are exact;
  ``exact`` keeps every bit of its argument; ``rounded(x, ulps)`` allows
  (|v| + 1) 2^(bits(ulps) + 1 - p).
  ``CertifiedComplex.abs`` rounds the modulus once and adds one ulp.
* ``lo`` rounds down and ``hi`` up, at p bits.  ``certified_le`` forms its
  margin rhs.lo - lhs.hi rounded down, so a ``pass`` is certified.

The one assumption on mpmath: ``mpf_log`` and ``mpf_exp`` are not
exact-then-round.  We assume that their result v at q bits lies within
(|v| + 1) 2^(4 - q) of log x and within |v| 2^(4 - q) of exp x, at every q.

Verdicts derived from certified values are three-valued: ``pass`` / ``fail``
/ ``indeterminate``.  An indeterminate never silently becomes a pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, mpc, nstr
from mpmath.libmp import (MPZ_ONE, fnan, fone, from_float, from_int,
                          from_man_exp, fzero, mpf_abs, mpf_add, mpf_div,
                          mpf_exp, mpf_ge, mpf_gt, mpf_log, mpf_mul, mpf_neg,
                          mpf_pos, mpf_shift, mpf_sign, mpf_sqrt, mpf_sub,
                          round_ceiling, round_floor, round_nearest)

from .exactla import as_mpf

# The precision policy: every public entry point defaults to DEFAULT_PREC
# bits, and theta, heights and the constants work at prec + GUARD_BITS
# internally.
DEFAULT_PREC = 128
GUARD_BITS = 64

# the bits of a radius
RADIUS_BITS = 30

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


class PrecisionError(ArithmeticError):
    """The certified error bound is too large for the requested operation."""


def _raw(x) -> tuple:
    """The raw libmp value of x with every bit kept: an mpf, an int, a
    float or a Fraction whose denominator is a power of 2."""
    if isinstance(x, mpf):
        return x._mpf_
    if isinstance(x, int):
        return from_int(x)
    if isinstance(x, float):
        return from_float(x)
    if isinstance(x, Fraction) and not x.denominator & (x.denominator - 1):
        return from_man_exp(x.numerator, 1 - x.denominator.bit_length())
    raise ValueError(f"{x!r} is not an exact binary number")


def _finite(v: tuple) -> tuple:
    if not v[1] and v != fzero:
        raise ValueError("a certified value must be finite")
    return v


def _radius(err) -> tuple:
    """err as a radius, every bit kept; +inf is allowed."""
    r = _raw(err)
    if not mpf_ge(r, fzero):
        raise ValueError("error bound must be nonnegative")
    return r


def _up(s: tuple, t: tuple) -> tuple:
    return mpf_add(s, t, RADIUS_BITS, round_ceiling)


def _mul_up(s: tuple, t: tuple) -> tuple:
    """s t rounded up, and 0 when either is 0: an exact factor adds no
    error even against an infinite radius (Arb's 0 inf = 0)."""
    if s == fzero or t == fzero:
        return fzero
    return mpf_mul(s, t, RADIUS_BITS, round_ceiling)


def _ulp(v: tuple, p: int) -> tuple:
    """One ulp of a nonzero p-bit v, 0 for v = 0 (which rounds exactly)."""
    return (0, MPZ_ONE, v[2] + v[3] - p, 1) if v[1] else fzero


def _ball(v: tuple, r: tuple) -> "CertifiedReal":
    x = object.__new__(CertifiedReal)
    x._v = v
    x._r = r
    return x


class CertifiedReal:
    """The ball with midpoint ``value`` and radius ``err`` (mpf views of the
    raw parts); the rules are in the module docstring."""
    __slots__ = ("_v", "_r")

    def __init__(self, value, err):
        self._v = _finite(_raw(value))
        self._r = _radius(err)

    @property
    def value(self) -> mpf:
        return mp.make_mpf(self._v)

    @property
    def err(self) -> mpf:
        return mp.make_mpf(self._r)

    @property
    def lo(self) -> mpf:
        return mp.make_mpf(mpf_sub(self._v, self._r, mp.prec, round_floor))

    @property
    def hi(self) -> mpf:
        return mp.make_mpf(mpf_add(self._v, self._r, mp.prec, round_ceiling))

    def __repr__(self) -> str:
        return f"CertifiedReal({nstr(self.value, 20)}, {nstr(self.err, 6)})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._v == other._v and self._r == other._r

    def __hash__(self) -> int:
        return hash((self._v, self._r))

    @classmethod
    def exact(cls, x) -> "CertifiedReal":
        """x with radius 0; ValueError unless ``_raw`` keeps x exactly."""
        return _ball(_finite(_raw(x)), fzero)

    @classmethod
    def rounded(cls, x, ulps: int = 8) -> "CertifiedReal":
        """A freshly computed value whose only error is final rounding: x
        (an mpf, a number, a string or a Fraction) rounded to p bits."""
        p = mp.prec
        v = _finite(as_mpf(x)._mpf_)
        r = mpf_add(mpf_abs(v), fone, RADIUS_BITS, round_ceiling)
        return _ball(v, mpf_shift(r, ulps.bit_length() + 1 - p))

    def __add__(self, other) -> "CertifiedReal":
        other = _as_real(other)
        p = mp.prec
        v = mpf_add(self._v, other._v, p, round_nearest)
        return _ball(v, _up(_up(self._r, other._r), _ulp(v, p)))

    __radd__ = __add__

    def __neg__(self) -> "CertifiedReal":
        return _ball(mpf_neg(self._v), self._r)

    def __sub__(self, other) -> "CertifiedReal":
        other = _as_real(other)
        p = mp.prec
        v = mpf_sub(self._v, other._v, p, round_nearest)
        return _ball(v, _up(_up(self._r, other._r), _ulp(v, p)))

    def __rsub__(self, other) -> "CertifiedReal":
        return _as_real(other) - self

    def __mul__(self, other) -> "CertifiedReal":
        other = _as_real(other)
        p = mp.prec
        a, ra, b, rb = self._v, self._r, other._v, other._r
        v = mpf_mul(a, b, p, round_nearest)
        r = _up(_mul_up(mpf_abs(a), rb), _mul_up(mpf_abs(b), ra))
        return _ball(v, _up(_up(r, _mul_up(ra, rb)), _ulp(v, p)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CertifiedReal":
        other = _as_real(other)
        p = mp.prec
        a, ra, b, rb = self._v, self._r, other._v, other._r
        den = mpf_sub(mpf_abs(b), rb, RADIUS_BITS, round_floor)
        if mpf_sign(den) <= 0:
            raise PrecisionError("division by an interval containing zero")
        v = mpf_div(a, b, p, round_nearest)
        q = mpf_div(mpf_abs(a), mpf_abs(b), RADIUS_BITS, round_ceiling)
        r = mpf_div(_up(ra, _mul_up(q, rb)), den, RADIUS_BITS, round_ceiling)
        return _ball(v, _up(r, _ulp(v, p)))

    def abs(self) -> "CertifiedReal":
        return _ball(mpf_abs(self._v), self._r)

    def ldexp(self, k: int) -> "CertifiedReal":
        return _ball(mpf_shift(self._v, k), mpf_shift(self._r, k))

    def log(self) -> "CertifiedReal":
        x, r = self._v, self._r
        lo = mpf_sub(x, r, RADIUS_BITS, round_floor)
        if mpf_sign(lo) <= 0:
            raise PrecisionError("log of an interval touching zero")
        p = mp.prec
        v = mpf_log(x, p, round_nearest)
        allowance = mpf_shift(_up(mpf_abs(v), fone), 4 - p)
        return _ball(v, _up(mpf_div(r, lo, RADIUS_BITS, round_ceiling), allowance))

    def exp(self) -> "CertifiedReal":
        x, r = self._v, self._r
        p = mp.prec
        v = mpf_exp(x, p, round_nearest)
        e = mpf_pos(mpf_shift(v, 4 - p), RADIUS_BITS, round_ceiling)
        if r != fzero:
            # exp(hi) bounded upward at RADIUS_BITS, its allowance included
            top = mpf_exp(_up(x, r), RADIUS_BITS, round_ceiling)
            e = _up(e, _mul_up(_up(top, mpf_shift(top, 4 - RADIUS_BITS)), r))
        return _ball(v, e)

    def sqrt(self) -> "CertifiedReal":
        x, r = self._v, self._r
        hi = _up(x, r)
        if mpf_sign(hi) < 0:
            raise PrecisionError("sqrt of a negative interval")
        p = mp.prec
        v = mpf_sqrt(x, p, round_nearest) if mpf_sign(x) > 0 else fzero
        lo = mpf_sub(x, r, RADIUS_BITS, round_floor)
        if mpf_sign(lo) > 0:
            roots = mpf_add(mpf_sqrt(lo, RADIUS_BITS, round_floor),
                            mpf_sqrt(x, RADIUS_BITS, round_floor),
                            RADIUS_BITS, round_floor)
            e = mpf_div(r, roots, RADIUS_BITS, round_ceiling)
        else:
            e = mpf_sqrt(hi, RADIUS_BITS, round_ceiling)
        return _ball(v, _up(e, _ulp(v, p)))


def _as_real(x) -> CertifiedReal:
    if isinstance(x, CertifiedReal):
        return x
    return CertifiedReal.exact(x)


class CertifiedComplex:
    """A complex ``value`` (mpc) within ``err`` of the true one; the radius
    is kept as for ``CertifiedReal``."""
    __slots__ = ("value", "_r")

    def __init__(self, value: mpc, err):
        self.value = value
        self._r = _radius(err)

    @property
    def err(self) -> mpf:
        return mp.make_mpf(self._r)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value and self._r == other._r

    def __hash__(self) -> int:
        return hash((self.value, self._r))

    def abs(self) -> CertifiedReal:
        """|value| as the correctly rounded root of the exact sum of the
        squares, plus one ulp of the modulus."""
        re, im = self.value._mpc_
        p = mp.prec
        v = mpf_sqrt(mpf_add(mpf_mul(re, re), mpf_mul(im, im)), p, round_nearest)
        return _ball(v, _up(self._r, _ulp(v, p)))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a certified comparison lhs <= rhs."""
    lhs: mpf
    rhs: mpf
    margin: mpf
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict == PASS


def certified_le(lhs: CertifiedReal, rhs: CertifiedReal) -> Verdict:
    """Three-valued check of lhs <= rhs with certified margin.

    Passes only when the whole lhs interval sits below the whole rhs
    interval; fails only when it sits strictly above; otherwise the certified
    error is too large to decide.  The margin is rhs.lo - lhs.hi with
    rhs.lo rounded down, lhs.hi up and their difference down, so it is at
    most the exact margin; the failure test compares the exact ends.  A NaN
    margin is indeterminate.
    """
    p = mp.prec
    lv, lr, rv, rr = lhs._v, lhs._r, rhs._v, rhs._r
    margin = mpf_sub(mpf_sub(rv, rr, p, round_floor),
                     mpf_add(lv, lr, p, round_ceiling), p, round_floor)
    if margin != fnan and mpf_sign(margin) >= 0:
        v = PASS
    elif mpf_gt(mpf_sub(lv, lr), mpf_add(rv, rr)):
        v = FAIL
    else:
        v = INDETERMINATE
    return Verdict(mp.make_mpf(lv), mp.make_mpf(rv), mp.make_mpf(margin), v)


def fmt(x, digits: int = 20) -> str:
    """x to ``digits`` significant digits, rounded once from its own bits
    (``mpf(x)`` would first round an mpf to the caller's mp.prec); ints and
    Fractions exactly."""
    if isinstance(x, (int, Fraction)):
        return str(x)
    return nstr(mp.make_mpf(from_float(x)) if isinstance(x, float) else x, digits)
