"""Certified values: a number together with a proven absolute error bound.

Propagation is first-order interval style: sums add error bounds, products
use |a|*err_b + |b|*err_a + err_a*err_b, log/exp use derivative bounds on an
enclosing interval.  Every operation additionally inflates the bound by a few
ulps at the current mpmath working precision to cover its own rounding.

Verdicts derived from certified values are three-valued: ``pass`` / ``fail``
/ ``indeterminate``.  An indeterminate never silently becomes a pass.
"""
from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf, mpc, fabs, log, exp, sqrt

# The precision policy: every public entry point defaults to DEFAULT_PREC
# bits, and theta and heights work at prec + GUARD_BITS internally.
DEFAULT_PREC = 128
GUARD_BITS = 64

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


class PrecisionError(ArithmeticError):
    """The certified error bound is too large for the requested operation."""


def _eps() -> mpf:
    # cushion for <= ~8 correctly rounded mpf operations per combination
    return mpf(2) ** (4 - mp.prec)


@dataclass(frozen=True)
class CertifiedReal:
    value: mpf
    err: mpf

    def __post_init__(self):
        if not (self.err >= 0):
            raise ValueError("error bound must be nonnegative")

    @property
    def lo(self) -> mpf:
        return self.value - self.err

    @property
    def hi(self) -> mpf:
        return self.value + self.err

    @classmethod
    def exact(cls, x) -> "CertifiedReal":
        return cls(mpf(x), mpf(0))

    @classmethod
    def rounded(cls, x, ulps: int = 8) -> "CertifiedReal":
        """A freshly computed value whose only error is final rounding."""
        v = mpf(x)
        return cls(v, (fabs(v) + 1) * mpf(2) ** (ulps.bit_length() + 1 - mp.prec))

    def __add__(self, other) -> "CertifiedReal":
        other = _as_real(other)
        v = self.value + other.value
        return CertifiedReal(v, self.err + other.err + fabs(v) * _eps())

    __radd__ = __add__

    def __neg__(self) -> "CertifiedReal":
        return CertifiedReal(-self.value, self.err)

    def __sub__(self, other) -> "CertifiedReal":
        return self + (-_as_real(other))

    def __rsub__(self, other) -> "CertifiedReal":
        return _as_real(other) + (-self)

    def __mul__(self, other) -> "CertifiedReal":
        other = _as_real(other)
        v = self.value * other.value
        e = (fabs(self.value) * other.err + fabs(other.value) * self.err
             + self.err * other.err + fabs(v) * _eps())
        return CertifiedReal(v, e)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CertifiedReal":
        other = _as_real(other)
        if other.lo <= 0 < other.hi or other.hi >= 0 > other.lo or other.lo <= 0 <= other.hi:
            raise PrecisionError("division by an interval containing zero")
        v = self.value / other.value
        denom = min(fabs(other.lo), fabs(other.hi))
        e = ((self.err * fabs(other.value) + fabs(self.value) * other.err)
             / (denom * fabs(other.value)) + fabs(v) * _eps())
        return CertifiedReal(v, e)

    def abs(self) -> "CertifiedReal":
        return CertifiedReal(fabs(self.value), self.err)

    def log(self) -> "CertifiedReal":
        lo = self.lo
        if lo <= 0:
            raise PrecisionError("log of an interval touching zero")
        v = log(self.value)
        return CertifiedReal(v, self.err / lo + (fabs(v) + 1) * _eps())

    def exp(self) -> "CertifiedReal":
        v = exp(self.value)
        # sup of derivative on the enclosing interval
        e = exp(self.hi) * self.err + v * _eps()
        return CertifiedReal(v, e)

    def sqrt(self) -> "CertifiedReal":
        lo = self.lo
        hi = self.hi
        if hi < 0:
            raise PrecisionError("sqrt of a negative interval")
        slo = sqrt(lo) if lo > 0 else mpf(0)
        shi = sqrt(hi)
        v = sqrt(self.value) if self.value > 0 else mpf(0)
        e = max(v - slo, shi - v) + v * _eps()
        return CertifiedReal(v, e)


def _as_real(x) -> CertifiedReal:
    if isinstance(x, CertifiedReal):
        return x
    return CertifiedReal.exact(x)


@dataclass(frozen=True)
class CertifiedComplex:
    value: mpc
    err: mpf

    def __post_init__(self):
        if not (self.err >= 0):
            raise ValueError("error bound must be nonnegative")

    def abs(self) -> CertifiedReal:
        return CertifiedReal(fabs(self.value), self.err)

    def __add__(self, other) -> "CertifiedComplex":
        v = self.value + other.value
        return CertifiedComplex(v, self.err + other.err + fabs(v) * _eps())

    def __mul__(self, other) -> "CertifiedComplex":
        v = self.value * other.value
        e = (fabs(self.value) * other.err + fabs(other.value) * self.err
             + self.err * other.err + fabs(v) * _eps())
        return CertifiedComplex(v, e)


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
    error is too large to decide.
    """
    margin = rhs.lo - lhs.hi
    if margin >= 0:
        v = PASS
    elif lhs.lo > rhs.hi:
        v = FAIL
    else:
        v = INDETERMINATE
    return Verdict(lhs.value, rhs.value, margin, v)
