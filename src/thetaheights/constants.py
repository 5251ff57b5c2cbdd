"""Every explicit constant of the height comparison, as certified reals.

All values are pure functions of their integer/rational inputs evaluated at
the requested precision; anything involving r^(2g) powers or the 2^12
exponent is computed in log space first and the linear-space value emitted
alongside.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpf, exp, factorial, log, pi, workprec

from .certified import DEFAULT_PREC, CertifiedReal
from .exactla import as_mpf
from .siegel import SiegelPoint

# closed forms of a few dozen operations each, with a 64-ulp cushion per
# result (_certify): 32 guard bits are plenty, unlike theta's long sums
GUARD_BITS = 32

# table outputs cap out where the 2^(g^3/4) term stops being printable sense
TABLE_MAX_G = 5
TABLE_MAX_R = 8


def _certify(x) -> CertifiedReal:
    return CertifiedReal.rounded(x, ulps=64)


def _growth_term(g: int) -> mpf:
    return 2 + 2 / mpf(3) ** (mpf(1) / 4) * mpf(2) ** (mpf(g) ** 3 / 4)


def m_const(r: int, g: int, prec: int = DEFAULT_PREC) -> CertifiedReal:
    """g [ (1/4) log(4 pi) - (1/2) r^(2g) log r ], the window lower endpoint."""
    _check_rg(r, g)
    with workprec(prec + GUARD_BITS):
        return _certify(g * (log(4 * pi) / 4 - mpf(r) ** (2 * g) * log(r) / 2))


def M_const(r: int, g: int, prec: int = DEFAULT_PREC) -> CertifiedReal:
    """(g/4) log(4 pi) + g log r + (g/2) log(2 + (2/3^(1/4)) 2^(g^3/4)),
    the window upper endpoint."""
    _check_rg(r, g)
    with workprec(prec + GUARD_BITS):
        return _certify(g * log(4 * pi) / 4 + g * log(r)
                        + g * log(_growth_term(g)) / 2)


def c_g(g: int, prec: int = DEFAULT_PREC) -> CertifiedReal:
    """(2 + (2/3^(1/4)) 2^(g^3/4))^g, the invariant-norm upper constant."""
    _check_g(g)
    with workprec(prec + GUARD_BITS):
        return _certify(_growth_term(g) ** g)


def C_matrix(g: int, prec: int = DEFAULT_PREC) -> CertifiedReal:
    """(8g/pi)(1 + 2 g^2 log(4g)), the matrix-lemma constant."""
    _check_g(g)
    with workprec(prec + GUARD_BITS):
        return _certify(8 * g / pi * (1 + 2 * g * g * log(4 * g)))


def C1(g: int, r: int, prec: int = DEFAULT_PREC) -> CertifiedReal:
    _check_rg(r, g)
    with workprec(prec + GUARD_BITS):
        rg = mpf(r) ** (2 * g)
        return _certify(2 * g / pi * (1 + 2 * g * g * log(4 * g))
                        + g * log(4 * pi) / 4 + g * log(r)
                        + g * log(_growth_term(g)) / 2
                        + rg * log(rg) / 4)


def C2(g: int, r: int, prec: int = DEFAULT_PREC) -> CertifiedReal:
    """C1 log(6 + 2 C1 log(2 C1) - 2 C1)/log 3, error propagated through the
    logs from the certified C1."""
    with workprec(prec + GUARD_BITS):
        c1 = C1(g, r, prec)
        two_c1 = c1 * CertifiedReal.exact(2)
        inner = (CertifiedReal.exact(6) + two_c1 * two_c1.log()) - two_c1
        return c1 * inner.log() * _certify(1 / log(3))


def C3(g: int, r: int, prec: int = DEFAULT_PREC) -> CertifiedReal:
    _check_rg(r, g)
    with workprec(prec + GUARD_BITS):
        rg = mpf(r) ** (2 * g)
        return _certify(g * log(4 * pi) / 4 + g * log(r)
                        + g * log(_growth_term(g)) / 2 + rg * log(rg) / 4)


@dataclass(frozen=True)
class EasierConstantsReport:
    easier_c1: CertifiedReal
    easier_c2: CertifiedReal
    easier_c3: CertifiedReal
    dominates_c1: bool
    dominates_c2: bool
    dominates_c3: bool


def easier_constants(g: int, r: int, prec: int = DEFAULT_PREC) -> EasierConstantsReport:
    """The rougher constants 6 r^(2g) log(r^(2g)), 1000 r^(2g) (log r^(2g))^5,
    6 r^(2g) log(r^(2g)), plus certified dominance over the precise ones."""
    _check_rg(r, g)
    with workprec(prec + GUARD_BITS):
        rg = mpf(r) ** (2 * g)
        e1 = _certify(6 * rg * log(rg))
        e2 = _certify(1000 * rg * log(rg) ** 5)
        e3 = e1
        p1, p2, p3 = C1(g, r, prec), C2(g, r, prec), C3(g, r, prec)
        return EasierConstantsReport(
            e1, e2, e3,
            bool(e1.lo >= p1.hi), bool(e2.lo >= p2.hi), bool(e3.lo >= p3.hi))


def hF_lower(r: int, g: int, prec: int = DEFAULT_PREC) -> CertifiedReal:
    """-C(g) log C(g) - M(r, g): the height lower bound that falls out of the
    window and the matrix lemma."""
    with workprec(prec + GUARD_BITS):
        c = C_matrix(g, prec)
        return (-(c * c.log())) - M_const(r, g, prec)


def bost_lower(g: int, prec: int = DEFAULT_PREC) -> CertifiedReal:
    """-g log(2 pi)/2."""
    _check_g(g)
    with workprec(prec + GUARD_BITS):
        return _certify(-g * log(2 * pi) / 2)


def tilde_c(c, prec: int = DEFAULT_PREC) -> CertifiedReal:
    """c log(6 + 2c log(2c) - 2c)/log 3 for c >= 2; always >= c."""
    with workprec(prec + GUARD_BITS):
        cm = as_mpf(c)
        if cm < 2:
            raise ValueError("requires c >= 2")
        return _certify(cm * log(6 + 2 * cm * log(2 * cm) - 2 * cm) / log(3))


def min_bound_lemma_check(a, b, c, d, prec: int = DEFAULT_PREC) -> bool:
    """Oracle for: a,b >= 1, c > 0, |a-b| <= c log(2 + min(a,b)), d <= a
    imply d <= (1 + 2c) min(a, b).

    Hypotheses are required of the caller (rejected if visibly violated with
    certified slack); the conclusion is checked exactly when the inputs are
    rational.
    """
    a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    if a < 1 or b < 1 or c <= 0 or d > a:
        raise ValueError("hypotheses a,b >= 1, c > 0, d <= a are violated")
    with workprec(prec + GUARD_BITS):
        m = min(a, b)
        gap = abs(a - b)
        rhs = mpf(c.numerator) / c.denominator * log(2 + mpf(m.numerator) / m.denominator)
        slack = mpf(2) ** (8 - prec)
        if mpf(gap.numerator) / gap.denominator > rhs + slack:
            raise ValueError("hypothesis |a-b| <= c log(2+min) is violated")
    return d <= (1 + 2 * c) * m


@dataclass(frozen=True)
class LogSpaceValue:
    """A possibly astronomical constant: its log, plus the direct value."""
    log_value: CertifiedReal
    value: CertifiedReal


def breve_c(d: int, g: int, c1, c2, prec: int = DEFAULT_PREC) -> LogSpaceValue:
    """max{2 c2, 1 + (12^4 + g)^(2^12) 4^(2g+3) g (g^4 + 2^(2g+2) g + 1/c1)},
    the conditional rational-point count base.  The second branch is computed
    in log space."""
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    _check_g(g)
    with workprec(prec + GUARD_BITS):
        c1m, c2m = as_mpf(c1), as_mpf(c2)
        log_main = (mpf(2) ** 12 * log(mpf(12) ** 4 + g)
                    + (2 * g + 3) * log(4) + log(g)
                    + log(mpf(g) ** 4 + mpf(2) ** (2 * g + 2) * g + 1 / c1m))
        # + 1 on the outside, folded in exactly: log(1 + e^L) = L + log(1 + e^-L)
        log_branch2 = log_main + log(1 + exp(-log_main))
        log_b1 = log(2 * c2m)
        lv = _certify(max(log_b1, log_branch2))
        return LogSpaceValue(lv, lv.exp())


def c_lattice(g: int, r: int, c2: CertifiedReal | None = None,
              prec: int = DEFAULT_PREC) -> CertifiedReal:
    """4 + 8 C2 + g log(pi^-g g! e^(pi r^2) g^4) + 4 r^(2g), the lattice
    comparison constant.  (1 + 2c) is what the corollary consumes."""
    _check_rg(r, g)
    with workprec(prec + GUARD_BITS):
        if c2 is None:
            c2 = C2(g, r, prec)
        body = _certify(g * (-g * log(pi) + log(factorial(g)) + pi * r * r
                             + 4 * log(g)) + 4 * mpf(r) ** (2 * g) + 4)
        return body + c2 * CertifiedReal.exact(8)


def sigma_norm_log_bound(g: int, r: int, h_theta, prec: int = DEFAULT_PREC) -> CertifiedReal:
    """((g/2) log(pi^-g g! e^(pi r^2) g^4)) log(2 + h_theta)."""
    _check_rg(r, g)
    h = as_mpf(h_theta)
    if h < 0:
        raise ValueError("h_theta must be nonnegative")
    with workprec(prec + GUARD_BITS):
        coeff = g * (-g * log(pi) + log(factorial(g)) + pi * r * r + 4 * log(g)) / 2
        return _certify(coeff * log(2 + h))


def modified_faltings_offset(tau_list: list[SiegelPoint], deg_isogeny: int = 1,
                             prec: int = DEFAULT_PREC) -> CertifiedReal:
    """(1/(2 len)) sum of log det Im tau, plus (1/2) log(deg) for the
    non-principal case."""
    if deg_isogeny < 1:
        raise ValueError("isogeny degree must be a positive integer")
    if not tau_list:
        raise ValueError("need at least one period matrix")
    with workprec(prec + GUARD_BITS):
        s = sum(log(t.det_im()) for t in tau_list)
        return _certify(s / (2 * len(tau_list)) + log(deg_isogeny) / 2)


# ---------------------------------------------------------------------------
# table assembly


_FORMULAS = {
    "m": "g*((1/4)*log(4*pi) - (1/2)*r^(2g)*log(r))",
    "M": "(g/4)*log(4*pi) + g*log(r) + (g/2)*log(2 + (2/3^(1/4))*2^(g^3/4))",
    "c_g": "(2 + (2/3^(1/4))*2^(g^3/4))^g",
    "C_matrix": "(8g/pi)*(1 + 2*g^2*log(4g))",
    "C1": "(2g/pi)*(1 + 2*g^2*log(4g)) + (g/4)*log(4*pi) + g*log(r) + "
          "(g/2)*log(2 + (2/3^(1/4))*2^(g^3/4)) + (1/4)*r^(2g)*log(r^(2g))",
    "C2": "C1*log(6 + 2*C1*log(2*C1) - 2*C1)/log(3)",
    "C3": "(g/4)*log(4*pi) + g*log(r) + (g/2)*log(2 + (2/3^(1/4))*2^(g^3/4)) + "
          "(1/4)*r^(2g)*log(r^(2g))",
    "easier_C1": "6*r^(2g)*log(r^(2g))",
    "easier_C2": "1000*r^(2g)*(log(r^(2g)))^5",
    "easier_C3": "6*r^(2g)*log(r^(2g))",
    "hF_lower": "-C(g)*log(C(g)) - M(r,g)",
    "bost_lower": "-g*log(2*pi)/2",
    "c_lattice": "4 + 8*C2 + g*log(pi^-g * g! * e^(pi*r^2) * g^4) + 4*r^(2g)",
    "breve_c": "max{2*c2, 1 + (12^4+g)^(2^12)*4^(2g+3)*g*(g^4 + 2^(2g+2)*g + 1/c1)}",
}


@dataclass(frozen=True)
class ConstantsTable:
    g: int
    r: int
    prec: int
    entries: dict = field(default_factory=dict)
    formulas: dict = field(default_factory=lambda: dict(_FORMULAS))


def table(g: int, r: int, d: int | None = None, c1=None, c2=None,
          prec: int = DEFAULT_PREC) -> ConstantsTable:
    """Named map of every constant at (g, r); grid capped at g <= 5, r <= 8."""
    if g > TABLE_MAX_G or r > TABLE_MAX_R:
        raise ValueError(f"table grid is capped at g <= {TABLE_MAX_G}, r <= {TABLE_MAX_R}")
    _check_rg(r, g)
    easier = easier_constants(g, r, prec)
    entries = {
        "m": m_const(r, g, prec),
        "M": M_const(r, g, prec),
        "c_g": c_g(g, prec),
        "C_matrix": C_matrix(g, prec),
        "C1": C1(g, r, prec),
        "C2": C2(g, r, prec),
        "C3": C3(g, r, prec),
        "easier_C1": easier.easier_c1,
        "easier_C2": easier.easier_c2,
        "easier_C3": easier.easier_c3,
        "hF_lower": hF_lower(r, g, prec),
        "bost_lower": bost_lower(g, prec),
        "c_lattice": c_lattice(g, r, None, prec),
    }
    if c1 is not None and c2 is not None:
        entries["breve_c_log"] = breve_c(d or 1, g, c1, c2, prec).log_value
    return ConstantsTable(g, r, prec, entries)


def _check_g(g: int):
    if g < 1:
        raise ValueError("g must be a positive integer")


def _check_rg(r: int, g: int):
    _check_g(g)
    if r < 2 or r % 2 != 0:
        raise ValueError("r must be an even integer >= 2")
