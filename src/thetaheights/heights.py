"""The two heights of a rational elliptic curve with full 2-torsion.

Theta height, by definition: the Weil height of the level-2 theta-null
point (theta3 : theta4 : theta2) at the reduced period matrix, with the l2
norm at the archimedean place.

It is computed from exact identities, with no theta value.  The 2-torsion
roots e1 > e2 > e3 of X^3 - 27 c4 X - 54 c6 are real, so the period
lattice is rectangular: with a^2 = e1 - e3, b^2 = e1 - e2 and
c^2 = e2 - e3, the periods of the invariant differential are
omega1 = 6 pi / M(a, b) and omega2 = 6 pi i / M(a, c), and tau = i t with
t = M(a, b) / M(a, c).  The reduction
is the identity or S, so the reduced tau is i max(t, 1/t).  On that ray the
theta constants are positive reals and lam = theta2^4 / theta3^4 lies in
(0, 1/2]; among the six cross-ratios of the roots exactly one lies there
(two equal ones at 1/2), so lam is chosen exactly, as
min(e2 - e3, e1 - e2) / (e1 - e3).  Jacobi's
theta2^4 + theta4^4 = theta3^4 gives |theta2/theta3|^2 = sqrt(lam) and
|theta4/theta3|^2 = sqrt(1 - lam).  Hence

    h_theta = (1/4) log den(lam) + (1/2) log(1 + sqrt(lam) + sqrt(1 - lam)):

the finite places are exact (the fourth powers of the coordinate ratios
are lam and 1 - lam, which share their reduced denominator, and the
v-adic max commutes with fourth powers).  With lam = p/q in lowest terms
and S = q + sqrt(pq) + sqrt(q(q - p)), 1 + sqrt(lam) + sqrt(1 - lam) = S/q,
so

    h_theta = (1/4) log(S^2 / q),

one log of one enclosure (``_theta_height_bounds``).  At scale 2^w,
isqrt(n 4^w) <= 2^w sqrt(n) < isqrt(n 4^w) + 1, so
S_lo = q 2^w + isqrt(pq 4^w) + isqrt(q(q - p) 4^w) and S_hi = S_lo + 2
satisfy S_lo <= 2^w S < S_hi; squaring and dividing by q 2^w,
floor(S_lo^2 / (q 2^w)) <= 2^w S^2 / q <= ceil(S_hi^2 / (q 2^w)).  As
S >= 2q, the relative width is at most 2^(3 - w); w = mp.prec + 8 puts it
below the log's own allowance.

Faltings height: h_F = -(1/2) log(covolume/pi) = (1/2) log(M(a, b) M(a, c)
/ (36 pi)), and log det Im tau = |log t|, both for the period lattice of
the minimal model's invariant differential.  Both are read from the two
certified logs L_ab = log M(a, b) and L_ac = log M(a, c), formed once per
lattice: h_F = (L_ab + L_ac - log(36 pi)) / 2, with log(36 pi) formed
once per precision, and log det Im tau = |L_ab - L_ac|.  The periods, the
covolume and the reduced tau are display values that no verdict reads;
each is formed from the AGM midpoints when first read.  This is the
stable height
when the asserted minimal/semistable claims hold.  The flags passed to
``EllipticCurveQ.from_coefficients`` are a caller contract, not verified;
``load_corpus`` rejects a row that asserts either flag without integral
coefficients and the gcd(c4, disc) = 1 certificate.

The AGM certificate (``_agm_bounds``).  For a >= b > 0 the AGM satisfies
M(a, b) = M((a + b)/2, sqrt(ab)) and b <= M(a, b) <= a, it is homogeneous
of degree 1, and it is nondecreasing in each argument (D. A. Cox, "The
arithmetic-geometric mean of Gauss", Enseign. Math. 30 (1984)).  One run
in integers at scale 2^w bounds M* = 2^w M(sqrt x, sqrt y) from both
sides.  It starts from a_0 = isqrt(floor(x 4^w)) and
b_0 = isqrt(floor(y 4^w)), so a_0 <= 2^w sqrt x < a_0 + 1 and
b_0 <= 2^w sqrt y < b_0 + 1.  Each step replaces (a, b) by
(floor((a + b)/2), isqrt(ab)), which lies componentwise in (m - 1, m] for
the exact means m = ((a + b)/2, sqrt(ab)); floor is monotone, so a' >= b',
and b' >= isqrt(b^2) = b: the iterates stay ordered, with b_k >= b_0.

Lower end: M does not increase along the run, so the final
b_n <= M(a_n, b_n) <= M*.  Upper end: for a >= b > 0, a + 1 <= (1 + 1/b) a,
so M(a + 1, b + 1) <= M((1 + 1/b) a, (1 + 1/b) b) = (1 + 1/b) M(a, b).
Since M* <= M(a_0 + 1, b_0 + 1) and M(a_k, b_k) <= M(a_(k+1) + 1,
b_(k+1) + 1), induction gives M* <= M(a_n, b_n) prod_(k=0..n) (1 + 1/b_k),
and M(a_n, b_n) <= a_n, so hi = ceil(a_n prod (b_k + 1)/b_k).  A start
with b_0 = 0 takes lo = 0 and hi = a_0 + 1, as M* <= 2^w sqrt x.  The run
stops once a - b <= 1, which it reaches: the gap of the means is
(a + b)/2 - sqrt(ab) <= (a - b)^2 / (8b), and one rounding adds less
than 1.  Every error of h_theta, h_F, log det Im tau and the window comes
from these enclosures and from certified log and pi; none is
asserted.

``window_check`` is the one analysis of a curve: one ``periods_agm`` gives
the window, the two lower bounds on h_F and the matrix lemma (see
``HeightReport``); ``matrix_lemma_check`` reads the last.
"""
from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from mpmath import mp, mpf, mpc, log, pi, workprec
from mpmath.libmp import from_man_exp

from . import constants
from .certified import (DEFAULT_PREC, GUARD_BITS, CertifiedReal, Verdict, _ball,
                        certified_le)
from .siegel import SiegelPoint


class ClaimsError(ValueError):
    """The stable Faltings height needs asserted minimal semistable claims."""


@dataclass(frozen=True)
class Claims:
    minimal: bool
    semistable: bool


@dataclass(frozen=True)
class EllipticCurveQ:
    """Integral-or-rational Weierstrass model with full rational 2-torsion.

    ``two_torsion_x`` holds the three roots of the division polynomial of the
    depressed model X^3 - 27 c4 X - 54 c6; consistency with the coefficients
    is verified exactly on construction; left at None, they are extracted
    from c4 and c6, which (with disc) are formed once per (frozen) curve,
    as are the root differences of ``_root_gaps``.
    """
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction
    claims: Claims
    two_torsion_x: tuple[Fraction, Fraction, Fraction] | None = None
    label: str = ""

    def __post_init__(self):
        if self.disc == 0:
            raise ValueError("singular curve (discriminant zero)")
        if self.two_torsion_x is None:
            object.__setattr__(self, "two_torsion_x", _depressed_roots(*self._c4_c6))
        e1, e2, e3 = self.two_torsion_x
        if len({e1, e2, e3}) != 3:
            raise ValueError("two-torsion roots must be distinct")
        if e1 + e2 + e3 != 0:
            raise ValueError("two-torsion roots are inconsistent (trace)")
        if e1 * e2 + e1 * e3 + e2 * e3 != -27 * self.c4:
            raise ValueError("two-torsion roots are inconsistent (c4)")
        if e1 * e2 * e3 != 54 * self.c6:
            raise ValueError("two-torsion roots are inconsistent (c6)")

    @cached_property
    def _c4_c6(self) -> tuple[Fraction, Fraction]:
        """c4 and c6 of the model, through b2, b4, b6."""
        a1, a3 = self.a1, self.a3
        b2 = a1 * a1 + 4 * self.a2
        b4 = 2 * self.a4 + a1 * a3
        b6 = a3 * a3 + 4 * self.a6
        return b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6

    @property
    def c4(self) -> Fraction:
        return self._c4_c6[0]

    @property
    def c6(self) -> Fraction:
        return self._c4_c6[1]

    @cached_property
    def disc(self) -> Fraction:
        c4, c6 = self._c4_c6
        return (c4 ** 3 - c6 ** 2) / 1728

    @classmethod
    def from_coefficients(cls, a1, a2, a3, a4, a6, minimal: bool = False,
                          semistable: bool = False, label: str = "") -> "EllipticCurveQ":
        """Builds the curve and extracts the 2-torsion roots exactly;
        rejects curves whose 2-torsion is not fully rational."""
        coeffs = tuple(Fraction(x) for x in (a1, a2, a3, a4, a6))
        return cls(*coeffs, claims=Claims(minimal, semistable), label=label)

    def sorted_roots(self) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(sorted(self.two_torsion_x, reverse=True))

    @cached_property
    def _root_gaps(self) -> tuple[Fraction, Fraction, Fraction]:
        """(e1 - e3, e1 - e2, e2 - e3) for the roots e1 > e2 > e3."""
        e1, e2, e3 = self.sorted_roots()
        return e1 - e3, e1 - e2, e2 - e3


def _depressed_roots(c4: Fraction, c6: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The rational roots of X^3 - 27 c4 X - 54 c6, largest first;
    ValueError unless there are three distinct ones.

    Scaled by s, the cubic is the monic integral X^3 + pX + q, whose
    rational roots are integers.  With three distinct real roots (positive
    discriminant) the largest lies right of the critical point sqrt(-p/3),
    where the cubic increases: integer bisection finds it.  Deflation leaves
    X^2 + rX + (p + r^2), solved exactly with isqrt."""
    s = math.lcm((27 * c4).denominator, (54 * c6).denominator)
    p = int(-27 * c4 * s * s)
    q = int(-54 * c6 * s ** 3)

    def f(x: int) -> int:
        return (x * x + p) * x + q

    if -4 * p ** 3 - 27 * q * q > 0:
        lo = math.isqrt((-p + 2) // 3 - 1) + 1          # ceil(sqrt(-p/3))
        if f(lo) <= 0:
            hi = 2 * lo
            while f(hi) < 0:
                hi *= 2
            while hi - lo > 1:                          # f(lo) <= 0 <= f(hi)
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
            r = lo if f(lo) == 0 else hi
            if f(r) == 0:
                d = -3 * r * r - 4 * p                  # (r2 - r3)^2 > 0
                sd = math.isqrt(d)
                if sd * sd == d:
                    return tuple(Fraction(x, s)
                                 for x in (r, (sd - r) // 2, (-sd - r) // 2))
    raise ValueError("full rational 2-torsion required")


def _lambda(curve: EllipticCurveQ) -> Fraction:
    """The one cross-ratio of the 2-torsion roots in (0, 1/2]: theta2^4 /
    theta3^4 at the reduced period matrix: min(lam', 1 - lam') for
    lam' = (e2 - e3) / (e1 - e3), as (e1 - e2) + (e2 - e3) = e1 - e3."""
    ac, ab, bc = curve._root_gaps
    return min(bc, ab) / ac


# ---------------------------------------------------------------------------
# periods


def _agm_bounds(x: Fraction, y: Fraction, w: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^w M(sqrt x, sqrt y) <= hi, for x >= y > 0,
    from one integer run of the AGM rounding down: lo is its last b_n and
    hi = ceil(a_n prod_(k=0..n) (b_k + 1)/b_k), since each floored start or
    step costs at most the factor 1 + 1/b_k in M; hi = a_0 + 1 when
    b_0 = 0 (proof in the module docstring)."""
    a = math.isqrt((x.numerator << 2 * w) // x.denominator)
    b = math.isqrt((y.numerator << 2 * w) // y.denominator)
    if not b:
        return 0, a + 1
    num, den = b + 1, b
    while a - b > 1:
        a, b = (a + b) // 2, math.isqrt(a * b)
        num *= b + 1
        den *= b
    return b, -(-a * num // den)


def _exact_ball(lo: int, hi: int, w: int) -> CertifiedReal:
    """[lo 2^-w, hi 2^-w], lo <= hi, as a ball whose midpoint and radius
    are both exact dyadics, built from the raw parts."""
    return _ball(from_man_exp(lo + hi, -w - 1), from_man_exp(hi - lo, -w - 1))


def _certified_agm(x: Fraction, y: Fraction, w: int) -> CertifiedReal:
    """M(sqrt x, sqrt y) as the exact ball of its ``_agm_bounds``
    enclosure."""
    return _exact_ball(*_agm_bounds(x, y, w), w)


@dataclass(frozen=True)
class PeriodLattice:
    """Periods of the invariant differential dx/(2y + a1 x + a3), ordered so
    that omega2/omega1 lies in the upper half plane.  ``m_ab`` and
    ``m_ac`` are the certified AGMs M(a, b) and M(a, c) and ``prec`` the
    precision of ``periods_agm``.  Every other value is derived from the
    two AGMs when first read, at prec + GUARD_BITS, and kept: the certified
    ``agm_logs``, and the display values ``omega1``, ``omega2``,
    ``covolume`` and ``tau_reduced`` from the AGM midpoints.  None is a
    field, so ``dataclasses.replace`` with new AGMs gives fresh ones."""
    m_ab: CertifiedReal
    m_ac: CertifiedReal
    prec: int = DEFAULT_PREC

    @cached_property
    def agm_logs(self) -> tuple[CertifiedReal, CertifiedReal]:
        """(log M(a, b), log M(a, c)), certified."""
        with workprec(self.prec + GUARD_BITS):
            return self.m_ab.log(), self.m_ac.log()

    @cached_property
    def omega1(self) -> mpc:
        with workprec(self.prec + GUARD_BITS):
            return mpc(6 * pi / self.m_ab.value)

    @cached_property
    def omega2(self) -> mpc:
        with workprec(self.prec + GUARD_BITS):
            return mpc(0, 6 * pi / self.m_ac.value)

    @cached_property
    def covolume(self) -> mpf:
        with workprec(self.prec + GUARD_BITS):
            return self.omega1.real * self.omega2.imag

    @cached_property
    def tau_reduced(self) -> SiegelPoint:
        """i max(t, 1/t) for t = M(a, b) / M(a, c)."""
        with workprec(self.prec + GUARD_BITS):
            t = self.m_ab.value / self.m_ac.value
            return SiegelPoint.from_complex(mpc(0, max(t, 1 / t)))


def periods_agm(curve: EllipticCurveQ, prec: int = DEFAULT_PREC) -> PeriodLattice:
    """The two AGMs from their integer enclosures.  The scale keeps at
    least prec + GUARD_BITS bits below the smaller AGM, which is at least
    min(b, c)."""
    ac, ab, bc = curve._root_gaps
    small = min(ab, bc)
    w = prec + GUARD_BITS + max(
        0, (small.denominator.bit_length() - small.numerator.bit_length() + 2) // 2)
    return PeriodLattice(_certified_agm(ac, ab, w), _certified_agm(ac, bc, w), prec)


def _log_det_im(lattice: PeriodLattice) -> CertifiedReal:
    """log det Im of the reduced tau, |log t| = |L_ab - L_ac|; call inside
    the working precision."""
    l_ab, l_ac = lattice.agm_logs
    return (l_ab - l_ac).abs()


# ---------------------------------------------------------------------------
# Faltings height


@dataclass(frozen=True)
class FaltingsResult:
    height: CertifiedReal
    stable: bool


def faltings_height_g1(curve: EllipticCurveQ,
                       lattice: PeriodLattice | None = None,
                       prec: int = DEFAULT_PREC,
                       allow_relative: bool = False) -> FaltingsResult:
    """-(1/2) log(covolume/pi) = (1/2) log(M(a, b) M(a, c) / (36 pi)),
    formed as (L_ab + L_ac - log(36 pi)) / 2 from the lattice's AGM logs.

    Refuses when the minimal/semistable claims are not asserted, since the
    computed number is then only the relative height of the given model; pass
    ``allow_relative=True`` to get it anyway, flagged as such.
    """
    stable = curve.claims.minimal and curve.claims.semistable
    if not stable and not allow_relative:
        raise ClaimsError(
            "minimal and semistable claims not asserted; the value would be "
            "the relative height of this model, not the stable height "
            "(pass allow_relative=True to accept that)")
    if lattice is None:
        lattice = periods_agm(curve, prec)
    l_ab, l_ac = lattice.agm_logs
    with workprec(prec + GUARD_BITS):
        h = (l_ab + l_ac - _log_36pi(prec)).ldexp(-1)
    return FaltingsResult(h, stable)


@cache
def _log_36pi(prec: int) -> CertifiedReal:
    """log(36 pi), certified at prec + GUARD_BITS."""
    with workprec(prec + GUARD_BITS):
        return (36 * CertifiedReal.rounded(pi)).log()


# ---------------------------------------------------------------------------
# theta height


@dataclass(frozen=True)
class ThetaHeightDetails:
    h_theta: CertifiedReal
    finite: CertifiedReal
    archimedean: CertifiedReal
    lam: Fraction
    tau_reduced: SiegelPoint


def _finite_part(lam: Fraction) -> CertifiedReal:
    """sum over p of log max(1, |lam|_p^(1/4), |1-lam|_p^(1/4)).  lam and
    1 - lam have the same reduced denominator, so the sum is exactly
    log(den lam) / 4."""
    return CertifiedReal.rounded(log(lam.denominator) / 4)


def _theta_height_bounds(lam: Fraction, w: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^w S^2 / q <= hi, where lam = p/q in lowest
    terms, 0 < p <= q/2, and S = q + sqrt(pq) + sqrt(q(q - p)) (proof in
    the module docstring)."""
    p, q = lam.numerator, lam.denominator
    s_lo = (q << w) + math.isqrt(p * q << 2 * w) + math.isqrt(q * (q - p) << 2 * w)
    den = q << w
    return s_lo * s_lo // den, -(-(s_lo + 2) ** 2 // den)


def _theta_height(lam: Fraction) -> CertifiedReal:
    """h_theta = (1/4) log den(lam) + (1/2) log(1 + sqrt(lam) + sqrt(1 - lam))
    = (1/4) log(S^2 / q): one log of the ``_theta_height_bounds`` ball at
    w = mp.prec + 8, whose relative width is at most 2^(3 - w); call
    inside the working precision."""
    w = mp.prec + 8
    return _exact_ball(*_theta_height_bounds(lam, w), w).log().ldexp(-2)


def theta_height_details(curve: EllipticCurveQ,
                         prec: int = DEFAULT_PREC) -> ThetaHeightDetails:
    """``h_theta``: the Weil height of the level-2 theta-null point, l2
    convention at the archimedean place, always nonnegative.  ``lam``: the
    exact cross-ratio of the 2-torsion roots in (0, 1/2], which is
    theta2^4/theta3^4 at the reduced period matrix."""
    lattice = periods_agm(curve, prec)
    lam = _lambda(curve)
    with workprec(prec + GUARD_BITS):
        h = _theta_height(lam)
        fin = _finite_part(lam)
        return ThetaHeightDetails(h, fin, h - fin, lam, lattice.tau_reduced)


# ---------------------------------------------------------------------------
# the comparison checks


@dataclass(frozen=True)
class HeightReport:
    """The window, the lower bounds on h_F and the matrix lemma
    |log det Im tau| <= C(1) log(max{h_theta, 1} + 2) at one reduced tau.
    ``matrix_lemma`` sits outside ``verdicts`` and so outside ``all_ok``:
    ``verdicts`` are the window campaign's rows and the ``heights verify``
    document and exit status, while the matrix lemma has its own suite.
    ``tau_reduced`` is read from ``lattice``, which forms it on first read."""
    h_theta: CertifiedReal
    h_faltings: CertifiedReal
    lattice: PeriodLattice
    window_value: CertifiedReal
    lam: Fraction
    stable: bool
    verdicts: dict
    matrix_lemma: Verdict

    @property
    def tau_reduced(self) -> SiegelPoint:
        return self.lattice.tau_reduced

    @property
    def all_ok(self) -> bool:
        return all(v.ok for v in self.verdicts.values())


def _window(h: CertifiedReal, h_faltings: CertifiedReal,
            log_det_im: CertifiedReal) -> CertifiedReal:
    """h - h_F/2 - (1/4) log det Im tau; call inside the working precision."""
    return h - h_faltings.ldexp(-1) - log_det_im.ldexp(-2)


def window_check(curve: EllipticCurveQ, prec: int = DEFAULT_PREC,
                 allow_relative: bool = False) -> HeightReport:
    """h_theta - h_F/2 - (1/4) log det Im tau against the [m(2,1), M(2,1)]
    window, the height lower bounds and the matrix lemma, all with
    certified margins, from one ``periods_agm``."""
    lattice = periods_agm(curve, prec)
    lam = _lambda(curve)
    with workprec(prec + GUARD_BITS):
        h = _theta_height(lam)
        fal = faltings_height_g1(curve, lattice, prec, allow_relative)
        log_det_im = _log_det_im(lattice)
        window = _window(h, fal.height, log_det_im)
        verdicts = {
            "window_lower": certified_le(constants.m_const(2, 1, prec), window),
            "window_upper": certified_le(window, constants.M_const(2, 1, prec)),
            "bost_lower": certified_le(constants.bost_lower(1, prec), fal.height),
            "hf_lower": certified_le(constants.hF_lower(2, 1, prec), fal.height),
        }
        clipped = CertifiedReal(max(h.value, mpf(1)), h.err)
        rhs = constants.C_matrix(1, prec) * (clipped + CertifiedReal.exact(2)).log()
        matrix_lemma = certified_le(log_det_im, rhs)
    return HeightReport(h, fal.height, lattice, window, lam,
                        fal.stable, verdicts, matrix_lemma)


def matrix_lemma_check(curve: EllipticCurveQ, prec: int = DEFAULT_PREC) -> Verdict:
    """|log det Im tau| <= C(1) log(max{h_theta, 1} + 2), certified."""
    return window_check(curve, prec, allow_relative=True).matrix_lemma


def point_bound_rhs(curve: EllipticCurveQ, theta_point_height,
                    prec: int = DEFAULT_PREC,
                    allow_relative: bool = False) -> CertifiedReal:
    """h(Theta(P)) - h_F/2 - (1/4) log det Im tau - C(2,1), the certified
    lower bound for the canonical height of P (whose own theta height the
    caller supplies).  A number that is not an exact binary one, such as
    the string "0.1", is rounded once at the working precision."""
    with workprec(prec + GUARD_BITS):
        if not isinstance(theta_point_height, CertifiedReal):
            try:
                theta_point_height = CertifiedReal.exact(theta_point_height)
            except ValueError:
                theta_point_height = CertifiedReal.rounded(theta_point_height)
        lattice = periods_agm(curve, prec)
        fal = faltings_height_g1(curve, lattice, prec, allow_relative)
        return (_window(theta_point_height, fal.height, _log_det_im(lattice))
                - constants.M_const(2, 1, prec))


# ---------------------------------------------------------------------------
# test corpus


def load_corpus(path=None) -> list[EllipticCurveQ]:
    """Curves over Q with full rational 2-torsion.  A row that asserts the
    minimal or semistable claim must carry the certificate of both (see
    scripts/make_corpus.py): integral coefficients and gcd(c4, disc) = 1;
    otherwise ``ClaimsError`` names the row."""
    if path is None:
        ref = importlib.resources.files("thetaheights").joinpath("data/curves.csv")
        with ref.open() as fh:
            return _parse_corpus(fh)
    with open(path) as fh:
        return _parse_corpus(fh)


def _parse_corpus(fh) -> list[EllipticCurveQ]:
    out = []
    for row in csv.DictReader(fh):
        curve = EllipticCurveQ.from_coefficients(
            Fraction(row["a1"]), Fraction(row["a2"]), Fraction(row["a3"]),
            Fraction(row["a4"]), Fraction(row["a6"]),
            minimal=row["minimal"].strip().lower() == "true",
            semistable=row["semistable"].strip().lower() == "true",
            label=row.get("label", ""))
        claimed = curve.claims.minimal or curve.claims.semistable
        if claimed and not _claims_certified(curve):
            raise ClaimsError(
                f"corpus row {curve.label!r} asserts minimal/semistable claims "
                "without integral coefficients and gcd(c4, disc) = 1")
        out.append(curve)
    return out


def _claims_certified(curve: EllipticCurveQ) -> bool:
    """Integral coefficients with gcd(c4, disc) = 1: the model is then
    minimal and semistable at every prime."""
    coeffs = (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
    return (all(c.denominator == 1 for c in coeffs)
            and math.gcd(int(curve.c4), int(curve.disc)) == 1)
