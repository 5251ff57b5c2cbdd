"""The two heights of a rational elliptic curve with full 2-torsion.

Theta height: level-2 theta-null coordinates at the reduced period matrix.
The finite places are exact: the fourth powers of the coordinate ratios are
the rational values lam and 1 - lam (a consequence of the quartic identity
among the three even theta constants), and the v-adic max commutes with
fourth powers.  The archimedean place uses the l2 norm of the certified
theta values, per the height convention adopted throughout.

Faltings height: h_F = -(1/2) log(covolume/pi) for the period lattice of the
minimal model's invariant differential.  This is the stable height when the
asserted minimal/semistable claims hold; the claims are a caller contract,
not verified here.
"""
from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import (mp, mpf, mpc, agm, fabs, log, pi, polyroots, sqrt,
                    workprec)

from . import constants
from .certified import (DEFAULT_PREC, GUARD_BITS, CertifiedReal, PrecisionError,
                        Verdict, certified_le)
from .exactla import fraction_to_mpf
from .siegel import ReductionResult, SiegelPoint, reduce_g1
from .theta import ThetaCharacteristic, theta


class ClaimsError(ValueError):
    """The stable Faltings height needs asserted minimal semistable claims."""


class PeriodError(ArithmeticError):
    """AGM periods failed their exact c4/c6 reconstruction self-check."""


@dataclass(frozen=True)
class Claims:
    minimal: bool
    semistable: bool


@dataclass(frozen=True)
class EllipticCurveQ:
    """Integral-or-rational Weierstrass model with full rational 2-torsion.

    ``two_torsion_x`` holds the three roots of the division polynomial of the
    depressed model X^3 - 27 c4 X - 54 c6; consistency with the coefficients
    is verified exactly on construction.
    """
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction
    claims: Claims
    two_torsion_x: tuple[Fraction, Fraction, Fraction]
    label: str = ""

    def __post_init__(self):
        if self.disc == 0:
            raise ValueError("singular curve (discriminant zero)")
        e1, e2, e3 = self.two_torsion_x
        if len({e1, e2, e3}) != 3:
            raise ValueError("two-torsion roots must be distinct")
        if e1 + e2 + e3 != 0:
            raise ValueError("two-torsion roots are inconsistent (trace)")
        if e1 * e2 + e1 * e3 + e2 * e3 != -27 * self.c4:
            raise ValueError("two-torsion roots are inconsistent (c4)")
        if e1 * e2 * e3 != 54 * self.c6:
            raise ValueError("two-torsion roots are inconsistent (c6)")

    @property
    def b2(self) -> Fraction:
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self) -> Fraction:
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self) -> Fraction:
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self) -> Fraction:
        return (self.b2 * self.b6 - self.b4 * self.b4) / 4

    @property
    def c4(self) -> Fraction:
        return self.b2 * self.b2 - 24 * self.b4

    @property
    def c6(self) -> Fraction:
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @property
    def disc(self) -> Fraction:
        return (self.c4 ** 3 - self.c6 ** 2) / 1728

    @classmethod
    def from_coefficients(cls, a1, a2, a3, a4, a6, minimal: bool = False,
                          semistable: bool = False, label: str = "") -> "EllipticCurveQ":
        """Builds the curve and extracts the 2-torsion roots exactly;
        rejects curves whose 2-torsion is not fully rational."""
        coeffs = tuple(Fraction(x) for x in (a1, a2, a3, a4, a6))
        probe = cls(*coeffs, claims=Claims(False, False),
                    two_torsion_x=_depressed_roots(coeffs), label=label)
        return cls(*coeffs, claims=Claims(minimal, semistable),
                   two_torsion_x=probe.two_torsion_x, label=label)

    def sorted_roots(self) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(sorted(self.two_torsion_x, reverse=True))


def _depressed_roots(coeffs) -> tuple[Fraction, Fraction, Fraction]:
    a1, a2, a3, a4, a6 = coeffs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    s = (27 * c4).denominator
    s = s * (54 * c6).denominator // math.gcd(s, (54 * c6).denominator)
    p = -27 * c4 * s * s
    q = -54 * c6 * s ** 3
    if p.denominator != 1 or q.denominator != 1:
        s *= p.denominator * q.denominator
        p = -27 * c4 * s * s
        q = -54 * c6 * s ** 3
    pi_, qi = int(p), int(q)
    bits = max(abs(pi_), abs(qi), 2).bit_length()
    roots: list[Fraction] = []
    with workprec(4 * bits + 96):
        for rt in polyroots([1, 0, pi_, qi], maxsteps=200, extraprec=64):
            if abs(mpc(rt).imag) > mpf(2) ** -20:
                continue
            cand = int(mp.nint(mpc(rt).real))
            if cand ** 3 + pi_ * cand + qi == 0 and Fraction(cand, s) not in roots:
                roots.append(Fraction(cand, s))
    if len(roots) != 3:
        raise ValueError("full rational 2-torsion required")
    return tuple(sorted(roots, reverse=True))


# ---------------------------------------------------------------------------
# periods


@dataclass(frozen=True)
class PeriodLattice:
    """Periods of the invariant differential dx/(2y + a1 x + a3), ordered so
    that tau = omega2/omega1 lies in the upper half plane."""
    omega1: mpc
    omega2: mpc
    covolume: mpf

    def tau(self) -> SiegelPoint:
        return SiegelPoint.from_complex(self.omega2 / self.omega1)


def periods_agm(curve: EllipticCurveQ, prec: int = DEFAULT_PREC) -> PeriodLattice:
    """AGM periods from the real 2-torsion; self-checked by reconstructing
    c4 and c6 from the lattice via theta-null Eisenstein values."""
    e1, e2, e3 = curve.sorted_roots()
    with workprec(prec + GUARD_BITS):
        a = sqrt(fraction_to_mpf(e1 - e3))
        b = sqrt(fraction_to_mpf(e1 - e2))
        c = sqrt(fraction_to_mpf(e2 - e3))
        m_ab = agm(a, b)
        m_ac = agm(a, c)
        if not (m_ab > 0 and m_ac > 0):
            raise PeriodError("AGM did not converge to a positive limit")
        omega1 = mpc(6 * pi / m_ab)
        omega2 = mpc(0, 1) * 6 * pi / m_ac
        covol = fabs((omega1.conjugate() * omega2).imag)
        lattice = PeriodLattice(omega1, omega2, covol)
        _check_lattice_invariants(curve, lattice, prec)
    return lattice


def _check_lattice_invariants(curve: EllipticCurveQ, lattice: PeriodLattice,
                              prec: int):
    """Recompute c4, c6 from (omega1, omega2) and compare exactly."""
    red = reduce_g1(lattice.tau(), prec)
    gam = red.gamma
    om1p = (gam.lam[0][0] * lattice.omega2 + gam.mu[0][0] * lattice.omega1)
    t2, t3, t4 = _even_nulls(red.reduced, prec)
    e4 = (t2.value ** 8 + t3.value ** 8 + t4.value ** 8) / 2
    e6 = ((t3.value ** 4 + t4.value ** 4) * (t3.value ** 4 + t2.value ** 4)
          * (t4.value ** 4 - t2.value ** 4)) / 2
    scale = 2 * pi / om1p
    c4_hat = scale ** 4 * e4
    c6_hat = scale ** 6 * e6
    tol = mpf(2) ** (-(prec // 2))
    c4_ref = fraction_to_mpf(curve.c4)
    c6_ref = fraction_to_mpf(curve.c6)
    if fabs(c4_hat - c4_ref) > tol * max(mpf(1), fabs(c4_ref)):
        raise PeriodError("period self-check failed on c4")
    if fabs(c6_hat - c6_ref) > tol * max(mpf(1), fabs(c6_ref)):
        raise PeriodError("period self-check failed on c6")


def _even_nulls(tau: SiegelPoint, prec: int):
    """theta constants theta2 = (1/2,0), theta3 = (0,0), theta4 = (0,1/2)."""
    t3 = theta(tau, None, None, prec)
    t4 = theta(tau, None, ThetaCharacteristic.from_integers(2, [0], [1]), prec)
    t2 = theta(tau, None, ThetaCharacteristic.from_integers(2, [1], [0]), prec)
    return t2, t3, t4


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
    """-(1/2) log(covolume/pi).

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
    with workprec(prec + GUARD_BITS):
        v = -log(lattice.covolume / pi) / 2
        h = CertifiedReal(v, (1 + fabs(v)) * mpf(2) ** (-(prec + 16)))
    return FaltingsResult(h, stable)


# ---------------------------------------------------------------------------
# theta height


def lambda_invariant(curve: EllipticCurveQ,
                     lattice: PeriodLattice | None = None,
                     prec: int = DEFAULT_PREC) -> Fraction:
    """The exact rational among the six cross-ratios of the 2-torsion roots
    that matches theta2^4/theta3^4 at the reduced period matrix."""
    return _pipeline(curve, lattice, prec).lam


@dataclass(frozen=True)
class ThetaHeightDetails:
    h_theta: CertifiedReal
    finite: CertifiedReal
    archimedean: CertifiedReal
    lam: Fraction
    tau_reduced: SiegelPoint
    reduction: ReductionResult
    jacobi_defect: mpf


def _match_lambda(curve: EllipticCurveQ, t2, t3, prec: int) -> Fraction:
    e = curve.two_torsion_x
    candidates = set()
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        candidates.add(Fraction(e[i] - e[k]) / Fraction(e[j] - e[k]))
    lhs = t2.value ** 4
    base = t3.value ** 4
    tol = mpf(2) ** (-(prec // 2))
    err_budget = 8 * (t2.err + t3.err) * (1 + fabs(lhs) + fabs(base))
    matches = [c for c in candidates
               if fabs(lhs - fraction_to_mpf(c) * base) <= (tol + err_budget) * fabs(base)]
    if len(matches) != 1:
        raise PrecisionError(
            f"{len(matches)} cross-ratio candidates match theta2^4/theta3^4; "
            "precision failure or inconsistent two-torsion input")
    return matches[0]


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _finite_part(lam: Fraction) -> CertifiedReal:
    """sum over p of log max(1, |lam|_p^(1/4), |1-lam|_p^(1/4)), exactly the
    fourth root of the denominator contribution."""
    total = CertifiedReal.exact(0)
    seen = set()
    for q in (lam, 1 - lam):
        for p, _ in _prime_factors(q.denominator).items():
            if p in seen:
                continue
            seen.add(p)
            vp = max(_padic_valuation(lam.denominator, p),
                     _padic_valuation((1 - lam).denominator, p))
            total = total + CertifiedReal.rounded(mpf(vp) * log(p) / 4)
    return total


def _padic_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def _pipeline(curve: EllipticCurveQ, lattice: PeriodLattice | None,
              prec: int) -> ThetaHeightDetails:
    if lattice is None:
        lattice = periods_agm(curve, prec)
    with workprec(prec + GUARD_BITS):
        red = reduce_g1(lattice.tau(), prec)
        tau_red = red.reduced
        t2, t3, t4 = _even_nulls(tau_red, prec)
        lam = _match_lambda(curve, t2, t3, prec)
        # quartic identity self-check: theta2^4 + theta4^4 = theta3^4
        jac = fabs(t2.value ** 4 + t4.value ** 4 - t3.value ** 4)
        jac_budget = 10 * (t2.err + t3.err + t4.err) * (
            1 + fabs(t2.value) ** 3 + fabs(t3.value) ** 3 + fabs(t4.value) ** 3) * 4
        if jac > jac_budget:
            raise PrecisionError("theta constants violate the quartic identity")
        a3 = t3.abs()
        r4 = t4.abs() / a3
        r2 = t2.abs() / a3
        arch = ((CertifiedReal.exact(1) + r4 * r4 + r2 * r2).log()
                * CertifiedReal.exact(mpf(1) / 2))
        fin = _finite_part(lam)
        h = fin + arch
        if h.lo < -mpf(2) ** (-(prec // 4)):
            raise PrecisionError("theta height came out negative")
    return ThetaHeightDetails(h, fin, arch, lam, tau_red, red, jac)


def theta_height_g1(curve: EllipticCurveQ, prec: int = DEFAULT_PREC) -> CertifiedReal:
    """Weil height of the level-2 theta-null point, l2 convention at the
    archimedean place; always nonnegative."""
    return _pipeline(curve, None, prec).h_theta


def theta_height_details(curve: EllipticCurveQ,
                         prec: int = DEFAULT_PREC) -> ThetaHeightDetails:
    return _pipeline(curve, None, prec)


# ---------------------------------------------------------------------------
# the comparison checks


@dataclass(frozen=True)
class HeightReport:
    h_theta: CertifiedReal
    h_faltings: CertifiedReal
    tau_reduced: SiegelPoint
    window_value: CertifiedReal
    lam: Fraction
    stable: bool
    verdicts: dict

    @property
    def all_ok(self) -> bool:
        return all(v.ok for v in self.verdicts.values())


def window_check(curve: EllipticCurveQ, prec: int = DEFAULT_PREC,
                 allow_relative: bool = False) -> HeightReport:
    """h_theta - h_F/2 - (1/4) log det Im tau against the [m(2,1), M(2,1)]
    window, plus the height lower bounds, all with certified margins."""
    with workprec(prec + GUARD_BITS):
        lattice = periods_agm(curve, prec)
        det_s = _pipeline(curve, lattice, prec)
        fal = faltings_height_g1(curve, lattice, prec, allow_relative)
        det_im = det_s.tau_reduced.det_im()
        quarter_log = CertifiedReal.rounded(log(det_im) / 4)
        window = (det_s.h_theta
                  - fal.height * CertifiedReal.exact(mpf(1) / 2)
                  - quarter_log)
        verdicts = {
            "window_lower": certified_le(constants.m_const(2, 1, prec), window),
            "window_upper": certified_le(window, constants.M_const(2, 1, prec)),
            "bost_lower": certified_le(constants.bost_lower(1, prec), fal.height),
            "hf_lower": certified_le(constants.hF_lower(2, 1, prec), fal.height),
        }
    return HeightReport(det_s.h_theta, fal.height, det_s.tau_reduced, window,
                        det_s.lam, fal.stable, verdicts)


def matrix_lemma_check(curve: EllipticCurveQ, prec: int = DEFAULT_PREC) -> Verdict:
    """|log det Im tau| <= C(1) log(max{h_theta, 1} + 2), certified."""
    with workprec(prec + GUARD_BITS):
        det_s = _pipeline(curve, None, prec)
        det_im = det_s.tau_reduced.det_im()
        lhs = CertifiedReal.rounded(fabs(log(det_im)))
        h = det_s.h_theta
        clipped = CertifiedReal(max(h.value, mpf(1)), h.err)
        rhs = constants.C_matrix(1, prec) * (clipped + CertifiedReal.exact(2)).log()
        return certified_le(lhs, rhs)


def point_bound_rhs(curve: EllipticCurveQ, theta_point_height,
                    prec: int = DEFAULT_PREC,
                    allow_relative: bool = False) -> CertifiedReal:
    """h(Theta(P)) - h_F/2 - (1/4) log det Im tau - C(2,1), the certified
    lower bound for the canonical height of P (whose own theta height the
    caller supplies)."""
    if not isinstance(theta_point_height, CertifiedReal):
        theta_point_height = CertifiedReal.exact(mpf(theta_point_height))
    with workprec(prec + GUARD_BITS):
        lattice = periods_agm(curve, prec)
        fal = faltings_height_g1(curve, lattice, prec, allow_relative)
        red = reduce_g1(lattice.tau(), prec)
        quarter_log = CertifiedReal.rounded(log(red.reduced.det_im()) / 4)
        c_rg = constants.M_const(2, 1, prec)
        return (theta_point_height
                - fal.height * CertifiedReal.exact(mpf(1) / 2)
                - quarter_log - c_rg)


# ---------------------------------------------------------------------------
# test corpus


def load_corpus(path=None) -> list[EllipticCurveQ]:
    """Curves over Q with full rational 2-torsion whose models carry a
    gcd(c4, disc) = 1 certificate of minimality and semistability (see
    scripts/make_corpus.py)."""
    if path is None:
        ref = importlib.resources.files("thetaheights").joinpath("data/curves.csv")
        with ref.open() as fh:
            return _parse_corpus(fh)
    with open(path) as fh:
        return _parse_corpus(fh)


def _parse_corpus(fh) -> list[EllipticCurveQ]:
    out = []
    for row in csv.DictReader(fh):
        out.append(EllipticCurveQ.from_coefficients(
            Fraction(row["a1"]), Fraction(row["a2"]), Fraction(row["a3"]),
            Fraction(row["a4"]), Fraction(row["a6"]),
            minimal=row["minimal"].strip().lower() == "true",
            semistable=row["semistable"].strip().lower() == "true",
            label=row.get("label", "")))
    return out
