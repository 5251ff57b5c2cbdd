"""The two heights of a rational elliptic curve with full 2-torsion.

Theta height: level-2 theta-null coordinates at the reduced period matrix.
The finite places are exact: the fourth powers of the coordinate ratios are
the rational values lam and 1 - lam (a consequence of the quartic identity
among the three even theta constants), and the v-adic max commutes with
fourth powers.  The archimedean place uses the l2 norm of the certified
theta values, per the height convention adopted throughout.

``window_check`` is the one analysis of a curve: one ``periods_agm`` and one
height pipeline give the window, the two lower bounds on h_F and the matrix
lemma (see ``HeightReport``); ``matrix_lemma_check`` reads the last.

Faltings height: h_F = -(1/2) log(covolume/pi) for the period lattice of the
minimal model's invariant differential.  This is the stable height when the
asserted minimal/semistable claims hold.  The flags passed to
``EllipticCurveQ.from_coefficients`` are a caller contract, not verified;
``load_corpus`` rejects a row that asserts either flag without integral
coefficients and the gcd(c4, disc) = 1 certificate.
"""
from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from mpmath import (mp, mpf, mpc, agm, fabs, log, pi, polyroots, sqrt,
                    workprec)

from . import constants
from .certified import (DEFAULT_PREC, GUARD_BITS, CertifiedReal, PrecisionError,
                        Verdict, certified_le)
from .exactla import fraction_to_mpf
from .siegel import ReductionResult, SiegelPoint, default_tol, reduce_g1
from .theta import theta_null_vector


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
    is verified exactly on construction; left at None, they are extracted
    from c4 and c6, which (with disc) are formed once per (frozen) curve.
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


def _depressed_roots(c4: Fraction, c6: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The rational roots of X^3 - 27 c4 X - 54 c6; ValueError unless there
    are three distinct ones."""
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
    reduction: ReductionResult      # of tau, at the prec of periods_agm
    nulls: tuple                    # (theta2, theta3, theta4) at reduction.reduced

    def tau(self) -> SiegelPoint:
        return SiegelPoint.from_complex(self.omega2 / self.omega1)


def periods_agm(curve: EllipticCurveQ, prec: int = DEFAULT_PREC) -> PeriodLattice:
    """AGM periods, the reduction of tau and the theta-nulls there, each once;
    self-checked by reconstructing c4 and c6 via Eisenstein values."""
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
        red = reduce_g1(SiegelPoint.from_complex(omega2 / omega1), prec)
        nulls = _even_nulls(red.reduced, prec)
        _check_lattice_invariants(curve, omega1, omega2, red, nulls, prec)
    return PeriodLattice(omega1, omega2, covol, red, nulls)


def _check_lattice_invariants(curve: EllipticCurveQ, omega1: mpc, omega2: mpc,
                              red: ReductionResult, nulls: tuple, prec: int):
    """Recompute c4, c6 from (omega1, omega2) and compare exactly."""
    gam = red.gamma
    om1p = (gam.lam[0][0] * omega2 + gam.mu[0][0] * omega1)
    t2, t3, t4 = nulls
    e4 = (t2.value ** 8 + t3.value ** 8 + t4.value ** 8) / 2
    e6 = ((t3.value ** 4 + t4.value ** 4) * (t3.value ** 4 + t2.value ** 4)
          * (t4.value ** 4 - t2.value ** 4)) / 2
    scale = 2 * pi / om1p
    tol = default_tol(prec)
    for name, hat, ref in (("c4", scale ** 4 * e4, curve.c4), ("c6", scale ** 6 * e6, curve.c6)):
        ref = fraction_to_mpf(ref)
        if fabs(hat - ref) > tol * max(mpf(1), fabs(ref)):
            raise PeriodError(f"period self-check failed on {name}")


def _even_nulls(tau: SiegelPoint, prec: int):
    """theta constants theta2 = (1/2,0), theta3 = (0,0), theta4 = (0,1/2),
    from the one walk of the level-2 theta-null vector."""
    t3, t4, t2, _ = theta_null_vector(tau, 2, prec)
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
    tol = default_tol(prec)
    err_budget = 8 * (t2.err + t3.err) * (1 + fabs(lhs) + fabs(base))
    matches = [c for c in candidates
               if fabs(lhs - fraction_to_mpf(c) * base) <= (tol + err_budget) * fabs(base)]
    if len(matches) != 1:
        raise PrecisionError(
            f"{len(matches)} cross-ratio candidates match theta2^4/theta3^4; "
            "precision failure or inconsistent two-torsion input")
    return matches[0]


def _finite_part(lam: Fraction) -> CertifiedReal:
    """sum over p of log max(1, |lam|_p^(1/4), |1-lam|_p^(1/4)).  lam and
    1 - lam have the same reduced denominator, so the sum is exactly
    log(den lam) / 4."""
    return CertifiedReal.rounded(log(lam.denominator) / 4)


def _pipeline(curve: EllipticCurveQ, lattice: PeriodLattice,
              prec: int) -> ThetaHeightDetails:
    red = lattice.reduction
    t2, t3, t4 = lattice.nulls
    with workprec(prec + GUARD_BITS):
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
    return ThetaHeightDetails(h, fin, arch, lam, red.reduced, red, jac)


def theta_height_details(curve: EllipticCurveQ,
                         prec: int = DEFAULT_PREC) -> ThetaHeightDetails:
    """``h_theta``: the Weil height of the level-2 theta-null point, l2
    convention at the archimedean place, always nonnegative.  ``lam``: the
    exact rational among the six cross-ratios of the 2-torsion roots that
    matches theta2^4/theta3^4 at the reduced period matrix."""
    return _pipeline(curve, periods_agm(curve, prec), prec)


# ---------------------------------------------------------------------------
# the comparison checks


@dataclass(frozen=True)
class HeightReport:
    """The window, the lower bounds on h_F and the matrix lemma
    |log det Im tau| <= C(1) log(max{h_theta, 1} + 2) at one reduced tau.
    ``matrix_lemma`` sits outside ``verdicts`` and so outside ``all_ok``:
    ``verdicts`` are the window campaign's rows and the ``heights verify``
    document and exit status, while the matrix lemma has its own suite."""
    h_theta: CertifiedReal
    h_faltings: CertifiedReal
    tau_reduced: SiegelPoint
    window_value: CertifiedReal
    lam: Fraction
    stable: bool
    verdicts: dict
    matrix_lemma: Verdict

    @property
    def all_ok(self) -> bool:
        return all(v.ok for v in self.verdicts.values())


def _window(h: CertifiedReal, h_faltings: CertifiedReal,
            log_det_im: mpf) -> CertifiedReal:
    """h - h_F/2 - (1/4) log det Im tau; call inside the working precision."""
    return (h - h_faltings * CertifiedReal.exact(mpf(1) / 2)
            - CertifiedReal.rounded(log_det_im / 4))


def window_check(curve: EllipticCurveQ, prec: int = DEFAULT_PREC,
                 allow_relative: bool = False) -> HeightReport:
    """h_theta - h_F/2 - (1/4) log det Im tau against the [m(2,1), M(2,1)]
    window, the height lower bounds and the matrix lemma, all with
    certified margins, from one ``periods_agm`` and one height pipeline."""
    lattice = periods_agm(curve, prec)
    with workprec(prec + GUARD_BITS):
        det_s = _pipeline(curve, lattice, prec)
        fal = faltings_height_g1(curve, lattice, prec, allow_relative)
        log_det_im = log(det_s.tau_reduced.det_im())
        window = _window(det_s.h_theta, fal.height, log_det_im)
        verdicts = {
            "window_lower": certified_le(constants.m_const(2, 1, prec), window),
            "window_upper": certified_le(window, constants.M_const(2, 1, prec)),
            "bost_lower": certified_le(constants.bost_lower(1, prec), fal.height),
            "hf_lower": certified_le(constants.hF_lower(2, 1, prec), fal.height),
        }
        h = det_s.h_theta
        clipped = CertifiedReal(max(h.value, mpf(1)), h.err)
        rhs = constants.C_matrix(1, prec) * (clipped + CertifiedReal.exact(2)).log()
        matrix_lemma = certified_le(CertifiedReal.rounded(fabs(log_det_im)), rhs)
    return HeightReport(det_s.h_theta, fal.height, det_s.tau_reduced, window,
                        det_s.lam, fal.stable, verdicts, matrix_lemma)


def matrix_lemma_check(curve: EllipticCurveQ, prec: int = DEFAULT_PREC) -> Verdict:
    """|log det Im tau| <= C(1) log(max{h_theta, 1} + 2), certified."""
    return window_check(curve, prec, allow_relative=True).matrix_lemma


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
        log_det_im = log(lattice.reduction.reduced.det_im())
        return (_window(theta_point_height, fal.height, log_det_im)
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
