"""Siegel upper half space: points, symplectic action, reduction.

A point is a g x g complex symmetric matrix tau = X + iY with Y positive
definite.  Reduction targets the classical fundamental domain conditions:

  S.1  det Im(gamma.tau) <= det Im(tau) for all symplectic gamma,
  S.2  |Re tau_ij| <= 1/2,
  S.3  Minkowski-type conditions on Im tau.

S.1 and the first bullet of S.3 cannot be verified by finite computation;
reports check them against finite samples and say so explicitly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from mpmath import mp, mpf, mpc, fabs, matrix, mnorm, workprec

from .certified import DEFAULT_PREC
from .exactla import (Mat, det, fraction_to_mpf, identity as frac_identity,
                      inverse, ldl_pivots, matmul, min_eig_lower_bound,
                      mpf_to_fraction, transpose)


class NumericalFailure(ArithmeticError):
    """A matrix was too close to singular for the working precision."""


class ReductionError(RuntimeError):
    """Reduction did not converge within the iteration cap."""


def default_tol(prec: int) -> mpf:
    # half the bits: act() accepts lam*tau + mu with condition number up to
    # 2^((prec+32)/2), so reduced entries are only good to about that much
    return mpf(2) ** (-(prec // 2))


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class SiegelPoint:
    g: int
    re: tuple[tuple[mpf, ...], ...]
    im: tuple[tuple[mpf, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "SiegelPoint":
        g = len(rows)
        re = []
        im = []
        for row in rows:
            if len(row) != g:
                raise ValueError("tau must be square")
            ze = [mpc(x) for x in row]
            re.append(tuple(mpf(z.real) for z in ze))
            im.append(tuple(mpf(z.imag) for z in ze))
        return cls(g, tuple(re), tuple(im))

    @classmethod
    def from_complex(cls, tau) -> "SiegelPoint":
        """g = 1 convenience constructor."""
        z = mpc(tau)
        return cls(1, ((mpf(z.real),),), ((mpf(z.imag),),))

    def entry(self, i: int, j: int) -> mpc:
        """tau_ij exactly as stored, whatever mp.prec is."""
        return mp.make_mpc((self.re[i][j]._mpf_, self.im[i][j]._mpf_))

    def to_mpmatrix(self) -> matrix:
        m = matrix(self.g, self.g)
        for i in range(self.g):
            for j in range(self.g):
                m[i, j] = self.entry(i, j)
        return m

    # Exact data of Y = Im tau, computed once per point (the point is frozen).

    @cached_property
    def _y(self) -> Mat:
        return tuple(tuple(mpf_to_fraction(x) for x in row) for row in self.im)

    @cached_property
    def y_inverse(self) -> Mat:
        return inverse(self._y)

    @cached_property
    def y_min_eig_lower_bound(self) -> Fraction:
        """Exact lower bound on the smallest eigenvalue of Y; nonpositive
        when Y is not positive definite."""
        return min_eig_lower_bound(self._y)

    @cached_property
    def y_det(self) -> Fraction:
        return det(self._y)

    def im_fractions(self) -> Mat:
        return self._y

    def re_fractions(self) -> Mat:
        return tuple(tuple(mpf_to_fraction(x) for x in row) for row in self.re)

    def det_im(self) -> mpf:
        return fraction_to_mpf(self.y_det)

    def tau_complex(self) -> mpc:
        if self.g != 1:
            raise ValueError("tau_complex is for g = 1")
        return self.entry(0, 0)


IntMat = tuple[tuple[int, ...], ...]


def _int_identity(g: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(g)) for i in range(g))


def _int_zero(g: int) -> IntMat:
    return tuple(tuple(0 for _ in range(g)) for _ in range(g))


def _int_mul(a: IntMat, b: IntMat) -> IntMat:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _int_add(a: IntMat, b: IntMat) -> IntMat:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def _int_t(a: IntMat) -> IntMat:
    return tuple(zip(*a))


def _int_neg(a: IntMat) -> IntMat:
    return tuple(tuple(-x for x in row) for row in a)


def _int_inverse_unimodular(u: IntMat) -> IntMat:
    inv = inverse(tuple(tuple(Fraction(x) for x in row) for row in u))
    out = []
    for row in inv:
        if any(q.denominator != 1 for q in row):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(int(q) for q in row))
    return tuple(out)


@dataclass(frozen=True)
class SymplecticMatrix:
    """2g x 2g integer matrix [[alpha, beta], [lam, mu]] preserving the
    standard symplectic form."""
    g: int
    alpha: IntMat
    beta: IntMat
    lam: IntMat
    mu: IntMat

    def is_symplectic(self) -> bool:
        at_l = _int_mul(_int_t(self.alpha), self.lam)
        bt_m = _int_mul(_int_t(self.beta), self.mu)
        rel = _int_add(_int_mul(_int_t(self.alpha), self.mu),
                       _int_neg(_int_mul(_int_t(self.lam), self.beta)))
        return (at_l == _int_t(at_l) and bt_m == _int_t(bt_m)
                and rel == _int_identity(self.g))

    @classmethod
    def identity(cls, g: int) -> "SymplecticMatrix":
        return cls(g, _int_identity(g), _int_zero(g), _int_zero(g), _int_identity(g))

    @classmethod
    def inversion(cls, g: int) -> "SymplecticMatrix":
        """tau -> -tau^{-1}."""
        return cls(g, _int_zero(g), _int_neg(_int_identity(g)),
                   _int_identity(g), _int_zero(g))

    @classmethod
    def translation(cls, b: IntMat) -> "SymplecticMatrix":
        g = len(b)
        if _int_t(b) != b:
            raise ValueError("translation block must be symmetric")
        return cls(g, _int_identity(g), b, _int_zero(g), _int_identity(g))

    @classmethod
    def basis_change(cls, u: IntMat) -> "SymplecticMatrix":
        """tau -> u^T tau u for unimodular u."""
        g = len(u)
        return cls(g, _int_t(u), _int_zero(g), _int_zero(g), _int_inverse_unimodular(u))

    def compose(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        """Matrix product self * other (self acts after other)."""
        a = _int_add(_int_mul(self.alpha, other.alpha), _int_mul(self.beta, other.lam))
        b = _int_add(_int_mul(self.alpha, other.beta), _int_mul(self.beta, other.mu))
        l = _int_add(_int_mul(self.lam, other.alpha), _int_mul(self.mu, other.lam))
        m = _int_add(_int_mul(self.lam, other.beta), _int_mul(self.mu, other.mu))
        return SymplecticMatrix(self.g, a, b, l, m)

    def inverse(self) -> "SymplecticMatrix":
        return SymplecticMatrix(self.g, _int_t(self.mu), _int_neg(_int_t(self.beta)),
                                _int_neg(_int_t(self.lam)), _int_t(self.alpha))


def sl2_s() -> SymplecticMatrix:
    return SymplecticMatrix.inversion(1)


def sl2_t(k: int = 1) -> SymplecticMatrix:
    return SymplecticMatrix.translation(((k,),))


# ---------------------------------------------------------------------------
# validation and action


@dataclass(frozen=True)
class ValidityReport:
    g: int
    symmetry_defect: mpf
    min_pivot: mpf
    tol: mpf
    valid: bool


def validate(tau: SiegelPoint, prec: int = DEFAULT_PREC) -> ValidityReport:
    """Symmetry defect and smallest exact LDL pivot of Im tau.

    Accepts iff the defect is within tolerance and all pivots are positive.
    The pivots are computed exactly from the dyadic entries, so positive
    definiteness is certified, not estimated.
    """
    from mpmath import isfinite
    for part in (tau.re, tau.im):
        if len(part) != tau.g or any(len(row) != tau.g for row in part):
            raise ValueError("dimension mismatch")
        for row in part:
            for x in row:
                if not isfinite(x):
                    raise ValueError("non-finite entry")
    with workprec(prec + 16):
        defect = mpf(0)
        for i in range(tau.g):
            for j in range(tau.g):
                d = fabs(tau.entry(i, j) - tau.entry(j, i))
                defect = max(defect, d)
    pivots = ldl_pivots(tau.im_fractions())
    min_pivot = fraction_to_mpf(min(pivots))
    tol = default_tol(prec)
    return ValidityReport(tau.g, defect, min_pivot, tol,
                          bool(defect <= tol and min(pivots) > 0))


def act(gamma: SymplecticMatrix, tau: SiegelPoint, prec: int = DEFAULT_PREC) -> SiegelPoint:
    """Apply (alpha tau + beta)(lam tau + mu)^{-1}, symmetrized."""
    g = tau.g
    if gamma.g != g:
        raise ValueError("dimension mismatch")
    with workprec(prec + 32):
        t = tau.to_mpmatrix()
        a = matrix([[mpf(x) for x in row] for row in gamma.alpha])
        b = matrix([[mpf(x) for x in row] for row in gamma.beta])
        l = matrix([[mpf(x) for x in row] for row in gamma.lam])
        m = matrix([[mpf(x) for x in row] for row in gamma.mu])
        den = l * t + m
        try:
            den_inv = den ** -1
        except ZeroDivisionError as e:
            raise NumericalFailure("lam*tau + mu is singular") from e
        if mnorm(den, 1) * mnorm(den_inv, 1) > mpf(2) ** ((prec + 32) // 2):
            raise NumericalFailure("lam*tau + mu is too ill-conditioned")
        res = (a * t + b) * den_inv
        rows = []
        for i in range(g):
            rows.append([(res[i, j] + res[j, i]) / 2 for j in range(g)])
        out = SiegelPoint.from_rows(rows)
    if min(ldl_pivots(out.im_fractions())) <= 0:
        raise NumericalFailure("action produced a non-definite imaginary part")
    return out


# ---------------------------------------------------------------------------
# fundamental domain report


@dataclass(frozen=True)
class FundamentalDomainReport:
    g: int
    s2_ok: bool
    s2_max_abs_re: mpf
    s3_quadform_ok: bool
    s3_offdiag_ok: bool
    s1_ok: bool
    s1_generators_checked: int
    s3_vectors_checked: int
    tol: mpf
    # finite sampling makes these necessary conditions, not proofs
    s1_note: str = "S.1 checked only against the supplied finite generator list"
    s3_note: str = "S.3 first bullet sampled over primitive xi in {-1,0,1}^g"

    @property
    def all_ok(self) -> bool:
        return self.s2_ok and self.s3_quadform_ok and self.s3_offdiag_ok and self.s1_ok


def default_generators(g: int) -> list[SymplecticMatrix]:
    """Finite S.1 sample: inversion, coordinate inversions, unit translations,
    and adjacent basis swaps."""
    if g == 1:
        return [sl2_s(), sl2_t(1)]
    gens = [SymplecticMatrix.inversion(g)]
    for k in range(g):
        e = tuple(tuple(1 if (i == j == k) else 0 for j in range(g)) for i in range(g))
        ide = _int_identity(g)
        a = _int_add(ide, _int_neg(e))
        gens.append(SymplecticMatrix(g, a, _int_neg(e), e, a))
        gens.append(SymplecticMatrix.translation(e))
    for k in range(g):
        for l in range(k + 1, g):
            b = tuple(tuple(1 if {i, j} == {k, l} else 0 for j in range(g)) for i in range(g))
            gens.append(SymplecticMatrix.translation(b))
    for k in range(g - 1):
        p = [[1 if i == j else 0 for j in range(g)] for i in range(g)]
        p[k][k] = p[k + 1][k + 1] = 0
        p[k][k + 1] = p[k + 1][k] = 1
        gens.append(SymplecticMatrix.basis_change(tuple(tuple(r) for r in p)))
    return gens


def fundamental_domain_report(tau: SiegelPoint,
                              generators: list[SymplecticMatrix] | None = None,
                              prec: int = DEFAULT_PREC) -> FundamentalDomainReport:
    g = tau.g
    tol = default_tol(prec)
    tol_f = mpf_to_fraction(tol)
    if generators is None:
        generators = default_generators(g)

    re_f = tau.re_fractions()
    im_f = tau.im_fractions()

    max_re = max(abs(x) for row in re_f for x in row)
    s2_ok = max_re <= Fraction(1, 2) + tol_f

    s3_quad = True
    checked = 0
    for xi in itertools.product((-1, 0, 1), repeat=g):
        if all(x == 0 for x in xi):
            continue
        q = None
        for k in range(g):
            tail_gcd = 0
            for t in xi[k:]:
                tail_gcd = gcd(tail_gcd, abs(t))
            if tail_gcd != 1:
                # primitivity condition (xi_k, ..., xi_g) = 1 fails
                continue
            if q is None:
                q = sum(xi[i] * im_f[i][j] * xi[j] for i in range(g) for j in range(g))
            checked += 1
            if q < im_f[k][k] - tol_f:
                s3_quad = False

    s3_off = all(im_f[k][k + 1] >= -tol_f for k in range(g - 1))

    d0 = tau.det_im()
    s1_ok = True
    for gam in generators:
        try:
            d1 = act(gam, tau, prec).det_im()
        except NumericalFailure:
            continue
        if d1 > d0 + tol * max(mpf(1), d0):
            s1_ok = False
    return FundamentalDomainReport(g, bool(s2_ok), fraction_to_mpf(max_re),
                                   s3_quad, bool(s3_off), s1_ok,
                                   len(generators), checked, tol)


# ---------------------------------------------------------------------------
# reduction


@dataclass(frozen=True)
class ReductionCertificate:
    word: tuple
    det_history: tuple[mpf, ...]
    report: FundamentalDomainReport
    converged: bool
    iterations: int
    action_residual: mpf


@dataclass(frozen=True)
class ReductionResult:
    reduced: SiegelPoint
    gamma: SymplecticMatrix
    certificate: ReductionCertificate


def _round_half_up(x: mpf) -> int:
    from mpmath import floor
    return int(floor(x + mpf(1) / 2))


def _action_residual(gamma, tau, reduced, prec) -> mpf:
    chk = act(gamma, tau, prec)
    r = mpf(0)
    for i in range(tau.g):
        for j in range(tau.g):
            r = max(r, fabs(chk.entry(i, j) - reduced.entry(i, j)))
    return r


def reduce_g1(tau: SiegelPoint, prec: int = DEFAULT_PREC,
              max_iter: int = 256) -> ReductionResult:
    """Classical Gauss reduction of a g = 1 point into |Re| <= 1/2, |tau| >= 1.

    The returned word of generators composes exactly to gamma (integer
    arithmetic), and act(gamma, tau) reproduces the reduced point to working
    precision.
    """
    if tau.g != 1:
        raise ValueError("reduce_g1 expects g = 1")
    tol = default_tol(prec)
    with workprec(prec + 32):
        x = mpf(tau.re[0][0])
        y = mpf(tau.im[0][0])
        if not y > 0:
            raise ValueError("imaginary part must be positive")
        gamma = SymplecticMatrix.identity(1)
        word: list = []
        history = [y]
        converged = False
        for it in range(max_iter):
            t = _round_half_up(x)
            if t != 0:
                x = x - t
                gamma = sl2_t(-t).compose(gamma)
                word.append(("T", -t))
            n2 = x * x + y * y
            if n2 < 1 - tol:
                x, y = -x / n2, y / n2
                gamma = sl2_s().compose(gamma)
                word.append(("S",))
                history.append(y)
                continue
            converged = True
            break
        if not converged:
            raise ReductionError("g=1 reduction exceeded the iteration cap; "
                                 "raise the precision")
        reduced = SiegelPoint.from_rows([[mpc(x, y)]])
        residual = _action_residual(gamma, tau, reduced, prec)
    report = fundamental_domain_report(reduced, prec=prec)
    cert = ReductionCertificate(tuple(word), tuple(history), report, True,
                                it + 1, residual)
    return ReductionResult(reduced, gamma, cert)


def compose_word(word, g: int = 1) -> SymplecticMatrix:
    """Exact product of a reduction word, for certificate checking."""
    gamma = SymplecticMatrix.identity(g)
    for move in word:
        if move[0] == "T":
            gamma = sl2_t(move[1]).compose(gamma)
        elif move[0] == "S":
            gamma = sl2_s().compose(gamma)
        elif move[0] == "U":
            gamma = SymplecticMatrix.basis_change(move[1]).compose(gamma)
        elif move[0] == "B":
            gamma = SymplecticMatrix.translation(move[1]).compose(gamma)
        elif move[0] == "G":
            gamma = move[1].compose(gamma)
        else:
            raise ValueError(f"unknown move {move[0]!r}")
    return gamma


# exact LLL on a Gram matrix; delta fixed high for reduction quality
LLL_DELTA = Fraction(99, 100)


def lll_gram(gram: Mat, delta: Fraction = LLL_DELTA) -> IntMat:
    """Exact LLL over Q for the quadratic form ``gram``.

    Returns a unimodular integer matrix U whose columns are the reduced basis
    in terms of the old one, i.e. U^T G U is LLL-reduced.
    """
    n = len(gram)
    basis = [[Fraction(1 if i == j else 0) for i in range(n)] for j in range(n)]

    def ip(u, v) -> Fraction:
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    def gso():
        star = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            v = list(basis[i])
            for j in range(i):
                mu[i][j] = ip(basis[i], star[j]) / norms[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
            norms.append(ip(v, v))
        return mu, norms

    mu, norms = gso()
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            raise ReductionError("LLL failed to terminate")
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = (mu[k][j] + Fraction(1, 2)).__floor__()
                basis[k] = [x - r * y for x, y in zip(basis[k], basis[j])]
                mu, norms = gso()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            mu, norms = gso()
            k = max(k - 1, 1)
    u_cols = [[int(x) for x in b] for b in basis]
    return tuple(tuple(u_cols[j][i] for j in range(n)) for i in range(n))


def _apply_congruence(tau: SiegelPoint, u: IntMat) -> SiegelPoint:
    rows = []
    for i in range(tau.g):
        rows.append([sum(u[a][i] * tau.entry(a, b) * u[b][j]
                         for a in range(tau.g) for b in range(tau.g))
                     for j in range(tau.g)])
    return SiegelPoint.from_rows(rows)


def _congruence_gram(y: Mat, u: IntMat) -> Mat:
    g = len(y)
    return tuple(tuple(sum(Fraction(u[a][i]) * y[a][b] * u[b][j]
                           for a in range(g) for b in range(g))
                       for j in range(g)) for i in range(g))


def reduced_basis_change(y: Mat, rounds: int = 16) -> IntMat:
    """Unimodular U with U^T Y U LLL-reduced, diagonal sorted ascending, and
    superdiagonal entries nonnegative; the order and sign passes are what the
    Minkowski-type domain conditions ask of the imaginary part."""
    g = len(y)
    total = _int_identity(g)
    for _ in range(rounds):
        changed = False
        u = lll_gram(y)
        if u != _int_identity(g):
            y = _congruence_gram(y, u)
            total = _int_mul(total, u)
            changed = True
        order = sorted(range(g), key=lambda j: y[j][j])
        if order != list(range(g)):
            p = tuple(tuple(1 if order[j] == i else 0 for j in range(g))
                      for i in range(g))
            y = _congruence_gram(y, p)
            total = _int_mul(total, p)
            changed = True
        flips = [1] * g
        ycur = [list(row) for row in y]
        for k in range(g - 1):
            if ycur[k][k + 1] < 0:
                flips[k + 1] = -1
                for i in range(g):
                    ycur[i][k + 1] = -ycur[i][k + 1]
                    ycur[k + 1][i] = -ycur[k + 1][i]
        if any(f == -1 for f in flips):
            d = tuple(tuple(flips[i] if i == j else 0 for j in range(g))
                      for i in range(g))
            y = _congruence_gram(y, d)
            total = _int_mul(total, d)
            changed = True
        if not changed:
            break
    return total


def reduce_heuristic(tau: SiegelPoint,
                     generators: list[SymplecticMatrix] | None = None,
                     prec: int = DEFAULT_PREC,
                     max_iter: int = 64) -> ReductionResult:
    """Iterated translation / exact-LLL / det-improving generator moves.

    Guarantees S.2 exactly on output and a nondecreasing det Im history;
    whether the output lies in the true fundamental domain for g >= 2 is
    reported by the certificate, not assumed.
    """
    g = tau.g
    tol = default_tol(prec)
    if generators is None:
        generators = default_generators(g)
    with workprec(prec + 32):
        cur = tau
        gamma = SymplecticMatrix.identity(g)
        word: list = []
        history = [cur.det_im()]
        converged = False
        it = 0
        while it < max_iter:
            it += 1
            moved = False
            # (a) integer translation of the real part
            b = tuple(tuple(-_round_half_up(cur.re[i][j]) for j in range(g))
                      for i in range(g))
            if any(x != 0 for row in b for x in row):
                move = SymplecticMatrix.translation(b)
                cur = act(move, cur, prec)
                gamma = move.compose(gamma)
                word.append(("B", b))
                history.append(cur.det_im())
                moved = True
            # (b) unimodular change of basis making Im LLL-reduced
            u = reduced_basis_change(cur.im_fractions())
            if u != _int_identity(g):
                move = SymplecticMatrix.basis_change(u)
                cur = _apply_congruence(cur, u)
                gamma = move.compose(gamma)
                word.append(("U", u))
                history.append(cur.det_im())
                moved = True
            # (c) first det-improving generator in list order
            d0 = cur.det_im()
            for gen in generators:
                try:
                    cand = act(gen, cur, prec)
                except NumericalFailure:
                    continue
                if cand.det_im() > d0 * (1 + tol):
                    cur = cand
                    gamma = gen.compose(gamma)
                    word.append(("G", gen))
                    history.append(cur.det_im())
                    moved = True
                    break
            if not moved:
                converged = True
                break
        # final exact S.2 pass
        b = tuple(tuple(-_round_half_up(cur.re[i][j]) for j in range(g))
                  for i in range(g))
        if any(x != 0 for row in b for x in row):
            move = SymplecticMatrix.translation(b)
            cur = act(move, cur, prec)
            gamma = move.compose(gamma)
            word.append(("B", b))
            history.append(cur.det_im())
        residual = _action_residual(gamma, tau, cur, prec)
    report = fundamental_domain_report(cur, generators, prec)
    cert = ReductionCertificate(tuple(word), tuple(history), report,
                                converged, it, residual)
    return ReductionResult(cur, gamma, cert)
