"""Siegel upper half space: points, symplectic action, reduction.

A point is a g x g complex symmetric matrix tau = X + iY with Y positive
definite.  ``SiegelPoint`` checks a point once, where it is made: g >= 1,
both parts g x g, every entry finite and tau = tau^T; definiteness is
``y_positive_definite``.  Reduction targets the classical fundamental domain
conditions:

  S.1  det Im(gamma.tau) <= det Im(tau) for all symplectic gamma,
  S.2  |Re tau_ij| <= 1/2,
  S.3  Minkowski-type conditions on Im tau.

S.1 and the first bullet of S.3 cannot be verified by finite computation;
reports check them against finite samples and say so explicitly.

Everything exact runs on one integer form of a point, tau = (X + iY) / 2^s
with X, Y integer matrices (``SiegelPoint.int_form``), through one
fraction-free elimination, Bareiss' over Z[i] (``exactla``).  Y is
eliminated once per point (``minors_and_adjugate``): its leading minors D_k
give definiteness and det Y = D_g, its adjugate (Im tau)^-1 = 2^s adj Y /
det Y and the first step of the lambda_min bound (``min_eig_lower_bound``).
S.1 is decided by the identity det Im(gamma.tau) = det Im tau /
|det(lam tau + mu)|^2: det(lam tau + mu) 2^(gs) is the determinant of the
Gaussian-integer matrix lam (X + iY) + mu 2^s, in closed form at g <= 2 and
by the elimination above (``_denominator_det``), and S.1 for gamma is the
integer test |det|^2 >= 2^(2gs) (``_s1_holds``).  ``act`` inverts the same
matrix by the Gauss-Jordan form of the elimination.  No test carries a
tolerance: each verdict is exact on the stored point, ties passing (the
closed domain).

``reduce_heuristic`` is the one reduction loop, for every g (``reduce_g1``
is its g = 1 case, required to converge).  Its translations and basis
changes are exact integer-form moves, (X + b 2^s + iY) / 2^s and (U^T X U +
i U^T Y U) / 2^s, which keep det Im tau; only a generator move rounds, once,
in ``act``.  gamma is integer bookkeeping: its four blocks are updated at
each move, and checked symplectic once, when the loop ends.
"""
from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd
from operator import mul

from mpmath import mp, mpf, mpc, fabs, workprec
from mpmath.libmp import (finf, fnan, fninf, from_int, from_man_exp, fzero, mpf_div,
                          round_nearest)

from .certified import DEFAULT_PREC, GUARD_BITS
from .exactla import (IntMat, Mat, dyadic, gauss_adjugate,
                      gauss_det, gaussian, min_eig_lower_bound,
                      minors_and_adjugate)


class NumericalFailure(ArithmeticError):
    """lam*tau + mu is singular, or rounding the image of tau left its
    imaginary part not positive definite."""


class ReductionError(RuntimeError):
    """Reduction did not converge within the iteration cap."""


def as_mpc(x) -> mpc:
    """x as an mpc without rounding: mpf and mpc entries keep their exact
    value (``mpc(x)`` would round them to mp.prec); ints, floats and strings
    are converted at the precision of the enclosing ``workprec``."""
    if isinstance(x, mpc):
        return x
    if isinstance(x, mpf):
        return mp.make_mpc((x._mpf_, fzero))
    return mpc(x)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class SiegelPoint:
    """tau = re + i im, checked where it is made: g >= 1, both parts g x g,
    every entry finite and tau = tau^T, else ``ValueError``; so no function
    is ever handed a point that fails one of these."""
    g: int
    re: tuple[tuple[mpf, ...], ...]
    im: tuple[tuple[mpf, ...], ...]

    def __post_init__(self):
        g = self.g
        if g < 1:
            raise ValueError("g must be >= 1")
        for part in (self.re, self.im):
            if len(part) != g or any(len(row) != g for row in part):
                raise ValueError(f"tau must be {g} x {g}")
            if any(x._mpf_ in (finf, fninf, fnan) for row in part for x in row):
                raise ValueError("tau has a non-finite entry")
            if tuple(zip(*part)) != part:
                raise ValueError("tau must be symmetric")

    @classmethod
    def from_rows(cls, rows) -> "SiegelPoint":
        """tau from its rows; entries are taken as ``as_mpc`` takes them, so
        mpf and mpc entries are stored exactly, whatever mp.prec is."""
        ze = [[as_mpc(x)._mpc_ for x in row] for row in rows]
        re, im = (tuple(tuple(mp.make_mpf(z[k]) for z in row) for row in ze) for k in (0, 1))
        return cls(len(ze), re, im)

    @classmethod
    def from_complex(cls, tau) -> "SiegelPoint":
        """g = 1 convenience constructor."""
        return cls.from_rows([[tau]])

    def entry(self, i: int, j: int) -> mpc:
        """tau_ij exactly as stored, whatever mp.prec is."""
        return mp.make_mpc((self.re[i][j]._mpf_, self.im[i][j]._mpf_))

    # Exact data of tau, computed once per point (the point is frozen), all
    # from the integer form through the elimination of ``exactla``.

    @cached_property
    def int_form(self) -> tuple[IntMat, IntMat, int]:
        """(X, Y, s) with tau = (X + iY) / 2^s exactly: X and Y integer
        matrices, s >= 0 the least shift that clears every binary exponent
        of the stored entries."""
        parts = [[[dyadic(v._mpf_) for v in row] for row in part]
                 for part in (self.re, self.im)]
        s = max([0] + [-e for part in parts for row in part for m, e in row if m])
        x, y = (tuple(tuple(m << (e + s) for m, e in row) for row in part)
                for part in parts)
        return x, y, s

    @cached_property
    def _y_elim(self) -> tuple[tuple[int, ...], IntMat | None]:
        """The one elimination of the integer Y, ``minors_and_adjugate``:
        its leading minors D_1, D_2, ... up to the first that is not
        positive, and adj Y when all are positive."""
        return minors_and_adjugate(self.int_form[1])

    @property
    def y_positive_definite(self) -> bool:
        """Sylvester's criterion: every leading minor of Y is positive."""
        return self._y_elim[1] is not None

    @cached_property
    def _y_det_scaled(self) -> int:
        """det Y of the integer form: det Im tau times 2^(gs).  It is D_g;
        only a Y with a leading minor <= 0 needs a second elimination."""
        minors, adj = self._y_elim
        if adj is not None:
            return minors[-1]
        return gauss_det(gaussian(self.int_form[1]))[0]

    @cached_property
    def y_inverse(self) -> Mat:
        """(Im tau)^-1 = 2^s adj Y / det Y, exact, for a positive definite
        Im tau."""
        minors, adj = self._y_elim
        if adj is None:
            raise ValueError("Im tau is not positive definite")
        s = self.int_form[2]
        return tuple(tuple(Fraction(v << s, minors[-1]) for v in row) for row in adj)

    @cached_property
    def y_min_eig_lower_bound(self) -> Fraction:
        """Exact lower bound on the smallest eigenvalue of Im tau, within
        2^-60 relatively (``exactla.min_eig_lower_bound``); 0 when Im tau
        is not positive definite."""
        _, y, s = self.int_form
        return min_eig_lower_bound(y, s, self._y_elim)

    @cached_property
    def y_det(self) -> Fraction:
        return Fraction(self._y_det_scaled, 1 << (self.g * self.int_form[2]))

    def det_im(self) -> mpf:
        """det Im tau rounded once, to nearest, at mp.prec."""
        return mp.make_mpf(from_man_exp(self._y_det_scaled, -self.g * self.int_form[2],
                                        mp.prec, round_nearest))

    def tau_complex(self) -> mpc:
        if self.g != 1:
            raise ValueError("tau_complex is for g = 1")
        return self.entry(0, 0)


@cache
def _int_identity(g: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(g)) for i in range(g))


def _int_zero(g: int) -> IntMat:
    return tuple(tuple(0 for _ in range(g)) for _ in range(g))


def _int_mul(a: IntMat, b: IntMat) -> IntMat:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def _int_add(a: IntMat, b: IntMat) -> IntMat:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def _int_t(a: IntMat) -> IntMat:
    return tuple(zip(*a))


def _int_neg(a: IntMat) -> IntMat:
    return tuple(tuple(-x for x in row) for row in a)


def _gauss_affine(a: IntMat, b: IntMat, tau: SiegelPoint) -> list:
    """(a tau + b) 2^s over Z[i], from the integer form tau = (X + iY) / 2^s;
    X and Y are symmetric, so their rows are their columns."""
    x, y, s = tau.int_form
    return [[(sum(map(mul, ar, xr)) + (bv << s), sum(map(mul, ar, yr)))
             for xr, yr, bv in zip(x, y, br)] for ar, br in zip(a, b)]


def _denominator_det(gamma: "SymplecticMatrix", tau: SiegelPoint) -> tuple[int, int]:
    """det N over Z[i], N = (lam tau + mu) 2^s = lam X + mu 2^s + i lam Y:
    det(lam tau + mu) 2^(gs).  At g <= 2 in closed form from the integer
    form (the one entry of N at g = 1, ad - bc of its four entries at
    g = 2, reading X and Y as symmetric); at g >= 3 by ``gauss_det``."""
    g = tau.g
    if g > 2:
        return gauss_det(_gauss_affine(gamma.lam, gamma.mu, tau))
    x, y, s = tau.int_form
    if g == 1:
        l = gamma.lam[0][0]
        return l * x[0][0] + (gamma.mu[0][0] << s), l * y[0][0]
    (xa, xb), (_, xc) = x
    (ya, yb), (_, yc) = y
    (ar, ai, br, bi), (cr, ci, dr, di) = (
        (p * xa + q * xb + (m0 << s), p * ya + q * yb,
         p * xb + q * xc + (m1 << s), p * yb + q * yc)
        for (p, q), (m0, m1) in zip(gamma.lam, gamma.mu))
    return ar * dr - ai * di - br * cr + bi * ci, ar * di + ai * dr - br * ci - bi * cr


@dataclass(frozen=True)
class SymplecticMatrix:
    """2g x 2g integer matrix [[alpha, beta], [lam, mu]] preserving the
    standard symplectic form.  Construction rejects blocks that are not
    g x g and matrices that are not symplectic: the action and the S.1
    identity det Im(gamma.tau) = det Im tau / |det(lam tau + mu)|^2 hold
    only for symplectic gamma."""
    g: int
    alpha: IntMat
    beta: IntMat
    lam: IntMat
    mu: IntMat

    def __post_init__(self):
        for block in (self.alpha, self.beta, self.lam, self.mu):
            if len(block) != self.g or any(len(row) != self.g for row in block):
                raise ValueError(f"symplectic matrix blocks must be "
                                 f"{self.g} x {self.g}")
        if not self.is_symplectic():
            raise ValueError("matrix is not symplectic")

    def is_symplectic(self) -> bool:
        at_l = _int_mul(_int_t(self.alpha), self.lam)
        bt_m = _int_mul(_int_t(self.beta), self.mu)
        rel = _int_add(_int_mul(_int_t(self.alpha), self.mu),
                       _int_neg(_int_mul(_int_t(self.lam), self.beta)))
        return (at_l == _int_t(at_l) and bt_m == _int_t(bt_m)
                and rel == _int_identity(self.g))

    @classmethod
    @cache
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
        return cls(g, _int_t(u), _int_zero(g), _int_zero(g), _unimodular_inverse(u))

    @property
    def blocks(self) -> tuple[IntMat, IntMat, IntMat, IntMat]:
        return self.alpha, self.beta, self.lam, self.mu

    def compose(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        """Matrix product self * other (self acts after other)."""
        return SymplecticMatrix(self.g, *_block_product(self.blocks, other.blocks))

    def inverse(self) -> "SymplecticMatrix":
        return SymplecticMatrix(self.g, _int_t(self.mu), _int_neg(_int_t(self.beta)),
                                _int_neg(_int_t(self.lam)), _int_t(self.alpha))

    @cached_property
    def keeps_det_im(self) -> bool:
        """lam = 0: then alpha^T mu = I forces |det mu| = 1, so det Im(gamma.tau)
        = det Im tau / |det mu|^2 = det Im tau for every tau, and S.1 needs
        no determinant for gamma."""
        return not any(any(row) for row in self.lam)


def _unimodular_inverse(u: IntMat) -> IntMat:
    """u^-1 for unimodular u, else ``ValueError``: ``gauss_adjugate`` gives
    d = +-det u and R = d u^-1, so u^-1 = d R when det u = +-1."""
    try:
        (d, _), adj = gauss_adjugate(gaussian(u))
    except ZeroDivisionError:
        d = 0
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(d * x for x, _ in row) for row in adj)


def _block_product(p, q) -> tuple[IntMat, IntMat, IntMat, IntMat]:
    """The blocks of [[a, b], [l, m]] [[a', b'], [l', m']], each given by
    its four blocks, with no symplecticity check."""
    a, b, l, m = p
    a2, b2, l2, m2 = q
    return (_int_add(_int_mul(a, a2), _int_mul(b, l2)),
            _int_add(_int_mul(a, b2), _int_mul(b, m2)),
            _int_add(_int_mul(l, a2), _int_mul(m, l2)),
            _int_add(_int_mul(l, b2), _int_mul(m, m2)))


def sl2_s() -> SymplecticMatrix:
    return SymplecticMatrix.inversion(1)


# ---------------------------------------------------------------------------
# action


def act(gamma: SymplecticMatrix, tau: SiegelPoint, prec: int = DEFAULT_PREC) -> SiegelPoint:
    """(alpha tau + beta)(lam tau + mu)^{-1}, exact, rounded once.

    On the integer form tau = (X + iY) / 2^s, with P = (alpha tau + beta) 2^s
    and N = (lam tau + mu) 2^s over Z[i], gamma.tau = P N^-1 = P adj conj(d)
    / |d|^2 where ``gauss_adjugate`` gives d = +-det N and adj = d N^-1.
    The Gaussian-integer numerator is symmetrized over the one positive
    denominator 2|d|^2 and each entry is correctly rounded to prec + 32 bits
    by one ``mpf_div`` of integers (``from_rational``'s division, with the
    denominator converted once), whatever mp.prec is: the rational is the
    exact image, so the point is the one any exact evaluation rounds to.
    The numerators of (i, j) and (j, i) are equal, so each pair is rounded
    once.

    In the package, ``reduce_heuristic`` calls it once per generator move
    (step (c)) and once for its certificate's ``action_residual``; its
    translations and basis changes are exact and never act.
    """
    g = tau.g
    if gamma.g != g:
        raise ValueError("dimension mismatch")
    try:
        (dr, di), adj = gauss_adjugate(_gauss_affine(gamma.lam, gamma.mu, tau))
    except ZeroDivisionError as e:
        raise NumericalFailure("lam*tau + mu is singular") from e
    p = _gauss_affine(gamma.alpha, gamma.beta, tau)
    # w = P adj conj(d), entry by entry
    cols = tuple(zip(*adj))
    w = []
    for prow in p:
        wrow = []
        for col in cols:
            ur = sum(a * c - b * e for (a, b), (c, e) in zip(prow, col))
            ui = sum(a * e + b * c for (a, b), (c, e) in zip(prow, col))
            wrow.append((ur * dr + ui * di, ui * dr - ur * di))
        w.append(wrow)
    den = from_int(2 * (dr * dr + di * di))
    bits = prec + 32

    def sym(part: int) -> tuple[tuple[mpf, ...], ...]:
        rows = [[None] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                rows[i][j] = rows[j][i] = mp.make_mpf(mpf_div(
                    from_int(w[i][j][part] + w[j][i][part]), den, bits, round_nearest))
        return tuple(map(tuple, rows))

    out = SiegelPoint(g, sym(0), sym(1))
    if not out.y_positive_definite:
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
    # finite sampling makes these necessary conditions, not proofs
    s1_note: str = "S.1 checked only against the supplied finite generator list"
    s3_note: str = "S.3 first bullet sampled over primitive xi in {-1,0,1}^g"

    @property
    def all_ok(self) -> bool:
        return self.s2_ok and self.s3_quadform_ok and self.s3_offdiag_ok and self.s1_ok


@cache
def default_generators(g: int) -> tuple[SymplecticMatrix, ...]:
    """Finite S.1 sample, built once per g: the inversion tau -> -tau^-1
    and, for g > 1, the g coordinate inversions (tau_kk -> -1/tau_kk at
    g = 1).  Each has lam != 0; the unit translations and basis swaps of
    the classical list have lam = 0, keep det Im tau (``keeps_det_im``) and
    are the moves of steps (a) and (b) of ``reduce_heuristic``."""
    if g == 1:
        return (sl2_s(),)
    gens = [SymplecticMatrix.inversion(g)]
    for k in range(g):
        e = tuple(tuple(1 if (i == j == k) else 0 for j in range(g)) for i in range(g))
        a = _int_add(_int_identity(g), _int_neg(e))
        gens.append(SymplecticMatrix(g, a, _int_neg(e), e, a))
    return tuple(gens)


def _generators(generators: Sequence[SymplecticMatrix] | None,
                g: int) -> Sequence[SymplecticMatrix]:
    """The S.1 sample: ``generators``, each checked to be of genus g, or
    ``default_generators(g)``."""
    if generators is None:
        return default_generators(g)
    if any(gen.g != g for gen in generators):
        raise ValueError("dimension mismatch")
    return generators


def _s1_holds(gamma: SymplecticMatrix, tau: SiegelPoint) -> bool:
    """S.1 for one generator, the one rule of the reduction loop and of its
    certificate: det Im(gamma.tau) <= det Im tau, ties passing.  By
    det Im(gamma.tau) = det Im tau / |det(lam tau + mu)|^2 this is
    |det(lam tau + mu)|^2 >= 1, and with N = (lam tau + mu) 2^s over Z[i]
    the integer test |det N|^2 >= 2^(2gs), det N by ``_denominator_det``
    (in closed form at g <= 2); a singular lam tau + mu (the image at
    infinity) fails.  A generator that keeps det Im tau passes with no
    determinant."""
    if gamma.keeps_det_im:
        return True
    dr, di = _denominator_det(gamma, tau)
    return dr * dr + di * di >= 1 << (2 * tau.g * tau.int_form[2])


def fundamental_domain_report(tau: SiegelPoint,
                              generators: Sequence[SymplecticMatrix] | None = None,
                              prec: int = DEFAULT_PREC) -> FundamentalDomainReport:
    """S.1, S.2 and S.3 decided exactly, with no slack and ties passing, by
    integer comparisons on the integer form tau = (X + iY) / 2^s: S.2 is
    2 |X_ij| <= 2^s, S.3 fails where Y_kk > xi^T Y xi and asks Y_k,k+1 >= 0,
    and S.1 is ``_s1_holds`` for each generator: one determinant over Z[i],
    none for a generator that keeps det Im tau.  ``s1_generators_checked``
    counts the generators that constrain S.1 (lam != 0).  Only
    ``s2_max_abs_re`` is rounded, once."""
    g = tau.g
    generators = _generators(generators, g)
    x, y, s = tau.int_form

    max_re = max(abs(v) for row in x for v in row)
    s2_ok = max_re << 1 <= 1 << s

    s3_quad = True
    checked = 0
    for xi in itertools.product((-1, 0, 1), repeat=g):
        q = sum(xi[i] * y[i][j] * xi[j] for i in range(g) for j in range(g))
        for k in range(g):
            if gcd(*xi[k:]) != 1:
                # primitivity condition (xi_k, ..., xi_g) = 1 fails, for
                # every k when xi = 0
                continue
            checked += 1
            if y[k][k] > q:
                s3_quad = False

    s3_off = all(y[k][k + 1] >= 0 for k in range(g - 1))
    s1_ok = all(_s1_holds(gen, tau) for gen in generators)
    max_re_m = mp.make_mpf(from_man_exp(max_re, -s, prec + GUARD_BITS, round_nearest))
    return FundamentalDomainReport(g, s2_ok, max_re_m, s3_quad, s3_off, s1_ok,
                                   sum(not gen.keeps_det_im for gen in generators),
                                   checked)


# ---------------------------------------------------------------------------
# reduction


# The one iteration cap of the reduction loop.  A g = 1 point next to the
# real axis takes many: (sqrt 5 - 1)/2 + 10^-60 i, stored to 300 bits,
# takes 74 iterations.
MAX_ITER = 256

# exact LLL on a Gram matrix; delta fixed high for reduction quality
LLL_DELTA = Fraction(99, 100)

# LLL, order and sign passes of ``reduced_basis_change`` before it gives up
BASIS_ROUNDS = 16


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


def _action_residual(gamma, tau, reduced, prec) -> mpf:
    """max |act(gamma, tau) - reduced| over the entries on and above the
    diagonal: both points are symmetric."""
    chk = act(gamma, tau, prec)
    r = mpf(0)
    for i in range(tau.g):
        for j in range(i, tau.g):
            r = max(r, fabs(chk.entry(i, j) - reduced.entry(i, j)))
    return r


def compose_word(word, g: int = 1) -> SymplecticMatrix:
    """Exact product of a reduction word, each move a checked
    ``SymplecticMatrix``: the certificate's independent checker of the
    gamma that ``reduce_heuristic`` carries through its loop (it is not
    called there)."""
    gamma = SymplecticMatrix.identity(g)
    for move in word:
        if move[0] == "U":
            gamma = SymplecticMatrix.basis_change(move[1]).compose(gamma)
        elif move[0] == "B":
            gamma = SymplecticMatrix.translation(move[1]).compose(gamma)
        elif move[0] == "G":
            gamma = move[1].compose(gamma)
        else:
            raise ValueError(f"unknown move {move[0]!r}")
    return gamma


def lll_gram(gram: IntMat) -> IntMat:
    """Integral LLL on the positive definite integer Gram matrix ``gram``,
    with delta = ``LLL_DELTA`` (Cohen, *A Course in Computational Algebraic
    Number Theory*, Alg. 2.6.7).

    Returns a unimodular integer matrix U whose columns are the reduced basis
    in terms of the old one, i.e. U^T G U is LLL-reduced.  The Gram-Schmidt
    data are integers updated in place: d[i] is the Gram determinant of the
    first i vectors and lam[k][j] = d[j+1] mu_kj.  Vector k is size-reduced
    against j = k-1, ..., 0 before its Lovasz test.  Every test compares
    ratios of the Gram matrix, so a positive multiple of ``gram`` gives the
    same U.
    """
    n = len(gram)
    if n < 2:
        return _int_identity(n)   # one vector is reduced
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = gram[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
    basis = [[int(i == j) for i in range(n)] for j in range(n)]
    num, den = LLL_DELTA.numerator, LLL_DELTA.denominator
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10000:
            raise ReductionError("LLL failed to terminate")
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            if 2 * abs(lk[j]) > dj:
                # r = floor(mu_kj + 1/2)
                r = (2 * lk[j] + dj) // (2 * dj)
                basis[k] = [x - r * y for x, y in zip(basis[k], basis[j])]
                lk[j] -= r * dj
                for i in range(j):
                    lk[i] -= r * lam[j][i]
        m = lk[k - 1]
        # Lovasz: |b*_k|^2 >= (delta - mu^2) |b*_(k-1)|^2, times d_k d_(k-1)
        if den * (d[k + 1] * d[k - 1] + m * m) >= num * d[k] * d[k]:
            k += 1
            continue
        # swap vectors k - 1 and k (Cohen's SWAPI): d_k and the lam of the
        # later vectors change, lam[k][k-1] does not
        basis[k], basis[k - 1] = basis[k - 1], basis[k]
        lk[:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lk[:k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    return tuple(tuple(basis[j][i] for j in range(n)) for i in range(n))


def _congruence(u: IntMat, a: IntMat) -> IntMat:
    """U^T A U, exact."""
    return _int_mul(_int_mul(_int_t(u), a), u)


def reduced_basis_change(y: IntMat) -> IntMat:
    """Unimodular U with U^T Y U LLL-reduced, diagonal sorted ascending, and
    superdiagonal entries nonnegative; the order and sign passes are what the
    Minkowski-type domain conditions ask of the imaginary part.  Each pass
    compares entries of Y with each other only, so Y may be the integer
    form of Im tau, 2^s times it."""
    g = len(y)
    total = _int_identity(g)
    for _ in range(BASIS_ROUNDS):
        changed = False
        u = lll_gram(y)
        if u != _int_identity(g):
            y = _congruence(u, y)
            total = _int_mul(total, u)
            changed = True
        order = sorted(range(g), key=lambda j: y[j][j])
        if order != list(range(g)):
            p = tuple(tuple(1 if order[j] == i else 0 for j in range(g))
                      for i in range(g))
            y = _congruence(p, y)
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
            y = _congruence(d, y)
            total = _int_mul(total, d)
            changed = True
        if not changed:
            break
    return total


def _from_int_form(x: IntMat, y: IntMat, s: int) -> SiegelPoint:
    """The point (X + iY) / 2^s, stored exactly, with (X, Y, s) as its
    ``int_form``: s must be the least shift, as it is after a B or U move
    of a point's own int_form.  An integer translation X + b 2^s keeps
    every entry of X mod 2 when s > 0, and a congruence U^T X U, U^T Y U by
    a unimodular U has all entries even only where X and Y do (U^-1 is
    integral), so neither makes s reducible."""
    def part(m: IntMat) -> tuple[tuple[mpf, ...], ...]:
        return tuple(tuple(mp.make_mpf(from_man_exp(v, -s)) for v in row) for row in m)
    point = SiegelPoint(len(x), part(x), part(y))
    point.__dict__["int_form"] = x, y, s
    return point


def _s2_translation(tau: SiegelPoint) -> IntMat:
    """b = -round(Re tau) entrywise, halves rounded up, read off the integer
    form: b_ij = -floor((2 X_ij + 2^s) / 2^(s+1)), so that Re tau + b lies
    in [-1/2, 1/2)."""
    x, _, s = tau.int_form
    return tuple(tuple(-((2 * v + (1 << s)) >> (s + 1)) for v in row) for row in x)


def reduce_heuristic(tau: SiegelPoint,
                     generators: Sequence[SymplecticMatrix] | None = None,
                     prec: int = DEFAULT_PREC) -> ReductionResult:
    """The reduction loop, for every g: (a) an integer translation of Re tau,
    (b) a unimodular basis change making Im tau LLL-reduced, sorted and
    sign-normalized, (c) the first generator in list order that fails S.1
    (``_s1_holds``, the rule of the certificate); repeated until an
    iteration makes no move, at most ``MAX_ITER`` times.  So a converged
    loop stops exactly where its certificate passes S.1.  At g = 1 the
    default generator S with step (a) makes it Gauss reduction.

    On the integer form tau = (X + iY) / 2^s, (a) and (b) are exact: (a)
    reads b off X and moves to (X + b 2^s + iY) / 2^s, (b) to (U^T X U +
    i U^T Y U) / 2^s.  Neither changes det Im tau (Y is untouched, or
    congruent by U with det U = +-1), so each repeats the previous
    ``det_history`` entry.  Only (c) rounds, once (``act``).  gamma =
    [[alpha, beta], [lam, mu]] is carried through the loop as four integer
    blocks, from the identity's: (a) adds b lam to alpha and b mu to beta,
    (b) takes alpha, beta to U^T alpha, U^T beta and lam, mu to U^-1 lam,
    U^-1 mu (U^-1 by ``_unimodular_inverse``, which checks det U = +-1),
    and (c) multiplies by the generator's blocks.  The final blocks are
    checked symplectic once, by the constructor (an empty word gives the
    identity itself); ``compose_word`` rebuilds the same gamma from the
    word, independently.  S.2 holds exactly on output; whether the output
    lies in the true fundamental domain is reported by the certificate, not
    assumed.

    No step carries a tolerance.  A (c) move raises the exact det Im tau
    strictly (|det(lam tau + mu)| < 1); rounding the image to prec + 32
    bits can undo that only for a point within about 2^-(prec + 28) of an
    S.1 boundary, where the loop may cycle: ``MAX_ITER`` ends it there, and
    the certificate says converged=False.
    """
    g = tau.g
    generators = _generators(generators, g)
    if not tau.y_positive_definite:
        raise ValueError("imaginary part must be positive definite")
    with workprec(prec + 32):
        cur = tau
        word: list = []
        history = [cur.det_im()]
        identity = SymplecticMatrix.identity(g)
        blocks = identity.blocks

        def move(entry, point: SiegelPoint, det: mpf, new_blocks) -> None:
            nonlocal cur, blocks
            cur, blocks = point, new_blocks
            word.append(entry)
            history.append(det)

        def translate() -> bool:
            b = _s2_translation(cur)
            if not any(any(row) for row in b):
                return False
            x, y, s = cur.int_form
            x = tuple(tuple(v + (w << s) for v, w in zip(r, br)) for r, br in zip(x, b))
            a, bt, l, m = blocks
            move(("B", b), _from_int_form(x, y, s), history[-1],
                 (_int_add(a, _int_mul(b, l)), _int_add(bt, _int_mul(b, m)), l, m))
            return True

        converged = False
        for it in range(1, MAX_ITER + 1):
            # (a) integer translation of the real part
            moved = translate()
            # (b) unimodular change of basis making Im LLL-reduced
            x, y, s = cur.int_form
            u = reduced_basis_change(y)
            if u != _int_identity(g):
                ut, ui = _int_t(u), _unimodular_inverse(u)
                move(("U", u), _from_int_form(_congruence(u, x), _congruence(u, y), s),
                     history[-1],
                     tuple(_int_mul(v, blk) for v, blk in zip((ut, ut, ui, ui), blocks)))
                moved = True
            # (c) first generator in list order that fails S.1
            for gen in generators:
                if _s1_holds(gen, cur):
                    continue
                try:
                    point = act(gen, cur, prec)
                except NumericalFailure:
                    continue
                move(("G", gen), point, point.det_im(), _block_product(gen.blocks, blocks))
                moved = True
                break
            if not moved:
                converged = True
                break
        if not converged:
            # final exact S.2 pass: the last iteration may have moved Re tau
            translate()
        gamma = SymplecticMatrix(g, *blocks) if word else identity
        residual = _action_residual(gamma, tau, cur, prec)
    report = fundamental_domain_report(cur, generators, prec)
    cert = ReductionCertificate(tuple(word), tuple(history), report,
                                converged, it, residual)
    return ReductionResult(cur, gamma, cert)


def reduce_g1(tau: SiegelPoint, prec: int = DEFAULT_PREC) -> ReductionResult:
    """Gauss reduction of a g = 1 point into |Re tau| <= 1/2, |tau| >= 1:
    ``reduce_heuristic`` with the default generator S (the translations are
    its step (a)), which must converge.  The word composes exactly to
    gamma, and act(gamma, tau) reproduces the reduced point to working
    precision."""
    if tau.g != 1:
        raise ValueError("reduce_g1 expects g = 1")
    res = reduce_heuristic(tau, prec=prec)
    if not res.certificate.converged:
        raise ReductionError("g=1 reduction exceeded the iteration cap; "
                             "raise the precision")
    return res
