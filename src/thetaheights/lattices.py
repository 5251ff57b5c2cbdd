"""Full-rank lattices in Q^n over Z, and the index-based distance on them.

Everything is exact integer arithmetic; no floating point enters any index
computation.  Lattices are stored in a canonical column-style Hermite normal
form (lower triangular, positive pivots, entries left of each pivot reduced
modulo it) over a minimal global denominator, so equal lattices have
identical representations and the metric axioms can be tested as
identities.

``hnf_columns`` clears each row right of the diagonal with one 2 x 2 column
step per nonzero entry: the determinant-1 matrix [[u, -b/d], [v, a/d]] from
the extended gcd u a + v b = d of the pivot a and the entry b (Cohen,
Alg. 2.4.5).  The HNF of a lattice is unique, so any sequence of unimodular
column steps, this one or Euclid by the smallest entry, ends in the same
matrix, entry for entry.

The index [L1 + L2 : L1 cap L2] comes from one HNF of the sum by the second
isomorphism theorem, [L1 + L2 : L1 cap L2] = det L1 det L2 / det(L1 + L2)^2
(Cohen, A Course in Computational Algebraic Number Theory, 2.4).
``delta_exact`` is its independent oracle: the intersection by duality, and
the index as a determinant ratio checked against SNF divisors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactla import Mat, gauss_det, gaussian

IntRows = tuple[tuple[int, ...], ...]


class LatticeError(ValueError):
    pass


class InvariantBreach(RuntimeError):
    """An internal cross-check (determinant ratio vs SNF divisors) failed."""


# ---------------------------------------------------------------------------
# integer normal forms


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, u, v) with u a + v b = d = +-gcd(a, b)."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return a, u0, v0


def hnf_columns(rows: list[list[int]]) -> list[list[int]]:
    """Column-style HNF of an n x m integer matrix of full row rank n.

    Returns the n x n lower-triangular canonical basis (as rows): positive
    pivots on the diagonal, zeros to the right, and 0 <= H[i][j] < H[i][i]
    for j < i.  Raises ``LatticeError`` for ragged rows or a rank below n.

    The matrix is held as its m columns.  For row i the pivot column p is
    the first column j >= i with a nonzero entry a in row i.  Each later
    column c with a nonzero entry b there is folded into p by one 2 x 2
    step from the extended gcd u a + v b = d (Cohen, Alg. 2.4.5):

        (p, c) <- (u p + v c, (a/d) c - (b/d) p),

    of determinant (u a + v b)/d = 1, so the columns still generate the
    same lattice and c is now 0 in row i; when a divides b the step is the
    plain c <- c - (b/a) p.  The pivot is then made positive and the columns
    left of it are reduced modulo it.  Columns >= i are 0 in the rows above
    i, so no step disturbs a finished row.  A lattice has exactly one HNF
    basis, so the result is the same, entry for entry, as that of any other
    sequence of unimodular column steps, such as Euclid by the smallest
    entry.
    """
    n = len(rows)
    try:
        cols = [list(c) for c in zip(*rows, strict=True)]
    except ValueError:
        raise LatticeError("rows of unequal length") from None
    m = len(cols)
    for i in range(n):
        for j in range(i, m):
            if cols[j][i]:
                break
        else:
            raise LatticeError("matrix does not have full row rank")
        p = cols[j]
        cols[j] = cols[i]
        a = p[i]
        for k in range(j + 1, m):
            c = cols[k]
            b = c[i]
            if not b:
                continue
            if b % a:
                d, u, v = _xgcd(a, b)
                s, t = a // d, b // d
                p, cols[k] = ([u * x + v * y for x, y in zip(p, c)],
                              [s * y - t * x for x, y in zip(p, c)])
                a = d
            else:
                q = b // a
                cols[k] = [y - q * x for x, y in zip(p, c)]
        if a < 0:
            p = [-x for x in p]
            a = -a
        cols[i] = p
        for k in range(i):
            q = cols[k][i] // a
            if q:
                cols[k] = [y - q * x for x, y in zip(p, cols[k])]
    if any(any(c) for c in cols[n:]):
        raise InvariantBreach("nonzero residue column after HNF")
    return [list(r) for r in zip(*cols[:n])]


def snf_divisors(rows) -> list[int]:
    """Elementary divisors d1 | d2 | ... of a nonsingular integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    m = len(a[0])
    k = min(n, m)
    for t in range(k):
        while True:
            # smallest nonzero entry of the trailing block to the pivot slot
            best = None
            for i in range(t, n):
                for j in range(t, m):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                raise LatticeError("singular matrix in SNF")
            bi, bj = best
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for r in a:
                    r[t], r[bj] = r[bj], r[t]
            p = a[t][t]
            clean = True
            for i in range(t + 1, n):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t] != 0:
                    clean = False
            for j in range(t + 1, m):
                q = a[t][j] // p
                if q:
                    for r in a:
                        r[j] -= q * r[t]
                if a[t][j] != 0:
                    clean = False
            if not clean:
                continue
            # divisibility fix-up
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if a[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    return [a[t][t] for t in range(k)]


# ---------------------------------------------------------------------------
# the lattice type


@dataclass(frozen=True)
class IntegerLattice:
    """Full-rank lattice in Q^n: columns of num/den generate it; (num, den)
    is the canonical HNF-with-minimal-denominator form."""
    n: int
    num: IntRows
    den: int

    @classmethod
    def from_rows(cls, rows) -> "IntegerLattice":
        """Rows of a (possibly rational, possibly rectangular n x m) matrix
        whose columns generate the lattice.  Rows of ints are taken over
        den = 1 as they are, without a round trip through Fraction."""
        rows = [list(row) for row in rows]
        if not rows or not all(rows):
            raise LatticeError("empty basis")
        if all(type(x) is int for row in rows for x in row):
            return _from_ints(rows, 1)
        rr = [[Fraction(x) for x in row] for row in rows]
        den = math.lcm(*(x.denominator for row in rr for x in row))
        return _from_ints([[x.numerator * (den // x.denominator) for x in row]
                           for row in rr], den)

    def basis_fractions(self) -> Mat:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    def det(self) -> Fraction:
        return Fraction(_diag_product(self.num), self.den ** self.n)

    def contains(self, vec) -> bool:
        """Exact membership: basis^-1 vec integral (integer forward
        substitution on the lower-triangular HNF)."""
        if len(vec) != self.n:
            raise LatticeError("ambient dimension mismatch")
        v = [Fraction(x) * self.den for x in vec]
        if any(q.denominator != 1 for q in v):
            return False
        return _solve(self.num, [q.numerator for q in v]) is not None

    def contains_lattice(self, other: "IntegerLattice") -> bool:
        return _transition_matrix(self, other) is not None

    def scaled(self, k: int) -> "IntegerLattice":
        if k <= 0:
            raise LatticeError("scale factor must be a positive integer")
        # k H is lower triangular with positive pivots and entries left of
        # each pivot reduced modulo it, so it is already the HNF of k L
        return _reduced([[x * k for x in row] for row in self.num], self.den)

    def transformed(self, u: IntRows) -> "IntegerLattice":
        """Image under an ambient unimodular change of basis: u must be an
        n x n integer matrix of determinant +-1."""
        n = self.n
        if (len(u) != n or any(len(row) != n for row in u)
                or not all(type(x) is int for row in u for x in row)):
            raise LatticeError(f"u must be an {n} x {n} integer matrix")
        if gauss_det(gaussian(u)) not in ((1, 0), (-1, 0)):
            raise LatticeError("u is not unimodular")
        return _from_ints([[sum(u[i][k] * self.num[k][j] for k in range(n))
                            for j in range(n)] for i in range(n)], self.den)


def _from_ints(ints, den: int) -> IntegerLattice:
    """Canonical form of the lattice generated by the columns of ints/den,
    for an integer matrix ``ints`` of full row rank and ``den`` > 0."""
    return _reduced(hnf_columns(ints), den)


def _reduced(h, den: int) -> IntegerLattice:
    """The lattice h/den for an HNF h, over the minimal denominator: the
    content gcd(den, entries of h) is divided out of both."""
    content = math.gcd(den, *(x for row in h for x in row))
    if content > 1:
        h = [[x // content for x in row] for row in h]
        den //= content
    return IntegerLattice(len(h), tuple(tuple(r) for r in h), den)


def _diag_product(h) -> int:
    p = 1
    for i, row in enumerate(h):
        p *= row[i]
    return p


def _solve(h: IntRows, b) -> list[int] | None:
    """The x with h x = b, for lower-triangular integer h with positive
    pivots and an integer vector b, by forward substitution in integers;
    None as soon as a division is inexact (x is not integral)."""
    x: list[int] = []
    for row, bi in zip(h, b):
        q, r = divmod(bi - sum(a * xk for a, xk in zip(row, x)), row[len(x)])
        if r:
            return None
        x.append(q)
    return x


def _sum_generators(l1: IntegerLattice, l2: IntegerLattice):
    """([B1 f1 | B2 f2], d, f1, f2): integer generators of L1 + L2 over the
    common denominator d = lcm(den1, den2), with fi = d / deni."""
    if l1.n != l2.n:
        raise LatticeError("ambient dimension mismatch")
    d = math.lcm(l1.den, l2.den)
    f1 = d // l1.den
    f2 = d // l2.den
    rows = [[x * f1 for x in r1] + [x * f2 for x in r2]
            for r1, r2 in zip(l1.num, l2.num)]
    return rows, d, f1, f2


def lattice_sum(l1: IntegerLattice, l2: IntegerLattice) -> IntegerLattice:
    rows, d, _, _ = _sum_generators(l1, l2)
    return _from_ints(rows, d)


def index(l1: IntegerLattice, l2: IntegerLattice) -> int:
    """[L1 + L2 : L1 cap L2] = det L1 det L2 / det(L1 + L2)^2, from one HNF.

    Over the common denominator d the three determinants are those of the
    integer matrices B1 f1, B2 f2 and H, the HNF of [B1 f1 | B2 f2], so the
    index is det(B1 f1) det(B2 f2) / det(H)^2; a remainder raises."""
    rows, _, f1, f2 = _sum_generators(l1, l2)
    h = hnf_columns(rows)
    n = l1.n
    num = _diag_product(l1.num) * f1 ** n * _diag_product(l2.num) * f2 ** n
    card, rem = divmod(num, _diag_product(h) ** 2)
    if rem:
        raise InvariantBreach("determinant-identity index is not an integer")
    return card


def dual(l: IntegerLattice) -> IntegerLattice:
    """The dual lattice: for the basis B = H/den its basis is
    (B^-1)^T = den adj(H)^T / det H."""
    h = l.num
    d = _diag_product(h)
    # column j of adj(H) = d H^-1 solves H x = d e_j; it is integral, so
    # every step of the forward substitution divides exactly
    adj_cols = [_solve(h, [d if i == j else 0 for i in range(l.n)])
                for j in range(l.n)]
    if None in adj_cols:
        raise InvariantBreach("adjugate of the HNF is not integral")
    # the rows of adj(H)^T are the columns of adj(H)
    return _from_ints([[l.den * x for x in col] for col in adj_cols], d)


def intersect(l1: IntegerLattice, l2: IntegerLattice) -> IntegerLattice:
    """Exact intersection via duality: (L1* + L2*)* for full-rank lattices."""
    if l1.n != l2.n:
        raise LatticeError("ambient dimension mismatch")
    inter = dual(lattice_sum(dual(l1), dual(l2)))
    if not (l1.contains_lattice(inter) and l2.contains_lattice(inter)):
        raise InvariantBreach("intersection is not contained in both lattices")
    return inter


def quotient_card(l_sub: IntegerLattice, l_sup: IntegerLattice) -> int:
    """Index [L_sup : L_sub], computed as a determinant ratio and
    cross-checked against the product of SNF elementary divisors of the
    transition matrix on every call."""
    trans = _transition_matrix(l_sup, l_sub)
    if trans is None:
        raise LatticeError("first argument is not a sublattice of the second")
    n = l_sup.n
    card, rem = divmod(_diag_product(l_sub.num) * l_sup.den ** n,
                       _diag_product(l_sup.num) * l_sub.den ** n)
    if rem:
        raise InvariantBreach("sublattice index is not an integer")
    prod = 1
    for d in snf_divisors(trans):
        prod *= d
    if prod != card:
        raise InvariantBreach(
            f"determinant-ratio index {card} disagrees with SNF product {prod}")
    return card


def _transition_matrix(l_sup: IntegerLattice,
                       l_sub: IntegerLattice) -> list[list[int]] | None:
    """The T with B_sup T = B_sub, that is H_sup T = (den_sup / den_sub) H_sub,
    or None when T is not integral (L_sub is not inside L_sup)."""
    if l_sup.n != l_sub.n:
        raise LatticeError("ambient dimension mismatch")
    cols = []
    for col in zip(*l_sub.num):
        rhs = []
        for c in col:
            q, rem = divmod(l_sup.den * c, l_sub.den)
            if rem:
                return None
            rhs.append(q)
        x = _solve(l_sup.num, rhs)
        if x is None:
            return None
        cols.append(x)
    return [list(r) for r in zip(*cols)]


def delta_exact(l1: IntegerLattice, l2: IntegerLattice):
    """(sum, intersection, exact index of the intersection in the sum),
    the intersection by duality: the independent oracle of ``index``."""
    s = lattice_sum(l1, l2)
    i = intersect(l1, l2)
    return s, i, quotient_card(i, s)


def delta(l1: IntegerLattice, l2: IntegerLattice) -> float:
    """log Card((L1 + L2)/(L1 cap L2)); the degree prefactor is 1 over Q."""
    return math.log(index(l1, l2))


@dataclass(frozen=True)
class ScalingInvarianceReport:
    index_before: int
    index_unimodular: int
    index_scaled: int

    @property
    def ok(self) -> bool:
        return self.index_before == self.index_unimodular == self.index_scaled


def scaling_invariance_check(l1: IntegerLattice, l2: IntegerLattice, k: int,
                             u: IntRows | None = None) -> ScalingInvarianceReport:
    """delta is unchanged by a simultaneous unimodular ambient change of
    basis and by simultaneous scaling, exactly."""
    if u is None:
        u = tuple(tuple(1 if i == j else 0 for j in range(l1.n)) for i in range(l1.n))
    return ScalingInvarianceReport(index(l1, l2),
                                   index(l1.transformed(u), l2.transformed(u)),
                                   index(l1.scaled(k), l2.scaled(k)))
