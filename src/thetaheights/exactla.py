"""Exact linear algebra on small matrices.

Matrices are tuples of row tuples, with integer entries (``IntMat``) or
rational ones (``Mat``).  Every determinant, inverse and definiteness test
here is one fraction-free elimination, Bareiss' over the Gaussian integers
(``gauss_det``, ``gauss_adjugate``, ``leading_minors``): a rational matrix
is cleared to an integer one over a common denominator first, so no
Fraction is divided during elimination.  It backs the Siegel action and
reduction and the certified tail bounds (lower bounds on the smallest
eigenvalue of Im tau).
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

IntMat = tuple[tuple[int, ...], ...]
Mat = tuple[tuple[Fraction, ...], ...]
Vec = tuple[Fraction, ...]


def mpf_to_fraction(x) -> Fraction:
    """Exact dyadic rational equal to the mpf value ``x``; an mpf is taken
    as it is, not rounded to mp.prec."""
    sign, man, exp, _ = (x if isinstance(x, mpf) else mpf(x))._mpf_
    man = int(man)  # the gmpy backend hands out mpz, which Fraction mishandles
    exp = int(exp)
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError("non-finite value has no rational representation")
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def dyadic(x) -> tuple[int, int]:
    """(m, e) with x == m * 2^e exactly, for a raw finite mpf x."""
    sign, man, e, _ = x
    if not man:
        if e:
            raise ValueError("non-finite entry in tau or z")
        return 0, 0
    return (-int(man) if sign else int(man)), e


def fraction_to_mpf(q: Fraction) -> mpf:
    """q rounded once, to nearest, at mp.prec (``mpf(numerator) /
    denominator`` would round the numerator first)."""
    return mp.make_mpf(from_rational(q.numerator, q.denominator, mp.prec, round_nearest))


def as_mpf(x) -> mpf:
    """mpf from anything numeric, including Fraction (which mpf() rejects)."""
    if isinstance(x, Fraction):
        return fraction_to_mpf(x)
    return mpf(x)


def matvec(a: Mat, v: Vec) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


# Gaussian integers a + bi as pairs (a, b); matrices over Z[i] as lists of rows.


def gaussian(a: IntMat) -> list:
    """An integer matrix as a matrix over Z[i]."""
    return [[(v, 0) for v in row] for row in a]


def _bareiss_step(rows, top, k: int, prev, lo: int) -> None:
    """One step of Bareiss' fraction-free elimination over Z[i] (Math. Comp.
    22, 1968), in place: each row of ``rows`` becomes (top[k] row - row[k]
    top) / prev from column ``lo`` on.  Every entry so formed is a minor of
    the input, so the division by the previous pivot ``prev`` is exact."""
    kr, ki = top[k]
    pr, pi = prev
    n2 = pr * pr + pi * pi
    for row in rows:
        fr, fi = row[k]
        for j in range(lo, len(row)):
            (ar, ai), (br, bi) = row[j], top[j]
            cr = kr * ar - ki * ai - fr * br + fi * bi
            ci = kr * ai + ki * ar - fr * bi - fi * br
            row[j] = ((cr * pr + ci * pi) // n2, (ci * pr - cr * pi) // n2)


def gauss_det(m) -> tuple[int, int]:
    """Determinant of a square matrix over Z[i]: after step k of the
    elimination, entry (i, j) of the trailing block is a (k + 2)-minor of m,
    and the last pivot is the determinant up to the sign of the row
    exchanges."""
    n = len(m)
    m = [list(row) for row in m]
    neg = False
    prev = (1, 0)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != (0, 0)), None)
        if piv is None:
            return 0, 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            neg = not neg
        _bareiss_step(m[k + 1:], m[k], k, prev, k + 1)
        prev = m[k][k]
    return (-prev[0], -prev[1]) if neg else prev


def gauss_adjugate(m) -> tuple[tuple[int, int], list]:
    """(d, R) with d = +-det m and R = d m^-1 over Z[i], by the Gauss-Jordan
    form of the elimination on [m | I]: every row is updated at every step,
    and [m | I] ends as [d I | R].  Without a row exchange, d = det m and R
    is the adjugate.  Raises ZeroDivisionError when m is singular."""
    n = len(m)
    a = [list(row) + [(int(i == j), 0) for j in range(n)] for i, row in enumerate(m)]
    prev = (1, 0)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != (0, 0)), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[k], a[piv] = a[piv], a[k]
        _bareiss_step(a[:k] + a[k + 1:], a[k], k, prev, 0)
        prev = a[k][k]
    return prev, [row[n:] for row in a]


def leading_minors(y: IntMat) -> list[int]:
    """Leading principal minors D_1, D_2, ... of an integer matrix: the
    pivots of the elimination taken without row exchange, up to the first
    that is not positive.  A symmetric y is positive definite iff all of
    its minors are positive (Sylvester); the LDL^T pivots of y are
    D_k / D_(k-1)."""
    m = gaussian(y)
    minors: list[int] = []
    prev = (1, 0)
    for k in range(len(m)):
        d = m[k][k]
        minors.append(d[0])
        if d[0] <= 0:
            break
        _bareiss_step(m[k + 1:], m[k], k, prev, k + 1)
        prev = d
    return minors


def inverse(a: Mat) -> Mat:
    """Exact inverse of a nonsingular rational matrix: with L the least
    common denominator of its entries, a^-1 = L R / d for (d, R) the
    ``gauss_adjugate`` of the integer matrix L a.  Raises ZeroDivisionError
    when a is singular."""
    den = lcm(*(Fraction(v).denominator for row in a for v in row))
    (d, _), adj = gauss_adjugate([[(int(v * den), 0) for v in row] for row in a])
    return tuple(tuple(Fraction(den * v, d) for v, _ in row) for row in adj)


def _sqrt_upper(q: Fraction) -> Fraction:
    """A rational r with r >= sqrt(q) >= 0, tight to 1e-18 relatively:
    sqrt(q) rounded up on the grid 10^-18 2^-k, with k = 0 for q >= 1 and
    otherwise just large enough that 2^k sqrt(q) >= 1."""
    if q < 0:
        raise ValueError("negative argument")
    if q == 0:
        return Fraction(0)
    n, d = q.numerator, q.denominator
    k = 0 if n >= d else (d.bit_length() - n.bit_length() + 2) // 2
    scale = 10 ** 18 << k
    return Fraction(isqrt(n * scale * scale // d) + 1, scale)


def min_eig_lower_bound(y: IntMat, s: int) -> Fraction:
    """Exact lower bound on the smallest eigenvalue of the symmetric matrix
    Y / 2^s, Y an integer matrix; nonpositive when Y is not positive definite.

    g = 1 and g = 2 use closed forms (at g = 2 the bound is within 1e-18
    lambda_max of lambda_min); larger g certifies definiteness by the
    leading minors and then uses 1/||(Y / 2^s)^-1||_inf = det Y / (2^s
    ||adj Y||_inf), which bounds 1/lambda_max of the inverse for symmetric Y.
    """
    n = len(y)
    if n == 1:
        return Fraction(y[0][0], 1 << s)
    if n == 2:
        t = Fraction(y[0][0] + y[1][1], 1 << s)
        d = Fraction(y[0][0] * y[1][1] - y[0][1] * y[1][0], 1 << (2 * s))
        if d <= 0:
            return min(d, Fraction(0))
        disc = t * t - 4 * d
        return (t - _sqrt_upper(disc)) / 2
    if min(leading_minors(y)) <= 0:
        return Fraction(0)
    (d, _), adj = gauss_adjugate(gaussian(y))
    return Fraction(d, max(sum(abs(v) for v, _ in row) for row in adj) << s)
