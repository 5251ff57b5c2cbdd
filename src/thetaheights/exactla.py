"""Exact rational linear algebra on small matrices.

Matrices are tuples of row tuples with Fraction entries.  Everything here is
exact; it backs the certified tail bounds (lower bounds on the smallest
eigenvalue of Im tau) and the lattice arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

from mpmath import mpf

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


def fraction_to_mpf(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


def as_mpf(x) -> mpf:
    """mpf from anything numeric, including Fraction (which mpf() rejects)."""
    if isinstance(x, Fraction):
        return fraction_to_mpf(x)
    return mpf(x)


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def matmul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def matvec(a: Mat, v: Vec) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def inf_norm(a: Mat) -> Fraction:
    return max(sum(abs(x) for x in row) for row in a)


def det(a: Mat) -> Fraction:
    """Determinant by fraction-free style Gaussian elimination."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    d = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        d *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return sign * d


def inverse(a: Mat) -> Mat:
    n = len(a)
    m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return tuple(tuple(row[n:]) for row in m)


def _sqrt_upper(q: Fraction) -> Fraction:
    """A rational r with r >= sqrt(q) >= 0, tight to ~1e-18 relatively."""
    if q < 0:
        raise ValueError("negative argument")
    if q == 0:
        return Fraction(0)
    scale = 10 ** 18
    n = q.numerator * scale * scale
    d = q.denominator
    r = isqrt(n // d) + 1
    return Fraction(r, scale)


def ldl_pivots(y: Mat) -> list[Fraction]:
    """Exact pivots of the LDL^T decomposition of a symmetric matrix.

    All pivots positive iff the matrix is positive definite.  Stops early at
    the first nonpositive pivot.
    """
    n = len(y)
    m = [list(row) for row in y]
    pivots: list[Fraction] = []
    for k in range(n):
        p = m[k][k]
        pivots.append(p)
        if p <= 0:
            break
        for i in range(k + 1, n):
            f = m[i][k] / p
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    return pivots


def min_eig_lower_bound(y: Mat) -> Fraction:
    """Exact positive lower bound on the smallest eigenvalue of a symmetric
    positive definite matrix, or a nonpositive number if not definite.

    g = 1 and g = 2 use closed forms; larger g certifies definiteness with
    exact LDL pivots and then uses 1/||Y^-1||_inf, which bounds
    1/lambda_max(Y^-1) for symmetric Y.
    """
    n = len(y)
    if n == 1:
        return y[0][0]
    if n == 2:
        t = y[0][0] + y[1][1]
        d = y[0][0] * y[1][1] - y[0][1] * y[1][0]
        if d <= 0:
            return min(d, Fraction(0))
        disc = t * t - 4 * d
        return (t - _sqrt_upper(disc)) / 2
    piv = ldl_pivots(y)
    if min(piv) <= 0:
        return Fraction(0)
    return 1 / inf_norm(inverse(y))
