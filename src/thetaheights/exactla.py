"""Exact linear algebra on small matrices.

Matrices are tuples of row tuples, with integer entries (``IntMat``) or
rational ones (``Mat``).  Every determinant, inverse and definiteness test
here is one fraction-free elimination, Bareiss' over the Gaussian integers
(``gauss_det``, ``gauss_adjugate``) or, for a real symmetric matrix, over
the integers (``minors_and_adjugate``): a rational matrix is cleared to an
integer one over a common denominator first, so no Fraction is divided
during elimination.  It backs the Siegel action and reduction, and the
certified tail bounds through ``min_eig_lower_bound``.
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


def _int_step(rows, top, k: int, prev: int) -> None:
    """``_bareiss_step`` over Z, for a real matrix, on whole rows: each row
    of ``rows`` becomes (top[k] row - row[k] top) / prev in place, an exact
    division."""
    piv = top[k]
    for row in rows:
        f = row[k]
        row[:] = [(piv * v - f * t) // prev for v, t in zip(row, top)]


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


def minors_and_adjugate(y: IntMat) -> tuple[tuple[int, ...], IntMat | None]:
    """(D, adj y) for a symmetric integer y, by the Gauss-Jordan form of the
    elimination on [y | I] without row exchange: its pivots are the leading
    minors D_1, D_2, ..., and it stops after the first that is not positive,
    with adj None.  Otherwise y is positive definite (Sylvester), [y | I]
    ends as [D_g I | adj y], and the LDL^T pivots are D_k / D_(k-1).  The
    input is real, so the steps run over Z (``_int_step``)."""
    n = len(y)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(y)]
    minors: list[int] = []
    prev = 1
    for k in range(n):
        minors.append(a[k][k])
        if minors[-1] <= 0:
            return tuple(minors), None
        _int_step(a[:k] + a[k + 1:], a[k], k, prev)
        prev = a[k][k]
    return tuple(minors), tuple(tuple(row[n:]) for row in a)


def inverse(a: Mat) -> Mat:
    """Exact inverse of a nonsingular rational matrix: with L the least
    common denominator of its entries, a^-1 = L R / d for (d, R) the
    ``gauss_adjugate`` of the integer matrix L a.  Raises ZeroDivisionError
    when a is singular."""
    den = lcm(*(Fraction(v).denominator for row in a for v in row))
    (d, _), adj = gauss_adjugate([[(int(v * den), 0) for v in row] for row in a])
    return tuple(tuple(Fraction(den * v, d) for v, _ in row) for row in adj)


def _laguerre_step(d: int, adj: IntMat) -> tuple[int, int]:
    """(num, den) with num / den <= g d / (T + sqrt((g - 1)(g F - T^2))),
    T = tr adj, F = ||adj||_F^2, the square root rounded up to 2^-70 of T."""
    g = len(adj)
    t = sum(adj[i][i] for i in range(g))
    k = max(0, 71 - t.bit_length())
    q = (g - 1) * (g * sum(v * v for row in adj for v in row) - t * t) << 2 * k
    r = isqrt(q)
    return g * d << k, (t << k) + r + (r * r < q)


def min_eig_lower_bound(y: IntMat, s: int, start: tuple) -> Fraction:
    """Exact lower bound lambda on the smallest eigenvalue lambda_1 of Y / 2^s
    (Y symmetric, integer), lambda_1 - lambda <= 2^-60 lambda; 0 when Y is
    not positive definite.  ``start`` is ``minors_and_adjugate(y)``, which
    the caller holds.

    Laguerre's iteration on the real-rooted p(mu) = det(Y - mu 2^s I) rises
    from mu = 0 towards lambda_1 and never passes it, each step at least
    1/G >= (lambda_1 - mu) / g (Parlett, Math. Comp. 18, 1964).  Iterate mu
    = m 2^-e is one ``minors_and_adjugate`` of M = 2^e (Y 2^-s - mu I); its
    step g / (G + sqrt((g - 1)(g H - G^2))), with d = det M, G = tr adj M / d
    and H = ||adj M||_F^2 / d^2, is rounded down: the root up
    (``_laguerre_step``), the step onto the grid 2^-e, e = s + k, k >= 0 the
    least that puts the first iterate g 2^63 units or more above 0 (so at
    g = 1, where the step is exact, lambda = Y / 2^s).  An iterate counts
    only if D_1 .. D_(g-1) > 0 and D_g >= 0: by interlacing M then has at
    most one eigenvalue <= 0, and det M >= 0 makes it >= 0: mu <= lambda_1.
    A step onto lambda_1 with a zero minor fails; it steps down one unit,
    and a second failure raises ArithmeticError.  As tr M^-1 <= g /
    (lambda_1 - mu), it stops at g d 2^60 <= m tr adj M, or d = 0.
    """
    g = len(y)
    minors, adj = start
    m = k = 0
    stepped_down = False
    while True:
        if len(minors) < g or minors[-1] < 0:
            if m == 0:
                return Fraction(0)
            if stepped_down:
                raise ArithmeticError("the eigenvalue bound failed its certificate")
            m -= 1
            stepped_down = True
        else:
            d = minors[-1]
            if d == 0 or g * d << 60 <= m * sum(adj[i][i] for i in range(g)):
                return Fraction(m, 1 << (s + k))
            num, den = _laguerre_step(d, adj)
            if m == 0:
                k = max(0, 64 + g.bit_length() + den.bit_length() - num.bit_length())
                num <<= k
            m += num // den
        minors, adj = minors_and_adjugate(tuple(
            tuple((v << k) - m * (i == j) for j, v in enumerate(row))
            for i, row in enumerate(y)))
