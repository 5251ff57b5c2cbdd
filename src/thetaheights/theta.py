"""Certified evaluation of Riemann theta functions and their invariant norms.

The series is truncated over the box ||n||_inf <= N; the Gaussian tail over
the complement is bounded in closed form from an exact rational lower bound
on the smallest eigenvalue of Im tau, so the reported error is a proven
bound, not an estimate.

The box is summed row by row along the last coordinate (``_row_sum``).  The
exponent of every term is pi*i times an exact dyadic rational, formed in
Python integers from the exact entries of tau and z.  Each row starts at its
peak-magnitude term and walks outward with the recurrences t <- t*rho,
rho <- rho*exp(2 pi i tau_gg step^2) in Python-int fixed point; every
multiplier of a row walk has modulus <= 1.  The start values of a row (its
peak term and first ratios) come from the row before it, by the same kind
of exact-exponent recurrence across rows, and fresh exps are taken only
where such a chain is anchored.  Multipliers across rows can exceed modulus
1, so the chains run at a wider fixed point, with an error bound formed
before the walk from the exact moduli; a row chains only where its start
values are then as accurate as fresh ones, so every row keeps the budget
of a fresh start.  The ulp budget of the walk is derived in ``_row_sum``
and is part of the certified bound.

At z = 0 the exponent of the term at N is D(N) = N^T T N, so D(-N) = D(N)
exactly: the row at the prefix -nn holds the terms of the row at nn,
mirrored along the row.  The lexicographically positive row of such a pair
walks the union of its own span and its mirror's negated span once and
adds each term to both rows' classes; the other row is neither built nor
walked.  A pair whose union would change the step of either row is walked
as two rows, as is the row at nn = 0 and a row whose mirror is not a row
of the walk.  Every radius, tail and box stays as it is, and a lone
characteristic's budget is the one of its own mirrored walk
(``_lone_walk``).

One walk serves every characteristic of a level r at (tau, z).  With
N = r n + a the term of n in theta[a/r; b/r] is exp(pi i D(N) / r^2)
exp(2 pi i N.b / r^2), and D does not depend on a.  So the walk runs over
the integers N in the union of the boxes ||n||_inf <= R_a of the requested
top characteristics m1 = a/r, adds each term to the fixed-point
accumulator of its class N mod r^2 (each coordinate), and only inside the
box of its own a.  ``_theta_groups`` combines the classes of each a with
the roots of unity exp(2 pi i N.b / r^2) into every theta[a/r; b/r].  Each
characteristic thus sums exactly the terms of its own box, and keeps the
tail bound of its own radius.  Inside the engine a characteristic is the
integer pair (a, b) over r; a public ``ThetaCharacteristic`` is converted
once, where it enters.  The radius depends on a only through
s = max_i |a_i/r + u_i|, so ``_theta_batch`` forms s once per distinct a
and runs one radius search per distinct s.  A row steps by 1 along the
last coordinate when the requested a differ in their last entry and by r
otherwise, so a lone characteristic walks only its own lattice.  The
fixed-point width is chosen before the walk, from the rows, their lengths
and their peaks, so that no characteristic's rounding budget is above the
one of its own walk, and no lone walk's budget above the one of its
unmirrored walk at the working precision.  The weights have modulus 1, so
the walk's budget holds for every combination; they are exact for r = 2
(and for r = 4 when the global phase is left out, as norms do), and
otherwise add one stated rounding term.  ``theta`` is the one-member batch, and ``theta_truncated``
the one-member walk at a given radius.

The combination is in integers only: each characteristic leaves
``_theta_groups`` as its fixed-point sum S with an integer rounding budget
and its tail bound (``_Sum``), and two finishers read it.  ``_complex``
rounds S to a ``CertifiedComplex`` (``theta``, ``theta_truncated``,
``theta_null_vector``, ``theta_norm`` and the theta_00 of
``verify_duplication``).  ``_moduli`` bounds |S| between two integers by
``isqrt``, with no mpc; the norm checks (``verify_norm_bounds``,
``beta_sigma`` and F of ``verify_duplication``) scale those integer bounds,
or their squares, by one certified factor per walk.

The radius search (``_radius``, public as ``choose_radius``) decides each
comparison of the tail bound with the target on its log in doubles, with
a proven guard against the double error and the rounding of the certified
bound; inside the guard the certified bound decides, so every radius is
the one the certified bound alone would choose.  The certified tail is evaluated once per
(s, radius), by ``_theta_groups``.

The exact data of Im tau (Y^-1, det Y and the lambda_min lower bound, all
from one elimination of its integer form) are cached on the ``SiegelPoint``,
so every characteristic and every z at one tau reuses them; the data of z (u = Y^-1 Im z and xi)
are formed once per (tau, z) and passed down with z (``_At``).  Every
function here uses z exactly as passed (mpf/mpc entries are not rounded to
mp.prec), so its radius and bound are the ones for that z, and no result
depends on mp.prec.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isqrt

from mpmath import (mp, mpf, mpc, fabs, exp, fmul, isfinite, ldexp, log, pi,
                    sqrt, workprec)
from mpmath.libmp import (from_int, from_man_exp, from_rational, fzero,
                          mpc_expjpi, mpf_mul, round_ceiling, round_floor,
                          round_nearest)

from .certified import (DEFAULT_PREC, GUARD_BITS, CertifiedComplex,
                        CertifiedReal, PrecisionError, Verdict, _eps, certified_le)
from .exactla import dyadic, fraction_to_mpf, matvec, mpf_to_fraction
from .siegel import SiegelPoint, as_mpc

RADIUS_CAP = 4000


class ReduceFirstError(ArithmeticError):
    """Im tau is so skewed that the truncation radius would be astronomical;
    reduce tau before evaluating."""


def _check_level(r: int):
    if r < 2 or r % 2 != 0:
        raise ValueError("level r must be an even integer >= 2")


def default_tol(prec: int) -> mpf:
    # 2^-80 at the default 128 bits: the sums run GUARD_BITS above prec, so
    # the rounding budget stays far below this and the tail takes tol/2
    return mpf(2) ** (-(5 * prec) // 8)


@dataclass(frozen=True)
class ThetaCharacteristic:
    """Pair (m1, m2) of rational vectors with entries in {0, 1/r, ..., (r-1)/r}."""
    r: int
    m1: tuple[Fraction, ...]
    m2: tuple[Fraction, ...]

    def __post_init__(self):
        _check_level(self.r)
        if len(self.m1) != len(self.m2):
            raise ValueError("m1 and m2 must have the same length")
        for v in self.m1 + self.m2:
            if not (0 <= v < 1) or (v * self.r).denominator != 1:
                raise ValueError("entries must lie in {0, 1/r, ..., (r-1)/r}")

    @property
    def g(self) -> int:
        return len(self.m1)

    @classmethod
    def from_integers(cls, r: int, a, b) -> "ThetaCharacteristic":
        return cls(r, tuple(Fraction(x % r, r) for x in a),
                   tuple(Fraction(x % r, r) for x in b))

    def is_odd(self) -> bool:
        """True for a half-integral characteristic (2 m1, 2 m2 integral)
        with 4 m1.m2 odd, which forces theta_(m1,m2)(tau, 0) = 0: the
        substitution n -> -n - 2 m1 needs 2 m1 integral, and it maps the
        sum to exp(-4 pi i m1.m2) = -1 times itself only if 2 m2 is
        integral too.  Other characteristics give False, also where the
        theta constant happens to vanish."""
        if any((2 * x).denominator != 1 for x in self.m1 + self.m2):
            return False
        s = 4 * sum(x * y for x, y in zip(self.m1, self.m2))
        return int(s) % 2 == 1


@dataclass(frozen=True)
class CosetSet:
    """The r^(2g) points (a + tau b)/r representing
    (1/r)(Z^g + tau Z^g)/(Z^g + tau Z^g)."""
    r: int
    tau: SiegelPoint
    representatives: tuple[tuple[mpc, ...], ...]


def coset_set(tau: SiegelPoint, r: int, prec: int = DEFAULT_PREC) -> CosetSet:
    """The coset points, rounded to prec + GUARD_BITS.  The norm checks do
    not evaluate theta at these rounded points: they use the exact identity
    of ``_coset_chars``."""
    _check_level(r)
    g = tau.g
    reps = []
    with workprec(prec + GUARD_BITS):
        for a in itertools.product(range(r), repeat=g):
            for b in itertools.product(range(r), repeat=g):
                e = tuple((a[i] + sum(tau.entry(i, j) * b[j] for j in range(g))) / r
                          for i in range(g))
                reps.append(e)
    return CosetSet(r, tau, tuple(reps))


@functools.lru_cache(maxsize=None)
def _level_chars(g: int, r: int) -> tuple[tuple[tuple, tuple], ...]:
    """All r^(2g) characteristics [a/r; b/r] of level r as integer pairs
    (a, b), in lexicographic order."""
    return tuple(itertools.product(itertools.product(range(r), repeat=g), repeat=2))


@functools.lru_cache(maxsize=None)
def _coset_chars(g: int, r: int) -> tuple[tuple[tuple, tuple], ...]:
    """The characteristic [b/r; a/r] of each coset point (a + tau b)/r, as
    the integer pair (b, a), in the order of ``coset_set``.  For every w,

        ||theta||(tau, w + (a + tau b)/r)
            = det(Y)^(1/4) exp(-pi Im w^T Y^-1 Im w) |theta[b/r; a/r](tau, w)|,

    so a coset norm is a characteristic norm at w, with no rounded point.
    The list runs over the bottom row a outside and the top row b inside;
    all r^(2g) pairs come from one walk (see ``_theta_groups``)."""
    return tuple((b, a) for a, b in _level_chars(g, r))


# ---------------------------------------------------------------------------
# the certified series engine


class _At(tuple):
    """z normalized at tau (``_at``) with its exact tail data
    ``_tail_data(tau, z)`` as ``tail`` and the shifts s of ``_shift`` as
    they are asked for: formed once per (tau, z) and passed down as z, so
    that a batch, its radius searches, its walk and its norm scale share
    them."""


def _at(tau: SiegelPoint, z) -> _At:
    """z as an ``_At`` of tau, its entries taken as ``as_mpc`` takes them
    (None is the zero vector); call inside the working-precision scope."""
    if isinstance(z, _At) and z.tau is tau:
        return z
    out = _At(mpc(0) for _ in range(tau.g)) if z is None else _At(map(as_mpc, z))
    if len(out) != tau.g:
        raise ValueError("z must have length g")
    out.tau = tau
    out.tail = _tail_data(tau, out)
    out.shifts = {}
    return out


def _char_ints(g: int, char) -> tuple[int, tuple, tuple]:
    """(den, a, b) with char = [a/den; b/den]; None is [0; 0] with den 1."""
    if char is None:
        return 1, (0,) * g, (0,) * g
    if char.g != g:
        raise ValueError("characteristic dimension mismatch")
    return (char.r, tuple(int(v * char.r) for v in char.m1),
            tuple(int(v * char.r) for v in char.m2))


def _shift(z: _At, a, den: int) -> Fraction:
    """s = max_i |a_i/den + u_i| with u = Y^-1 Im z, the shift in the tail
    bound of a/den; formed once per (a, den) at z."""
    s = z.shifts.get((a, den))
    if s is None:
        s = z.shifts[a, den] = max(abs(Fraction(x, den) + w) for x, w in zip(a, z.tail[2]))
    return s


def _tail_data(tau: SiegelPoint, z) -> tuple[Fraction, Fraction, tuple]:
    """(lambda_lb, xi, u): the exact smallest-eigenvalue lower bound of Y,
    the exact value xi = y^T Y^-1 y and u = Y^-1 y, for y = Im z and a
    positive definite Y.  The Y data are the point's cached exact data."""
    if not tau.y_positive_definite:
        raise ValueError("Im tau is not positive definite")
    lam = tau.y_min_eig_lower_bound
    y_vec = tuple(mpf_to_fraction(w.imag) for w in z)
    if not any(y_vec):
        return lam, Fraction(0), y_vec
    u = matvec(tau.y_inverse, y_vec)
    xi = sum(a * b for a, b in zip(y_vec, u))
    return lam, xi, u


def _tail(g: int, lam: Fraction, xi: Fraction, s: Fraction):
    """n -> proven bound on the absolute tail over ||n||_inf > n.

    Derivation: complete the square in the exponent, bound the quadratic form
    by lam * (k - s)^2 on the shell ||n||_inf = k, count the shell by
    2g(2k+1)^(g-1), and dominate the resulting series by a geometric one.
    Infinite unless n + 1 > s.  The factors that do not depend on n are
    formed once, in the same order of operations, so each bound is the same
    mpf as when it is formed in one expression."""
    lam_m = fraction_to_mpf(lam)
    q_arg = -2 * pi * lam_m
    gauss_arg = -pi * lam_m
    head = exp(pi * fraction_to_mpf(xi)) * 2 * g
    fact = factorial(g - 1)

    def bound(n: int) -> mpf:
        gap = Fraction(n + 1) - s
        if gap <= 0:
            return mpf("inf")
        gap_m = fraction_to_mpf(gap)
        q = exp(q_arg * gap_m)
        if q >= 1:
            return mpf("inf")
        t = (head * mpf(2 * n + 3) ** (g - 1) * fact * exp(gauss_arg * gap_m ** 2)
             / (1 - q) ** g)
        return t * (1 + mpf(2) ** -30)
    return bound


def choose_radius(tau: SiegelPoint, z=None, char=None,
                  prec: int = DEFAULT_PREC, tol=None) -> int:
    """Smallest box radius whose certified tail bound is below tol/2, with
    s = max_i |m1_i + u_i|, but not below int(s) + 2 when the search has
    jumped above it.

    The search jumps to the estimate n0, climbs while the bound is above
    the target and descends while the bound one lower is not.  Each
    comparison ``_tail(...)(n) > target`` is decided on the log of the
    bound in doubles,

        log(2g (g-1)!) + pi xi + (g-1) log(2n+3) - pi lam gap^2
            - g log(1 - q) + log1p(2^-30),   gap = n + 1 - s, q = e^(-x),
            x = 2 pi lam gap,

    against the log of the target, log(m) + e log 2 for target = m 2^e.
    Let S be the sum of the moduli of these terms (log m and e log 2
    apart).  The doubles convert lam, xi and gap correctly rounded, and
    each term takes a few roundings and one libm call of relative error
    2^-52, log(1 - q) as log(-expm1(-x)), which is accurate for every
    x > 0; with the sum of eight terms the double difference of the logs
    is within 2^-49 (S + g) of the exact one.  The certified
    bound rounds at P = prec + 64 >= 65 bits: each argument of exp errs by
    a few P-bit roundings relative to its modulus, and 1 - q, with the
    error of q at most (5x + 2) 2^-P relative, errs by that times
    q / (1 - q) <= 1/x; so the log of the certified bound is within
    2^-61 (S + g/x + 10) of the exact one, and the log of the target is
    exact.  A decision is therefore taken in doubles only when the two
    logs differ by more than the guard 2^-40 (S + g + g/x + 16), which
    exceeds both errors together; otherwise, and whenever a double does
    not convert (lam or xi beyond the double range), is not finite, or
    x < 2^-20, the certified bound decides.  Every decision, and so the
    radius, is the one of the certified bound alone; the bound itself is
    certified once per (s, radius), by ``_theta_groups``.

    tol must be a positive finite number."""
    with workprec(prec + GUARD_BITS):
        target = _target(prec, tol)
        z = _at(tau, z)
        lam, xi, _ = z.tail
        den, a, _ = _char_ints(tau.g, char)
        return _radius(tau.g, lam, xi, _shift(z, a, den), target)


def _target(prec: int, tol) -> mpf:
    """The tail's share tol/2, tol = default_tol(prec) when None."""
    target = mpf(default_tol(prec) if tol is None else tol) / 2
    if not (target > 0 and isfinite(target)):
        raise ValueError("tol must be a positive finite number")
    return target


def _radius(g: int, lam: Fraction, xi: Fraction, s: Fraction, target: mpf) -> int:
    """The search of ``choose_radius`` at shift s; call inside the working precision."""
    over = _tail_above(g, lam, xi, s, target)
    n = int(s) + 1
    # jump close to the solution of lam*(N+1-s)^2 = log(1/target) + xi
    need = (log(1 / target) + pi * fraction_to_mpf(xi) + g * 4 + 8) / (pi * fraction_to_mpf(lam))
    n = max(n, int(s + sqrt(need)) + 1)
    while n <= RADIUS_CAP and over(n):
        n += 1
    if n > RADIUS_CAP:
        raise ReduceFirstError(
            "truncation radius exceeds the cap; reduce tau first")
    while n > int(s) + 2 and not over(n - 1):
        n -= 1
    return n


def _tail_above(g: int, lam: Fraction, xi: Fraction, s: Fraction, target: mpf):
    """n -> whether ``_tail(g, lam, xi, s)(n) > target``, decided in doubles
    outside the guard of ``choose_radius`` and by the certified bound,
    formed on the first such tie, inside it.  Call inside the working
    precision."""
    certified = None

    def tie(n: int) -> bool:
        nonlocal certified
        if certified is None:
            certified = _tail(g, lam, xi, s)
        return certified(n) > target

    try:
        lam_f, xi_f = float(lam), float(xi)
    except OverflowError:
        return tie
    man, e = dyadic(target._mpf_)
    log_m, log_e = math.log(man), e * math.log(2)
    head = math.log(2 * g * factorial(g - 1)) + math.log1p(2.0 ** -30)
    pxi = math.pi * xi_f
    size = abs(head) + pxi + abs(log_m) + abs(log_e) + g + 16
    s_num, s_den = s.numerator, s.denominator

    def above(n: int) -> bool:
        gap_num = (n + 1) * s_den - s_num
        if gap_num <= 0:
            return True
        gap = gap_num / s_den
        x = 2 * math.pi * lam_f * gap
        if not x >= 2.0 ** -20:
            return tie(n)
        shell = (g - 1) * math.log(2 * n + 3)
        gauss = math.pi * lam_f * gap * gap
        geom = -g * math.log(-math.expm1(-x))      # -g log(1 - q) >= 0
        diff = head + pxi + shell - gauss + geom - log_m - log_e
        guard = 2.0 ** -40 * (size + shell + gauss + geom + g / x)
        if diff > guard:
            return True
        if diff < -guard:
            return False
        return tie(n)
    return above


def _fixed(x, frac_bits: int) -> int:
    """The raw mpf x times 2^frac_bits, rounded down to an int (< 1 ulp)."""
    m, e = dyadic(x)
    e += frac_bits
    return m << e if e >= 0 else m >> -e


def _unit(num: int, den: int, p: int) -> tuple[int, int, bool]:
    """exp(pi i num/den) as p-bit fixed-point ints, and whether that is exact.
    It is exact (1, i, -1 or -i) when 2 num/den is an integer; otherwise each
    component is within 68 ulps (the exp allowance at |arg| <= pi plus the
    rounding down), so the modulus error is below 97 * 2^-p."""
    if 2 * num % den == 0:
        one = 1 << p
        return ((one, 0), (0, one), (-one, 0), (0, -one))[2 * num // den % 4] + (True,)
    num = (num + den) % (2 * den) - den
    ex, ey = mpc_expjpi((from_rational(num, den, p, round_nearest), fzero), p)
    return _fixed(ex, p), _fixed(ey, p), False


def _row_units(k: int) -> int:
    """Rounding budget, in ulps, of a walked row of k + 1 terms."""
    return 70 * (1 + k + k * (k + 1) * (k + 2) // 6)


def _row_slots(base: int, lo: int, step: int, count: int, spans: dict,
               den: int, size: int, mirror=None) -> list[int]:
    """Accumulator index of each term x = lo + step j, j < count, of a row:
    base + x mod den^2 when x lies in the box of its own top characteristic
    (x mod den in ``spans`` and x within its span), the trash 2 size
    otherwise.  A row that also walks the row at -nn (``mirror`` = (mbase,
    mspans), that row's base and spans) holds that row's term at -x as
    well: the term goes to mbase + (-x mod den^2) when only -x lies in its
    box there, and to the pair slot size + base + x mod den^2 when both
    do; the walk adds each pair slot to both classes at its end."""
    r2 = den * den
    trash = 2 * size
    xs = range(lo, lo + step * count, step)
    slots = [base + x % r2 if (span := spans.get(x % den)) and span[0] <= x <= span[1]
             else trash for x in xs]
    if mirror:
        mbase, mspans = mirror
        for j, x in enumerate(xs):
            span = mspans.get(-x % den)
            if span and span[0] <= -x <= span[1]:
                slots[j] = mbase + -x % r2 if slots[j] == trash else slots[j] + size
    return slots


def _width_floor(k: int) -> int:
    """The least pf with 70 k(k+1) 2^-pf <= 2^-31 (see ``_row_sum``)."""
    return (70 * k * (k + 1)).bit_length() + 31


# The shape of one walked row, which tau and z do not change: its prefix
# nn = N_1..N_(g-1) and accumulator base, the spans of its own top
# characteristics by a_g, ``mirror`` = (mbase, mspans) of the row at -nn
# when this row walks that one too (else None), ``tops`` as (c, radius, a)
# with c the class of a's terms along the row (a_g, or -a_g for a top of
# the row at -nn), and the range lo + step j, j <= last, that it walks.
_Frame = namedtuple("_Frame", "nn base spans mirror tops step lo last")


@functools.lru_cache(maxsize=256)
def _frames(g: int, den: int, boxes: tuple, mirror: bool) -> tuple[tuple[_Frame, ...], ...]:
    """The runs of walked rows of the walk over ``boxes`` ((a, R_a), ...),
    each a tuple of consecutive rows of one line (see ``_row_sum``).  With
    ``mirror`` (z = 0) a row at nn != 0 and the row at -nn pair when both
    are rows of the walk and the step of the union of their spans is the
    step of each; the lexicographically positive row of a pair walks both,
    and the other is neither built nor walked.  The cache hands the same
    frames, spans included, to every walk, which only reads them."""
    h = g - 1
    r2 = den * den
    by_prefix: dict[tuple, list] = {}
    for a, radius in boxes:
        by_prefix.setdefault(a[:h], []).append((a[h], radius, a))
    rows = {}       # nn -> (base, here, spans, step)
    lines = []
    # the cache keeps every frame, so rows share one object per distinct
    # value: a fresh dict and tuples per row left about 0.6 MB more peak
    # RSS on the norms-g2 benchmark (allocator pools held by cached objects)
    spans_of = {}   # here -> (spans, step)
    ends_of = {}    # (here, here at -nn) -> (tops, lo, last)
    for prefix, members in by_prefix.items():
        r_max = max(m[1] for m in members)
        keys = []
        for pre in itertools.product(range(-r_max, r_max + 1), repeat=h):
            far = max(map(abs, pre), default=0)
            here = tuple(m for m in members if m[1] >= far)
            if here not in spans_of:
                step = den
                for m in here:
                    step = gcd(step, m[0] - here[0][0])
                spans_of[here] = ({a_h: (a_h - den * radius, a_h + den * radius)
                                   for a_h, radius, _ in here}, step)
            nn = tuple(den * pre[j] + prefix[j] for j in range(h))
            base = 0
            for x in nn:
                base = base * r2 + x % r2
            rows[nn] = (base * r2, here, *spans_of[here])
            keys.append(nn)
        # a line per N_1..N_(g-2): the last prefix coordinate runs fastest
        size = 2 * r_max + 1 if h else 1
        lines += [keys[i:i + size] for i in range(0, len(keys), size)]
    pairs = {}
    for nn, (_, here, _, step) in rows.items():
        other = rows.get(tuple(-x for x in nn)) if mirror and any(nn) else None
        if other and other[3] == step and (here[0][0] + other[1][0][0]) % step == 0:
            pairs[nn] = other
    zero = (0,) * h
    runs = []
    for keys in lines:
        run = []
        for nn in keys + [None]:
            if nn is None or (nn < zero and nn in pairs):
                # the end of the line, or a row its mirror walks
                if run:
                    runs.append(tuple(run))
                run = []
                continue
            base, here, spans, step = rows[nn]
            other = pairs.get(nn)
            key = here, other and other[1]
            if key not in ends_of:
                ends = list(spans.values())
                tops = here
                if other:
                    ends += [(-hi, -lo) for lo, hi in other[2].values()]
                    tops += tuple((-a_h, radius, a) for a_h, radius, a in other[1])
                lo = min(e[0] for e in ends)
                ends_of[key] = tops, lo, (max(e[1] for e in ends) - lo) // step
            tops, lo, last = ends_of[key]
            run.append(_Frame(nn, base, spans, other and (other[0], other[2]), tops, step,
                              lo, last))
    return tuple(runs)


@functools.lru_cache(maxsize=1024)
def _lone_walk(g: int, den: int, a: tuple, radius: int, mirror: bool,
               p: int) -> tuple[int, int]:
    """(units, pf) of the walk of a alone at working precision p: its
    rounding budget in ulps of 2^-pf and its fixed-point width (see
    ``_row_sum``)."""
    frames = [fr for run in _frames(g, den, ((a, radius),), mirror) for fr in run]
    units = sum(len(fr.tops) * _row_units(fr.last) for fr in frames)
    old = (2 * radius + 1) ** (g - 1) * _row_units(2 * radius)
    pf = p if units == old else p + math.ceil(math.log2(units / old) + 2 ** -20)
    return units, max(pf, _width_floor(max(fr.last for fr in frames)))


# Extra fractional bits of the values a chain carries from row to row.
CHAIN_GUARD = 32

# One walked row (its base, spans and mirror as in ``_Frame``): D(x) =
# T_gg x^2 + 2 x L + G with L = lr + i li and G = gr + i gi; the peak
# x = lo + step k, D(x) = dr + i di there.
_Row = namedtuple("_Row", "base spans mirror lo step last k x lr li gr gi dr di")


def _ratios(row, t_gg: tuple) -> list[tuple]:
    """The exponents (re, im numerators over s) of rho+ and rho- at the
    row's peak: D(x* + step) - D(x*) and D(x* - step) - D(x*), t_gg = T_gg."""
    st, x = row.step, row.x
    return [(t_gg[0] * a + b * row.lr, t_gg[1] * a + b * row.li)
            for a, b in ((2 * x * st + st * st, 2 * st), (st * st - 2 * x * st, -2 * st))]


def _outer(prev, row) -> tuple:
    """The exponent of O at prev's peak x: D_row(x) - D_prev(x)."""
    return (2 * prev.x * (row.lr - prev.lr) + row.gr - prev.gr,
            2 * prev.x * (row.li - prev.li) + row.gi - prev.gi)


def _mag(lg: float) -> float:
    """e^lg, or inf where that overflows a double."""
    return math.exp(lg) if lg < 709 else math.inf


def _fresh(lg: float) -> float:
    """Error bound, in ulps, of a fresh fixed-point exp of modulus e^lg (see
    ``_row_sum``): 68 up to modulus 1, the allowance 8(5 + pi + lg) relative
    plus the rounding down above it."""
    return 68.0 if lg <= 0 else 8 * (5 + math.pi + lg) * _mag(lg) + 2


def _chain_plan(line: list, d_min: int, s_den: int, pf: int,
                t_gg: tuple, c_1: tuple, q_out: tuple) -> list[tuple]:
    """How the walk forms the start values of each row of a line (a run of
    consecutive walked rows): [(j, d, how, shift)] in visit order, the
    centre first (d = 0), the row of the largest peak, then centre + 1,
    centre + 2, ... (d = 1), then centre - 1, ... (d = -1).  how is "skip"
    (peak below 2^-(pf+1), not walked), "anchor" (fresh exps) or "chain"
    (row j - d's values moved one row and shifted ``shift`` steps, see
    ``_row_sum``).

    The chain runs at w = pf + CHAIN_GUARD fractional bits.  Every value is
    tracked by the imaginary part of its exact exponent (numerators over
    s_den: t_gg for T_gg, c_1 for C at step 1, q_out for Q_out) and a bound
    on its error in ulps of 2^-w.  A product of values u, c with exact moduli
    |u|, |c| and errors E_u, E_c, rounded down, errs by at most
    |u| E_c + |c| E_u + E_u E_c 2^-w + 2 ulps, and a fresh exp by
    ``_fresh``.  A row chains when its peak term and each ratio it walks
    err by at most E = 66 * 2^CHAIN_GUARD ulps of 2^-w; rounded down to pf
    bits (less than sqrt(2) ulps more) they err by less than the 68 ulps of
    2^-pf of fresh ones.  The moduli are exact exponentials of exact
    exponents evaluated in doubles (arguments below 709), so a bound's
    relative error grows by about 2^-43 per product: far below the gap
    2 - sqrt(2) (relative 2^-7) for any line within the radius cap."""
    wide = pf + CHAIN_GUARD
    tiny = 2.0 ** -wide
    allowed = (68 - 2) * 2.0 ** CHAIN_GUARD

    def value(im: int) -> tuple:
        """A fresh value: its exponent's imaginary part and its error."""
        return im, _fresh(-math.pi * (im / s_den))

    def times(u: tuple, c: tuple) -> tuple:
        err = (_mag(-math.pi * (u[0] / s_den)) * c[1]
               + _mag(-math.pi * (c[0] / s_den)) * u[1] + u[1] * c[1] * tiny + 2)
        return u[0] + c[0], err if err == err else math.inf     # inf * 0

    def anchored(row) -> list:
        up, down = _ratios(row, t_gg)
        return [value(row.di - d_min), value(up[1]), value(down[1]), None]

    consts = {}

    def constants(st: int, d: int) -> tuple:
        """Q, Q^-1, C^d, C^-d and Q_out at step st: formed once per (st, d)."""
        if (st, d) not in consts:
            consts[st, d] = tuple(value(v) for v in (
                2 * st * st * t_gg[1], -2 * st * st * t_gg[1], d * st * c_1[1],
                -d * st * c_1[1], q_out[1]))
        return consts[st, d]

    def chained(state: list, prev, row, d: int) -> tuple[list, int]:
        t, p, m, o = state
        st = row.step
        if o is None:
            o = value(_outer(prev, row)[1])
        q, qi, c, cinv, qo = constants(st, d)
        t, o, p, m = times(t, o), times(o, qo), times(p, c), times(m, cinv)
        shift = (row.x - prev.x) // st
        for _ in range(abs(shift)):
            if shift > 0:
                t, p, m, o = times(t, p), times(p, q), times(m, qi), times(o, c)
            else:
                t, m, p, o = times(t, m), times(m, q), times(p, qi), times(o, cinv)
        return [t, p, m, o], shift

    centre = min(range(len(line)), key=lambda j: line[j].di)
    # peak below 2^-(pf+1): pi y > (pf+1) log 2 holds once 4y > pf+1
    walked = [4 * (row.di - d_min) <= s_den * (pf + 1) for row in line]
    plan = [(centre, 0, "anchor" if walked[centre] else "skip", 0)]
    start = anchored(line[centre]) if walked[centre] else None
    for d in (1, -1):
        state = start
        for j in range(centre + d, len(line) if d > 0 else -1, d):
            row, prev = line[j], line[j - d]
            how, shift = "anchor", 0
            if not walked[j]:
                how, state = "skip", None
            elif state is not None and row.step == prev.step:
                cand, shift = chained(state, prev, row, d)
                (_, et), (_, ep), (_, em), _ = cand
                if (et <= allowed and (row.k == row.last or ep <= allowed)
                        and (row.k == 0 or em <= allowed)):
                    how, state = "chain", cand
            if how == "anchor":
                state, shift = anchored(row), 0
            plan.append((j, d, how, shift))
    return plan


def _row_sum(tau: SiegelPoint, z, den: int, boxes: dict):
    """One walk over the union of the boxes ||n||_inf <= R_a of the top
    characteristics m1 = a/den in ``boxes`` (a -> R_a), in rows along the
    last coordinate, with one accumulator per class of N = den*n + a mod
    den^2 (each coordinate).  Returns (re, im, y_m, units, pf): re[C] + i
    im[C] is the fixed-point sum, pf fractional bits, of the terms in class
    C, classes in ``itertools.product(range(den^2), repeat=g)`` order;
    exp(-M) with M = pi y_m, y_m an exact Fraction, is the common scale;
    units[a] is the rounding budget of a's classes in ulps of 2^-pf.  Call
    inside the working precision p = mp.prec.

    The walk of theta[a/den; 0] for every a at once: m2 = b/den only
    multiplies the term of N by exp(2 pi i N.b/den^2), which depends on the
    class of N alone, so ``_theta_groups`` forms every theta[a/den; b/den]
    from these accumulators.  A term enters its class only inside its own
    box, so each characteristic sums exactly the terms of its own box walk.

    Exact exponents.  With v = n + m1 and N = den*v = den*n + a, the term is
    exp(pi i D(N) / s) where s = den^2 2^-e0 and

        D(N) = sum_jk T_jk N_j N_k + 2 den sum_j N_j Z_j

    is a Gaussian integer: T = tau 2^-e0 and Z = z 2^-e0 are the exact
    entries scaled by the smallest binary exponent e0 <= 0 (T is tau's
    ``int_form``, shifted further when z needs it).  D does not
    depend on a, so all top characteristics share one lattice of N.

    Union rows.  A row fixes N_1..N_(g-1); its top characteristics are the
    a with that prefix mod den whose box holds the prefix, and each adds the
    span a_g + den[-R_a, R_a] of the last coordinate x.  The row walks
    x = lo + step j over the union of the spans, step the gcd of den and
    the differences of their a_g: den (the walk of one m1) when they share
    a_g, otherwise 1 for a full level.  On a row
    D = T_gg x^2 + 2 x L + G; its peak is x* = lo + step clip(round(j_r))
    with j_r the real minimiser of Im D, and M = max over rows of
    -pi Im D(x*) / s is the common exponent: every term is computed as
    t = exp(-M) * term, so |t| <= 1.

    Mirror rows.  At z = 0, D(-N) = D(N) exactly, so the row at the prefix
    -nn holds the terms of the row at nn, at -x.  When both are rows of the
    walk, nn != 0, and the union of the row's spans with the negated spans
    of the row at -nn keeps the step of both rows (always at den = 2 and on
    a full level; not for a level-4 or level-6 top with 2 a_g != 0 mod den,
    whose union would halve the step), the lexicographically positive row
    walks that union (``_frames``).  Its term at x enters its own class when
    x lies in its own box, and the class of -x of the row at -nn when -x
    lies in the box there (``_row_slots``; a term in both goes to a pair
    slot, added to both classes after the walk).  The row at -nn is neither
    built, planned nor walked.  The row at nn = 0 and a row whose mirror is
    not a row of the walk (the asymmetric edge of an odd a) are walked as
    they are.  The walked rows of a line form runs of consecutive rows,
    and each run is planned and chained as a line is.  A paired row's
    k + 1 terms enter the classes of both rows, so its u_k (below) counts
    for the tops of both.  Since D(-N) = D(N) holds exactly, every
    characteristic still sums exactly the terms of its own box, and its
    peak M_a is the one of its unmirrored walk.  There is no mirror at
    z != 0 or at g = 1 (the one row is its own mirror).

    Walking a row.  From the peak term t and the first ratio rho outward on
    each side (|rho| <= 1 because x* is the rounded or clipped peak) the
    walk runs t <- t*rho, rho <- rho*Q with Q = exp(2 pi i T_gg step^2 / s)
    in Python-int fixed point with pf fractional bits; each product,
    rounded down, costs <= 1 ulp per component, < 2 * 2^-pf.  The start
    values t and rho and Q each err by at most eps = 68 * 2^-pf (below).
    With sigma = eps + 2 * 2^-pf = 70 * 2^-pf the ratio error after j steps
    is d_j <= eps + j sigma (linear growth) and the term error is
    e_j <= eps + sum_{i<j} (d_i + 2^(1-pf)) <= sigma (1 + j(j+1)/2).  A
    direction of K steps thus costs (K + K(K+1)(K+2)/6) sigma, and since
    this is convex in K, a row of k + 1 terms costs at most
    u_k = (1 + k + k(k+1)(k+2)/6) sigma (``_row_units``).  Computed
    multipliers may exceed modulus 1 by d_j or eps; that amplifies the row
    error by at most exp(k(k+1) sigma) <= 1 + 2^-30, which pf guarantees
    below.  A row whose peak is below 2^-(pf+1) is not walked: its terms
    together are below u_k.

    Fresh exps.  Every exponential is ``mpc_expjpi`` of an argument reduced
    exactly mod 2 in its real part, so |Re arg| <= pi.  Each keeps the
    per-exp allowance of 8(5 + |arg|) ulps relative; for a modulus e^-x,
    x >= 0, since (a + x) e^-x <= a for a >= 1 that is <= 8(5 + pi) < 66
    ulps, and with the rounding down to the fixed point (< 1 ulp per
    component) a fresh value errs by <= 68 ulps.  A fresh value of modulus
    e^x > 1 errs by <= 8(5 + pi + x) e^x + 2 ulps (``_fresh``).

    Chains across rows.  The rows of a run (fixed N_1..N_(g-2), N_(g-1) =
    den*n + a_(g-1) in turn) are visited from the centre, the row of the
    largest peak, outward on both sides (``_chain_plan``), and a row's
    start values are derived from the row before it, the exact-exponent
    recurrences of Deconinck, Heil, Bobenko, van Hoeij and Schmies
    (Math. Comp. 73, 2004).  Going to the row at N_(g-1) + d den,
    d = +-1, the walk carries the peak term t, the ratios rho+ and rho-
    and the outer ratio O, the next row's term over this one's at the same
    x:

    - a row move takes t <- t*O, O <- O*Q_out, rho+ <- rho+*C^d and
      rho- <- rho-*C^-d, with Q_out = exp(2 pi i den^2 T_(g-1,g-1) / s)
      and C = exp(2 pi i den step T_(g-1,g) / s);
    - each step of the peak to the new row's x* takes t <- t*rho+,
      rho+ <- rho+*Q, rho- <- rho-*Q^-1, O <- O*C^d (or the mirror images
      for a step down).

    Every multiplier is the exp of an exact exponent, so the chained values
    are the exact ones up to rounding.  The constants take one exp each per
    walk, O one at the start of each chain, and an anchor takes t, rho+ and
    rho- fresh (only the rho its row walks when nothing chains from it).
    Rounding is no longer damped along a chain: O, C^(+-1) and Q^-1 may
    exceed modulus 1, and a value that was small when rounded may grow.
    So the chain runs CHAIN_GUARD bits wider than the walk, at
    w = pf + CHAIN_GUARD fractional bits (its constants and its anchors
    too), and ``_chain_plan`` bounds the error of every chained value from
    the exact moduli before the walk.  A row chains only when its start
    values, rounded down to pf bits, err by at most eps like fresh ones;
    otherwise, at a change of step, and after a row that is not walked, it
    takes a fresh anchor (the centre rows always do).  Every walked row
    thus starts within eps and keeps its budget u_k.  In a walk that
    chains, Q is taken once at w bits and the rows use it rounded down to
    pf bits, also within eps.  The integer accumulators are exact and each
    computed term lands in at most one of them per row of its pair (in
    none outside its box), so the errors of a's classes stay within the sum
    of u_k over the walked rows whose terms enter them, once per side:
    units[a].  A combination sum_C w_C A_C over a's classes with |w_C| = 1
    errs by at most units[a] 2^-pf as well.

    The fixed-point width.  The unmirrored walk of a alone runs at p bits
    with its own scale M_a <= M and (2R_a+1)^(g-1) rows of 2R_a + 1 terms,
    a budget of e^(M_a) old_a 2^-p.  The mirrored walk of a alone
    (``_lone_walk``) has own_a units: a row of a half-integral a with
    a_g = den/2 is one step longer there.  It runs at
    pf_a = p + ceil(log2(own_a / old_a)) (p when own_a = old_a), so its
    budget e^(M_a) own_a 2^-pf_a is no larger than e^(M_a) old_a 2^-p.
    Here a's budget is e^M units[a] 2^-pf, so pf is at least pf_a + E_a,
    with E_a the least integer above
    max(0, log2(units[a] / own_a)) + (M - M_a) / log 2 for every a whose
    units or peak differ from the ones of its own walk (E_a = 0
    otherwise).  The budget of every characteristic is then no larger than
    the one of its own walk, and 2^(pf - pf_a) >= e^(M - M_a).  pf is also
    large enough that 70 k(k+1) 2^-pf <= 2^-31 for the longest row (its own
    walk's floor is in pf_a).  Without a mirror own_a = old_a and
    pf_a = p, as in the unmirrored walk.
    """
    g = tau.g
    p = mp.prec
    h = g - 1
    r2 = den * den

    tx, ty, shift = tau.int_form
    zr = [dyadic(w._mpc_[0]) for w in z]
    zi = [dyadic(w._mpc_[1]) for w in z]
    e0 = min([-shift] + [e for m, e in itertools.chain(zr, zi) if m])
    up = -shift - e0

    def sc(d):
        return d[0] << (d[1] - e0)

    t = {(j, k): (tx[j][k] << up, ty[j][k] << up) for j in range(g) for k in range(j, g)}
    zc = [(den * sc(zr[j]), den * sc(zi[j])) for j in range(g)]
    s_den = r2 << -e0
    t_gg = thr, thi = t[(h, h)]
    # C at step 1 and Q_out as exponent numerators (none at g = 1)
    c_1 = tuple(2 * den * v for v in t[(h - 1, h)]) if h else (0, 0)
    q_out = tuple(2 * r2 * v for v in t[(h - 1, h - 1)]) if h else (0, 0)

    mirror = h > 0 and not any(m for m, _ in itertools.chain(zr, zi))
    peak_a = dict.fromkeys(boxes)       # least Im D of a's own walk
    lines = []
    runs = _frames(g, den, tuple(boxes.items()), mirror)
    for run in runs:
        rows = []
        for fr in run:
            nn = fr.nn
            lr, li = zc[h]
            gr = gi = 0
            for j in range(h):
                lr += t[(j, h)][0] * nn[j]
                li += t[(j, h)][1] * nn[j]
                gr += 2 * nn[j] * zc[j][0]
                gi += 2 * nn[j] * zc[j][1]
                for k in range(j, h):
                    c = (1 if j == k else 2) * nn[j] * nn[k]
                    gr += t[(j, k)][0] * c
                    gi += t[(j, k)][1] * c
            for c, radius, a in fr.tops:
                # a's least term on the row (at -x on the mirror row for
                # c = -a_g): Im D is least at x = -li/thi
                k = (2 * (-li - c * thi) + den * thi) // (2 * den * thi)
                x = den * max(-radius, min(radius, k)) + c
                d = thi * x * x + 2 * x * li + gi
                if peak_a[a] is None or d < peak_a[a]:
                    peak_a[a] = d
            lo, step, last = fr.lo, fr.step, fr.last
            k = (2 * (-li - lo * thi) + step * thi) // (2 * step * thi)
            k = max(0, min(last, k))
            x = lo + step * k
            rows.append(_Row(fr.base, fr.spans, fr.mirror, lo, step, last, k, x, lr, li, gr, gi,
                             thr * x * x + 2 * x * lr + gr, thi * x * x + 2 * x * li + gi))
        lines.append(rows)
    d_min = min(row.di for line in lines for row in line)

    units = dict.fromkeys(boxes, 0)
    for run in runs:
        for fr in run:
            for _, _, a in fr.tops:
                units[a] += _row_units(fr.last)
    pf = p
    for a, radius in boxes.items():
        own, pf_a = _lone_walk(g, den, a, radius, mirror, p)
        if units[a] != own or peak_a[a] != d_min:
            bits = (max(0.0, math.log2(units[a] / own))
                    + math.pi / math.log(2) * ((peak_a[a] - d_min) / s_den))
            pf_a += math.ceil(bits + 2 ** -20)
        pf = max(pf, pf_a)
    k_max = max(row.last for line in lines for row in line)
    pf = max(pf, _width_floor(k_max))

    plans = [_chain_plan(line, d_min, s_den, pf, t_gg, c_1, q_out) for line in lines]
    wide = pf + CHAIN_GUARD
    # a walk that chains takes Q at the chain's width once, and its rows use
    # it rounded down to pf bits
    q_bits = CHAIN_GUARD if any(how == "chain" for plan in plans for _, _, how, _ in plan) else 0

    def expjpi(num_re: int, num_im: int, bits: int = 0):
        """exp(pi i (num_re + i num_im) / s_den), num_re reduced mod 2 s_den,
        as fixed-point ints with pf + bits fractional bits."""
        num_re = (num_re + s_den) % (2 * s_den) - s_den
        w = pf + bits
        ex, ey = mpc_expjpi((from_rational(num_re, s_den, w, round_nearest),
                             from_rational(num_im, s_den, w, round_nearest)), w)
        return _fixed(ex, w), _fixed(ey, w)

    consts = {}

    def const(num_re: int, num_im: int, bits: int = CHAIN_GUARD):
        """A constant of the walk: one exp per exponent."""
        key = num_re, num_im, bits
        if key not in consts:
            consts[key] = expjpi(num_re, num_im, bits)
        return consts[key]

    def mul(u, c):
        return (u[0] * c[0] - u[1] * c[1]) >> wide, (u[0] * c[1] + u[1] * c[0]) >> wide

    size = r2 ** g
    acc_re = [0] * (2 * size + 1)
    acc_im = [0] * (2 * size + 1)
    for line, plan in zip(lines, plans):
        feeds = {j - d for j, d, how, _ in plan if how == "chain"}
        states = {}
        for j, d, how, shift in plan:
            if how == "skip":
                continue
            row = line[j]
            step, k, last = row.step, row.k, row.last
            q = 2 * step * step * thr, 2 * step * step * thi
            if how == "anchor":
                # at the chain's width when a chain starts here
                starts = j in feeds
                bits = CHAIN_GUARD if starts else 0
                tt = expjpi(row.dr, row.di - d_min, bits)
                up, down = _ratios(row, t_gg)
                rho_p = expjpi(*up, bits) if k < last or starts else None
                rho_m = expjpi(*down, bits) if k or starts else None
                oo = None
            else:
                bits = CHAIN_GUARD
                tt, rho_p, rho_m, oo = states[j - d]
                if oo is None:
                    oo = expjpi(*_outer(line[j - d], row), bits)
                c_up = const(d * step * c_1[0], d * step * c_1[1])
                c_down = const(-d * step * c_1[0], -d * step * c_1[1])
                tt, oo = mul(tt, oo), mul(oo, const(*q_out))
                rho_p, rho_m = mul(rho_p, c_up), mul(rho_m, c_down)
                for _ in range(abs(shift)):
                    if shift > 0:
                        tt, rho_p = mul(tt, rho_p), mul(rho_p, const(*q))
                        rho_m, oo = mul(rho_m, const(-q[0], -q[1])), mul(oo, c_up)
                    else:
                        tt, rho_m = mul(tt, rho_m), mul(rho_m, const(*q))
                        rho_p, oo = mul(rho_p, const(-q[0], -q[1])), mul(oo, c_down)
            states[j] = (tt, rho_p, rho_m, oo)
            slots = _row_slots(row.base, row.lo, step, last + 1, row.spans, den, size,
                               row.mirror)
            peak_re, peak_im = tt[0] >> bits, tt[1] >> bits
            acc_re[slots[k]] += peak_re
            acc_im[slots[k]] += peak_im
            for steps, rho, seq in ((last - k, rho_p, slots[k + 1:]),
                                    (k, rho_m, reversed(slots[:k]))):
                if not steps:
                    continue
                qr, qi = const(*q, q_bits)
                qr, qi = qr >> q_bits, qi >> q_bits
                rr, ri = rho[0] >> bits, rho[1] >> bits
                ur, ui = peak_re, peak_im
                for c in seq:
                    ur, ui = (ur * rr - ui * ri) >> pf, (ur * ri + ui * rr) >> pf
                    acc_re[c] += ur
                    acc_im[c] += ui
                    rr, ri = (rr * qr - ri * qi) >> pf, (rr * qi + ri * qr) >> pf
    # each pair slot holds terms of both rows of a pair, at N and at -N
    pairs = {row.base: row.mirror[0] for line in lines for row in line if row.mirror}
    for base, mbase in pairs.items():
        for acc in (acc_re, acc_im):
            for x in range(r2):
                v = acc[size + base + x]
                acc[base + x] += v
                acc[mbase + -x % r2] += v
    del acc_re[size:], acc_im[size:]
    return acc_re, acc_im, Fraction(d_min, s_den), units, pf


# One characteristic out of a walk (``_theta_groups``): theta is
# (re + i im) 2^-pf exp(-pi y_m) up to ``units`` ulps of 2^-pf exp(-pi y_m),
# amplified by at most 1 + 2^-30, plus the tail bound ``tail`` of its box.
_Sum = namedtuple("_Sum", "re im units tail")

# The sums of one walk, {a: [_Sum for b in bs]}, with the walk's exact
# common exponent y_m (a Fraction) and its fixed-point width pf.
_Walk = namedtuple("_Walk", "sums y_m pf")


def _theta_groups(tau: SiegelPoint, z, den: int, groups: dict,
                  phase: bool = True) -> _Walk:
    """The sums of theta[a/den; b/den](tau, z) for groups {a: (radius,
    bs)}, each over its own box ||n||_inf <= radius, all from one
    ``_row_sum`` walk: sums[a] follows bs.  Call inside the working
    precision p = mp.prec.  With phase=False the global factor
    exp(2 pi i m1.m2) is left out, which changes no modulus.

    Class C = den*c + a of N mod den^2 enters theta[a/den; b/den] with the
    weight exp(2 pi i C.b / den^2) (exp(2 pi i c.b / den) when
    phase=False), formed by ``_unit`` at the walk's pf bits; the
    combination is summed exactly in ints and floored to pf fractional
    bits, S = re + i im.  The weights have modulus 1, so a's walk budget
    units[a] holds for every combination.  They are exact (1, i, -1, -i)
    for den = 2, and for den = 4 without the phase, and then S is exact.
    Otherwise each weight is within 97 * 2^-pf of exact and the floor
    costs less than 2 ulps, so the budget adds
    w = 3 + floor(97 sum_C (|Re A_C| + |Im A_C|) 2^-pf) ulps, A_C a's class
    accumulators (a computed weight of modulus up to 1 + 97 * 2^-pf stays
    inside the 1 + 2^-30 amplification).  Each sum carries units[a] + w and
    the tail bound at (s, radius), formed once per distinct pair.
    """
    g = tau.g
    z = _at(tau, z)
    lam, xi, _ = z.tail
    acc_re, acc_im, y_m, units, pf = _row_sum(
        tau, z, den, {a: radius for a, (radius, _) in groups.items()})

    classes = list(itertools.product(range(den), repeat=g))
    den2 = den * den
    weights = {}
    tails = {}
    sums = {}
    for a, (radius, bs) in groups.items():
        s = _shift(z, a, den)
        if (s, radius) not in tails:
            tails[s, radius] = _tail(g, lam, xi, s)(radius)
        parts = []      # (C, A_C) for the classes C = den*c + a of a
        for c in classes:
            big = tuple(den * x + y for x, y in zip(c, a))
            idx = 0
            for x in big:
                idx = idx * den2 + x
            parts.append((big, acc_re[idx], acc_im[idx]))
        out = []
        for b in bs:
            ab = 0 if phase else sum(x * y for x, y in zip(a, b))
            sr = si = 0
            exact = True
            for big, ar, ai in parts:
                k = (sum(x * y for x, y in zip(big, b)) - ab) % den2
                if k not in weights:
                    weights[k] = _unit(2 * k, den2, pf)
                wr, wi, w_exact = weights[k]
                sr += ar * wr - ai * wi
                si += ar * wi + ai * wr
                exact = exact and w_exact
            w_units = 0
            if not exact:
                w_units = 3 + (97 * sum(abs(ar) + abs(ai) for _, ar, ai in parts) >> pf)
            out.append(_Sum(sr >> pf, si >> pf, units[a] + w_units, tails[s, radius]))
        sums[a] = out
    return _Walk(sums, y_m, pf)


def _complex(walk: _Walk, sums) -> list[CertifiedComplex]:
    """The complex finisher: theta with its certified error for each
    ``_Sum`` of ``walk``, at p = mp.prec (call inside that precision).

    S rounds once to p bits (2^-p relative), E = exp(-pi y_m) at pf bits
    costs its allowance 8(5 + |pi y_m|) 2^-pf relative and the product
    rounds once more, so the error is the tail plus

        (1 + 2^-30) (E units 2^-pf + |value| (8(5 + |pi y_m|) 2^(p-pf) + 4) 2^-p).

    Since 2^(pf - pf_a) >= e^(M - M_a) >= (5 + |M|) / (5 + |M_a|), with pf_a
    the width of a's own walk (``_row_sum``), the value term is no larger
    than the one of a's own walk either."""
    p = mp.prec
    pf = walk.pf
    y_m = from_rational(walk.y_m.numerator, walk.y_m.denominator, pf, round_nearest)
    e_m = mpc_expjpi((fzero, y_m), pf)[0]
    scale = mpf(2) ** (p - pf)
    value_units = 8 * (5 + fabs(pi * mp.make_mpf(y_m))) * scale + 4
    ulp = mpf(2) ** -p * (1 + mpf(2) ** -30)
    out = []
    for s in sums:
        value = mp.make_mpc((
            mpf_mul(from_man_exp(s.re, -pf, p, round_nearest), e_m, p, round_nearest),
            mpf_mul(from_man_exp(s.im, -pf, p, round_nearest), e_m, p, round_nearest)))
        rounding = (mp.make_mpf(e_m) * s.units * scale + fabs(value) * value_units) * ulp
        out.append(CertifiedComplex(value, s.tail + rounding))
    return out


def _exp_pi(q: Fraction, shift: int = 0) -> CertifiedReal:
    """Certified exp(pi q) 2^shift for an exact q, exactly 2^shift at
    q = 0; call inside the working precision."""
    if not q:
        return CertifiedReal.exact(ldexp(1, shift))
    f = CertifiedReal.rounded(pi * fraction_to_mpf(q)).exp()
    return CertifiedReal(ldexp(f.value, shift), ldexp(f.err, shift))


def _moduli(walk: _Walk, sums) -> list[tuple[int, int]]:
    """The modulus finisher: ints (lo, hi) with lo <= |theta| <= hi in
    units of E 2^-pf, E = exp(-pi y_m), for each ``_Sum`` of ``walk``; no
    mpc is formed.  Call inside the working precision.

    With l = isqrt(|S|^2) and h = l + [l^2 != |S|^2], l <= |S| <= h, and
    theta lies within R units of S, where

        R = ceil(units (1 + 2^-30)) + T

    takes the walk budget amplified, which holds the floors that form S
    (none with exact weights, w otherwise: ``_theta_groups``), and
    T = ceil(t.hi 2^pf) + 1 for the tail bound, t = tail exp(pi y_m)
    certified (the 1 covers the rounding of t.hi).  So lo = max(0, l - R)
    and hi = h + R.  T is formed once per distinct tail bound, and
    exp(pi y_m) once per call."""
    pf = walk.pf
    grow = _exp_pi(walk.y_m)
    tails = {}
    out = []
    for s in sums:
        if s.tail not in tails:
            tails[s.tail] = -_fixed((-(grow * s.tail).hi)._mpf_, pf) + 1
        radius = -(-s.units * ((1 << 30) + 1) >> 30) + tails[s.tail]
        n2 = s.re * s.re + s.im * s.im
        low = isqrt(n2)
        out.append((max(0, low - radius), low + (low * low != n2) + radius))
    return out


def theta_truncated(tau: SiegelPoint, z=None, char=None, radius: int = 10,
                    prec: int = DEFAULT_PREC) -> CertifiedComplex:
    """Theta sum over ||n||_inf <= radius with the certified error bound for
    exactly that truncation (tail at the given radius plus rounding)."""
    if not 0 <= radius <= RADIUS_CAP:
        raise ValueError(f"radius must lie in 0..{RADIUS_CAP}")
    with workprec(prec + GUARD_BITS):
        den, a, b = _char_ints(tau.g, char)
        walk = _theta_groups(tau, z, den, {a: (radius, [b])})
        return _complex(walk, walk.sums[a])[0]


def theta(tau: SiegelPoint, z=None, char: ThetaCharacteristic | None = None,
          prec: int = DEFAULT_PREC, tol=None) -> CertifiedComplex:
    """theta_(m1,m2)(tau, z) with a proven absolute error bound below tol."""
    with workprec(prec + GUARD_BITS):
        den, a, b = _char_ints(tau.g, char)
        return _complex(*_theta_batch(tau, z, den, [(a, b)], prec, tol))[0]


def _theta_batch(tau: SiegelPoint, z, den: int, pairs, prec: int, tol,
                 phase: bool = True) -> tuple[_Walk, list[_Sum]]:
    """The walk of theta[a/den; b/den](tau, z) for the integer pairs (a, b)
    of one level and the sum of each pair, in the order given: one
    ``_row_sum`` walk, read by ``_complex`` or ``_moduli``.  The radius and
    the tail depend on a only through s = max_i |a_i/den + u_i|, so s is
    formed once per distinct a and each distinct s takes one radius search
    (``_radius``).  Call inside the working-precision scope; phase=False
    drops exp(2 pi i a.b / den^2) (see ``_theta_groups``)."""
    z = _at(tau, z)
    lam, xi, _ = z.tail
    target = _target(prec, tol)
    groups = {}
    for a, b in pairs:
        groups.setdefault(a, []).append(b)
    radii = {}
    for a, bs in groups.items():
        s = _shift(z, a, den)
        if s not in radii:
            radii[s] = _radius(tau.g, lam, xi, s, target)
        groups[a] = (radii[s], bs)
    walk = _theta_groups(tau, z, den, groups, phase)
    # the k-th pair of a is the k-th sum of a
    sums = {a: iter(v) for a, v in walk.sums.items()}
    return walk, [next(sums[a]) for a, _ in pairs]


# ---------------------------------------------------------------------------
# invariant norms


def _moduli2(tau: SiegelPoint, z, den: int, pairs, prec: int,
             tol) -> tuple[CertifiedReal, list[tuple[int, int]]]:
    """(F, [(L, H)]) with, for each pair (a, b) and y = Im z,
    F.lo L <= exp(-2 pi y^T Y^-1 y) |theta[a/den; b/den](tau, z)|^2 <= F.hi H,
    all from one walk: the squared invariant norms with det(Y)^(1/2)
    cancelled.  L and H are the squares of the ``_moduli`` bounds, exact
    ints, and F = exp(-2 pi (y_m + xi)) 2^(-2 pf), xi = y^T Y^-1 y, is the
    one certified factor of the walk; ``_outward`` scales them.  Call
    inside the working-precision scope."""
    zt = _at(tau, z)
    _, xi, _ = zt.tail
    walk, sums = _theta_batch(tau, zt, den, pairs, prec, tol, phase=False)
    return (_exp_pi(-2 * (walk.y_m + xi), -2 * walk.pf),
            [(lo * lo, hi * hi) for lo, hi in _moduli(walk, sums)])


def _outward(f: CertifiedReal, lo: int, hi: int) -> tuple[mpf, mpf]:
    """The ends f.lo lo and f.hi hi for ints 0 <= lo <= hi, each int
    converted and each product rounded outward at mp.prec."""
    p = mp.prec
    return (mp.make_mpf(mpf_mul(f.lo._mpf_, from_int(lo, p, round_floor), p, round_floor)),
            mp.make_mpf(mpf_mul(f.hi._mpf_, from_int(hi, p, round_ceiling), p,
                                round_ceiling)))


def _interval(lo: mpf, hi: mpf) -> CertifiedReal:
    mid = (lo + hi) / 2
    return CertifiedReal(mid, (hi - lo) / 2 + fabs(mid) * _eps())


def _largest(f: CertifiedReal, bounds: list[tuple[int, int]]) -> CertifiedReal:
    """The largest of the values [f.lo lo, f.hi hi] of ``bounds``."""
    return _interval(*_outward(f, max(lo for lo, _ in bounds), max(hi for _, hi in bounds)))


def theta_norm(tau: SiegelPoint, z=None, prec: int = DEFAULT_PREC,
               tol=None) -> CertifiedReal:
    """det(Y)^(1/4) exp(-pi y^T Y^-1 y) |theta(tau, z)|."""
    with workprec(prec + GUARD_BITS):
        zt = _at(tau, z)
        _, xi, _ = zt.tail
        scale = CertifiedReal.rounded(tau.det_im() ** (mpf(1) / 4))
        if xi:
            scale = scale * CertifiedReal.rounded(-pi * fraction_to_mpf(xi)).exp()
        return scale * theta(tau, zt, None, prec, tol).abs()


def theta_null_vector(tau: SiegelPoint, r: int,
                      prec: int = DEFAULT_PREC, tol=None) -> list[CertifiedComplex]:
    """All r^(2g) theta constants, (m1, m2) in lexicographic order, from one
    walk that fills one accumulator per class of N = r n + m1 r mod r^2;
    each constant combines the classes of its m1 with its roots of unity
    (see ``_theta_groups``; exact for r = 2, one stated rounding term
    otherwise)."""
    _check_level(r)
    with workprec(prec + GUARD_BITS):
        out = _complex(*_theta_batch(tau, None, r, _level_chars(tau.g, r), prec, tol))
    if not any(fabs(v.value) > v.err for v in out):
        raise PrecisionError("all theta constants drowned in the error bound; "
                             "this signals a precision failure")
    return out


def _log_norm_sum(f: CertifiedReal, bounds: list[tuple[int, int]],
                  g: int) -> CertifiedReal:
    """log(2^(g/2) sum of the ``_moduli2`` values (f, bounds)): the integer
    bounds are summed exactly and scaled once."""
    total = _interval(*_outward(f, sum(lo for lo, _ in bounds),
                                sum(hi for _, hi in bounds)))
    if total.lo <= 0:
        raise PrecisionError("coset norm sum is below its error bound")
    return (CertifiedReal.rounded(mpf(2) ** (mpf(g) / 2)) * total).log()


def beta_sigma(tau: SiegelPoint, z, r: int, prec: int = DEFAULT_PREC,
               tol=None) -> CertifiedReal:
    """-(1/2) log(2^(g/2) sum over the coset set of ||theta||^2(tau, rz+e)),
    formed as -(1/2) log(2^(g/2) sum of the det-free ``_moduli2``) minus
    (1/4) log det Im tau.

    r z is formed exactly, and each coset norm is the characteristic norm of
    ``_coset_chars`` at r z, so the bound holds for the exact points r z + e."""
    g = tau.g
    with workprec(prec + GUARD_BITS):
        w = None if z is None else [fmul(r, as_mpc(x), exact=True) for x in z]
        f, bounds = _moduli2(tau, w, r, _coset_chars(g, r), prec, tol)
        return (_log_norm_sum(f, bounds, g) * CertifiedReal.exact(mpf(-1) / 2)
                - CertifiedReal.rounded(log(tau.det_im()) / 4))


# ---------------------------------------------------------------------------
# verification operations


@dataclass(frozen=True)
class NormBoundsReport:
    """Certified check of the two-sided invariant-norm bounds, each decided
    with the factor det(Y)^(1/2) of ||theta||^2 cancelled (Y = Im tau).

    ``max_lower``: max_e ||theta||^2(tau, e) >= det(Y)^(1/2), valid on the
    whole Siegel space, decided as max_e |theta_e(tau, 0)|^2 >= 1.
    ``upper``: ||theta||^2(tau, z) <= c_g det(Y)^(1/2), decided as
    exp(-2 pi y^T Y^-1 y) |theta(tau, z)|^2 <= c_g with y = Im z.  The
    combined window bounds (1/2) log(2^(g/2) sum_e ||theta_e||^2) -
    (1/4) log det Y, which equals (1/2) log(2^(g/2) sum_e |theta_e|^2).
    Every check reads exact integer bounds on the walk's sums, scaled by
    the walk's one certified factor (``_moduli2``): ``max_lower`` their
    largest, ``upper`` the one of [0; 0] at z, and the combined window
    their sum, under one certified log.  ``upper`` and the combined window
    assume tau was reduced (caller's responsibility, flag echoed here).
    """
    g: int
    r: int
    assumed_reduced: bool
    max_lower: Verdict
    upper: Verdict | None
    combined_lower: Verdict | None
    combined_upper: Verdict | None


def verify_norm_bounds(tau: SiegelPoint, r: int, z=None,
                       prec: int = DEFAULT_PREC,
                       assume_reduced: bool = False) -> NormBoundsReport:
    """The coset norms are the characteristic norms of ``_coset_chars`` at
    w = 0, so the bounds hold for the exact coset points; every check reads
    the det-free ``_moduli2`` (see ``NormBoundsReport``)."""
    from . import constants
    _check_level(r)
    g = tau.g
    with workprec(prec + GUARD_BITS):
        f, bounds = _moduli2(tau, None, r, _coset_chars(g, r), prec, None)
        max_lower = certified_le(CertifiedReal.exact(1), _largest(f, bounds))

        upper = combined_lower = combined_upper = None
        if assume_reduced:
            c_g = constants.c_g(g, prec)
            zero = (0,) * g
            upper = certified_le(
                _largest(*_moduli2(tau, z, r, [(zero, zero)], prec, None)), c_g)
            mid = _log_norm_sum(f, bounds, g) * CertifiedReal.exact(mpf(1) / 2)
            lo_const = CertifiedReal.rounded(g * log(2) / 4)
            hi_const = (c_g.log() * CertifiedReal.exact(mpf(1) / 2)
                        + lo_const + CertifiedReal.rounded(g * log(r)))
            combined_lower = certified_le(lo_const, mid)
            combined_upper = certified_le(mid, hi_const)
    return NormBoundsReport(g, r, assume_reduced, max_lower, upper,
                            combined_lower, combined_upper)


@dataclass(frozen=True)
class DuplicationReport:
    """F(2^k tau) = max over half-integer characteristics of
    |theta_(m1,m2)(2^k tau, 0)|, its certified monotonicity down the
    duplication tower, and the drift of theta(2^k tau, 0) toward 1, up to
    the last point ``top`` = 2^steps tau."""
    f_values: tuple[CertifiedReal, ...]
    theta00_gap: tuple[mpf, ...]
    monotone: tuple[Verdict, ...]
    top: SiegelPoint


def verify_duplication(tau: SiegelPoint, steps: int,
                       prec: int = DEFAULT_PREC) -> DuplicationReport:
    """One walk per level gives the 2^(2g) half-integer characteristics:
    F from the ``_moduli`` bounds scaled by exp(-pi y_m) 2^-pf, unsquared,
    and theta(2^k tau, 0), their [0; 0] member, from ``_complex``."""
    g = tau.g
    chars = _level_chars(g, 2)
    f_vals = []
    gaps = []
    with workprec(prec + GUARD_BITS):
        for k in range(steps + 1):
            scale = 2 ** k
            scaled = SiegelPoint.from_rows(
                [[tau.entry(i, j) * scale for j in range(g)] for i in range(g)])
            # m1 = 0 for [0; 0], so dropping the phase leaves its value as is
            walk, sums = _theta_batch(scaled, None, 2, chars, prec, None, phase=False)
            f_vals.append(_largest(_exp_pi(-walk.y_m, -walk.pf), _moduli(walk, sums)))
            th0 = _complex(walk, sums[:1])[0]
            gaps.append(fabs(th0.value - 1) + th0.err)
        mono = tuple(certified_le(f_vals[k + 1], f_vals[k]) for k in range(steps))
    return DuplicationReport(tuple(f_vals), tuple(gaps), mono, scaled)
