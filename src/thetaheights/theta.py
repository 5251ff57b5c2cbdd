"""Certified evaluation of Riemann theta functions and their invariant norms.

The series is truncated over the box ||n||_inf <= N intersected with an
ellipsoid; the Gaussian tail over the complement of the box is bounded in
closed form from an exact rational lower bound on the smallest eigenvalue
of Im tau, the terms of the box outside the ellipsoid by 2^-10 of that
bound, so the reported error is a proven bound, not an estimate.

One walk serves every characteristic of a level r at (tau, z).  With
N = r n + a the term of n in theta[a/r; b/r] is exp(pi i D(N) / r^2)
exp(2 pi i N.b / r^2), and D does not depend on a.  So the walk runs over
the integers N in the union of the boxes ||n||_inf <= R_a of the requested
top characteristics m1 = a/r, adds each term to the fixed-point
accumulator of its class N mod r^2 (each coordinate), and only inside the
box of its own a.  ``_theta_groups`` combines the classes of each a with
the roots of unity exp(2 pi i N.b / r^2) into every theta[a/r; b/r].  Each
characteristic thus sums exactly the terms of its own box inside the
ellipsoid, and keeps the tail bound of its own radius (with the cushion
for the ellipsoid) and a rounding budget no larger than the one of its own
walk.  Inside the engine a characteristic is the integer pair
(a, b) over r; a public ``ThetaCharacteristic`` is converted once, where it
enters.  The radius depends on a only through s = max_i |a_i/r + u_i|, so
``_theta_batch`` forms s once per distinct a and runs one radius search per
distinct s.  The weights have modulus 1, so the walk's budget holds for
every combination; they are exact for r = 2 (and for r = 4 when the global
phase is left out, as norms do), and otherwise add one stated rounding
term.  ``theta`` is the one-member batch, and ``theta_truncated`` the
one-member walk at a given radius.

The walk sums the box, clipped to an ellipsoid whose dropped terms are
bounded by a small share of the box tail (``_height``), in rows along the
last coordinate, in three parts:

- The shape (``_frames``): the rows and their runs, the accumulator slot of
  every term and each characteristic's rounding budget.  Every row of a
  walk steps by one step, the gcd of r and the differences of the last
  entries of the top characteristics, and a line (fixed N_1..N_(g-2))
  holds the rows of every prefix class, so a level walk at g = 2 is one
  line.  The shape depends only on g, r, the radii and whether z = 0,
  where the rows at N and -N hold mirrored terms and one row of each pair
  is walked, and it is cached.
- The plan (``_plan``, ``_chain_plan`` and the width rule ``_width``): from
  the exact entries of tau and z, each row's peak and its interval inside
  the ellipsoid, which rows take fresh exps and which chain their start
  values from the row before (by ``_move``), which values are formed as
  exact inverses of others instead of fresh exps (rho+ rho- = Q at a row's
  peak, O+ O- = Q_out at a line's centre, Q^-1 and C^-d), and the
  fixed-point width pf, all decided before the walk; the chains by an
  error model that carries each value's modulus as a double, with no exp
  per product.  Every start value and constant of a walk is formed at one
  width, pf + ``CHAIN_GUARD`` bits, and rounded down to pf bits where a
  row reads it.
- The executor (``_row_sum``): the Python-int fixed-point products and sums
  that the shape and the plan prescribe, chained by the same ``_move``.

The combination is in integers only: each characteristic leaves
``_theta_groups`` as its fixed-point sum S with an integer rounding budget
and its tail bound with the cushion for the ellipsoid (``_Sum``), and two
finishers read it.  ``_complex`` rounds S to a ``CertifiedComplex``
(``theta``, ``theta_truncated``, ``theta_null_vector``, ``theta_norm``
and the theta_00 of ``verify_duplication``).  ``_moduli`` bounds |S| between two integers by
``isqrt``, with no mpc; the norm checks (``verify_norm_bounds``,
``beta_sigma`` and F of ``verify_duplication``) scale those integer bounds,
or their squares, by one certified factor per walk.

The certified tail bound (``_tail``) is formed at a fixed 64 bits with
every operation rounded outward, whatever the working precision: it needs
about 40 correct bits, not prec of them.  Its factors that n does not
change, and its factor -pi lam, are formed once per (tau, z).  The radius
search (``_radius``, public as ``choose_radius``) takes its first estimate
in doubles, and in mpf only next to an integer, and decides each
comparison of the tail bound with the
target on its log in doubles, with a proven guard against the double error
and the rounding of the certified bound; inside the guard the certified
bound decides, so every radius is the one the certified bound alone would
choose.  The certified tail is evaluated once per (s, radius) at z
(``_box_tail``) and looked up once per top characteristic of a walk, before
the walk, which clips its rows by the least of them.

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

from mpmath import (mp, mpf, mpc, fabs, fmul, fsub, isfinite, ldexp, log, pi, sqrt,
                    workprec)
from mpmath.libmp import (finf, fone, from_int, from_man_exp, from_rational, fzero,
                          mpc_expjpi, mpf_add, mpf_div, mpf_exp, mpf_mul, mpf_neg,
                          mpf_pi, mpf_pow_int, mpf_shift, mpf_sub, round_ceiling, round_floor,
                          round_nearest)

from .certified import (DEFAULT_PREC, GUARD_BITS, CertifiedComplex,
                        CertifiedReal, PrecisionError, Verdict, certified_le)
from .exactla import dyadic, fraction_to_mpf, matvec, mpf_to_fraction
from .siegel import SiegelPoint, as_mpc

RADIUS_CAP = 4000


class ReduceFirstError(ArithmeticError):
    """Im tau is so skewed that the truncation radius would be astronomical;
    reduce tau before evaluating."""


def _check_level(r: int):
    if type(r) is not int or r < 2 or r % 2:
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
    ``_tail_data(tau, z)`` as ``tail``, the head of its tail bounds
    ``_tail_head`` as ``head``, their factor -pi lam ``_tail_neg`` as
    ``neg``, and the shifts s of ``_shift`` and the
    certified box tails of ``_box_tail`` as they are asked for: formed once
    per (tau, z) and passed down as z, so that a batch, its radius
    searches, its walk and its norm scale share them."""


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
    out.head = _tail_head(tau.g, out.tail[1])
    out.neg = _tail_neg(out.tail[0])
    out.shifts = {}
    out.tails = {}
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


def _box_tail(z: _At, a, den: int, radius: int) -> mpf:
    """The certified tail bound of a/den over ||n||_inf > radius at z
    (``_tail``), evaluated once per (s, radius)."""
    s = _shift(z, a, den)
    t = z.tails.get((s, radius))
    if t is None:
        t = z.tails[s, radius] = _tail(z.tau.g, z.neg, s, z.head)(radius)
    return t


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


# The certified tail is formed at TAIL_BITS whatever the working precision,
# from -pi rounded up and pi rounded up.
TAIL_BITS = 64
_NEG_PI = mpf_neg(mpf_pi(TAIL_BITS, round_floor))
_PI_UP = mpf_pi(TAIL_BITS, round_ceiling)


def _up(x: tuple, y: tuple) -> tuple:
    """The raw product x y rounded up at TAIL_BITS."""
    return mpf_mul(x, y, TAIL_BITS, round_ceiling)


def _exp_up(x: tuple) -> tuple:
    """An upper bound of e^x at TAIL_BITS: ``mpf_exp`` rounded up and
    widened by the allowance |v| 2^(4 - q) that certified.py assumes."""
    v = mpf_exp(x, TAIL_BITS, round_ceiling)
    return mpf_add(v, mpf_shift(v, 4 - TAIL_BITS), TAIL_BITS, round_ceiling)


def _tail_head(g: int, xi: Fraction) -> tuple:
    """The factor 2g (g-1)! e^(pi xi) (1 + 2^-30) of ``_tail``, which n
    does not change, as a raw value rounded up at TAIL_BITS (xi >= 0)."""
    head = from_man_exp(2 * g * factorial(g - 1) * ((1 << 30) + 1), -30)
    if xi:
        xi_up = from_rational(xi.numerator, xi.denominator, TAIL_BITS, round_ceiling)
        head = _up(head, _exp_up(_up(_PI_UP, xi_up)))
    return head


def _tail_neg(lam: Fraction) -> tuple:
    """-pi lam rounded up at TAIL_BITS, the factor of ``_tail`` that only
    tau sets (lam rounded down first), as a raw value."""
    return _up(_NEG_PI, from_rational(lam.numerator, lam.denominator, TAIL_BITS, round_floor))


def _tail(g: int, neg: tuple, s: Fraction, head: tuple):
    """n -> proven bound on the absolute tail over ||n||_inf > n, with
    ``neg`` = ``_tail_neg(lam)`` and ``head`` = ``_tail_head(g, xi)``:

        T(n) = 2g (g-1)! e^(pi xi) (1 + 2^-30) (2n+3)^(g-1) e^(-pi lam gap^2)
               / (1 - q)^g,     gap = n + 1 - s,  q = e^(-2 pi lam gap),

    and infinity unless gap > 0.  This is the box form of the bound of
    Deconinck, Heil, Bobenko, van Hoeij and Schmies (Math. Comp. 73,
    2004): complete the square in the exponent, bound the quadratic form by
    lam (k - s)^2 on the shell ||n||_inf = k, count the shell by
    2g(2k+1)^(g-1), and dominate the resulting series by a geometric one;
    1 + 2^-30 is a cushion.

    It is formed in raw libmp values at TAIL_BITS = 64 bits, at every
    working precision, with every operation rounded outward, so it is
    never below T(n): lam and gap are rounded down; -pi lam, the exp
    arguments -pi lam gap^2 and -2 pi lam gap, and pi xi are rounded up;
    each exp is ``_exp_up``, an upper bound by certified.py's allowance;
    1 - q and its g-th power are rounded down; the products and the
    quotient are rounded up.  Where the computed 1 - q is not positive
    the bound is infinity.  How close it stays to T(n) is in
    ``choose_radius``."""
    s_num, s_den = s.numerator, s.denominator

    def bound(n: int) -> mpf:
        gap_num = (n + 1) * s_den - s_num
        if gap_num > 0:
            gap = from_rational(gap_num, s_den, TAIL_BITS, round_floor)
            arg = _up(neg, gap)                         # >= -pi lam gap
            rest = mpf_sub(fone, _exp_up(mpf_shift(arg, 1)), TAIL_BITS, round_floor)
            if not rest[0] and rest[1]:
                t = _up(_up(head, from_int((2 * n + 3) ** (g - 1))), _exp_up(_up(arg, gap)))
                return mp.make_mpf(mpf_div(t, mpf_pow_int(rest, g, TAIL_BITS, round_floor),
                                           TAIL_BITS, round_ceiling))
        return mp.make_mpf(finf)
    return bound


def choose_radius(tau: SiegelPoint, z=None, char=None,
                  prec: int = DEFAULT_PREC, tol=None) -> int:
    """Smallest box radius whose certified tail bound is below tol/2, with
    s = max_i |m1_i + u_i|, but not below int(s) + 2 when the search has
    jumped above it.

    The search jumps to the estimate n0 (see ``_radius``), climbs while
    the bound is above the target and descends while the bound one lower is
    not.  Each comparison ``_tail(...)(n) > target`` is decided on the log
    of the bound in doubles,

        log(2g (g-1)!) + pi xi + (g-1) log(2n+3) - pi lam gap^2
            - g log(1 - q) + log1p(2^-30),   gap = n + 1 - s, q = e^(-x),
            x = 2 pi lam gap,

    against the log of the target, log(m) + e log 2 for target = m 2^e.
    Let S be the sum of the moduli of these terms (log m and e log 2
    apart).  The doubles convert lam, xi and gap correctly rounded, and
    each term takes a few roundings and one libm call of relative error
    2^-52, log(1 - q) as log(-expm1(-x)), which is accurate for every
    x > 0; with the sum of eight terms the double difference of the logs
    is within 2^-49 (S + g) of the exact one.  The certified bound
    (``_tail``, at 64 bits) is never below the exact one, and its log
    exceeds the exact log by at most 2^-57 (S + g + 2g/x + 2): each
    rounding costs at most 2^-63 relative, so each exp argument A, formed
    by at most six of them, errs by at most 2^-60 |A|, and each
    ``_exp_up`` exceeds e^A by at most 2^-58 relative (the allowance, up
    to twice, and a rounding); q so exceeds its value by at most
    (x + 4) 2^-60 relative, and since q / (1 - q) <= 1/x and the
    subtraction costs at most 2^-64, 1 - q falls short by at most
    2^-58 (1 + 2/x) relative, g times in the power; the head, the products
    and the quotient add a few 2^-63 more.  The log of the target is
    exact.  A decision is therefore taken in doubles only when the two
    logs differ by more than the guard 2^-40 (S + g + g/x + 16), which
    exceeds both errors together; otherwise, and whenever a double does
    not convert (lam or xi beyond the double range), is not finite, or
    x < 2^-20, the certified bound decides.  Every decision, and so the
    radius, is the one of the certified bound alone; the bound itself is
    certified once per (s, radius), by ``_box_tail``.

    tol must be a positive finite number."""
    with workprec(prec + GUARD_BITS):
        target = _target(prec, tol)
        z = _at(tau, z)
        den, a, _ = _char_ints(tau.g, char)
        return _radius(z, _shift(z, a, den), target)


def _target(prec: int, tol=None) -> mpf:
    """The tail's share tol/2, tol = default_tol(prec) when None."""
    if tol is None:
        return _default_target(prec)
    target = mpf(tol) / 2
    if not (target > 0 and isfinite(target)):
        raise ValueError("tol must be a positive finite number")
    return target


@functools.lru_cache(maxsize=None)
def _default_target(prec: int) -> mpf:
    """default_tol(prec) / 2, a power of 2 and so exact at every mp.prec."""
    return default_tol(prec) / 2


def _radius(z: _At, s: Fraction, target: mpf) -> int:
    """The search of ``choose_radius`` at z and shift s; call inside the
    working precision.

    The floor int(s) + 2 is not needed for soundness: every radius the
    search returns has its bound below the target.  It stays because the
    target only caps the error, and some verdicts need far less.  At
    tau = 2^k i the duplication tower compares F values whose differences,
    about e^(-pi 2^k), fall below the target.  Without the floor, the least
    radius whose bound is below the target lets the tail take the whole
    target: at prec 96 the radius drops to 0 at 2^4 i and 2^5 i, and the
    last monotonicity verdict turns indeterminate.  A search with neither the
    jump nor the floor shrank 269 of 420 radii of a g = 1 duplication
    campaign (seed 3, 30 samples, steps 6, prec 128) and 224 of 420 at
    g = 2, and failed 6 tests of the suite, the duplication verdicts among
    them.

    The jump.  n0 = max(int(s) + 1, int(s + sqrt(need)) + 1), close to the
    n with (n + 1 - s)^2 = need, where

        need = (log(1/target) + pi xi + 4g + 8) / (pi lam),

    and n0 = int(s) + 1 when need <= 0.  It is taken in doubles.  With
    K = (|log m| + |e log 2| + pi xi + 4g + 8) / (pi lam) <= (S' + 4g) /
    (pi lam), S' the sum ``size`` of the moduli of the constant terms of
    the decisions, the double need errs by at most 2^-48 K (a few roundings
    of relative 2^-53 in each term, each sum and the quotient), and the mpf
    need of ``_jump_mpf`` at the working precision P = prec + 64 >= 65 by
    at most 2^-58 K; E = 2^-45 (S' + 4g) / (pi lam) exceeds both.  A need
    below -E is negative in both.  Above 2E, each root errs by at most
    E / sqrt(need), and v = s + sqrt(need) by at most
    d = E / sqrt(need) + 2^-48 v, so when no integer lies within d of v,
    int(v) is the one of the exact and of the mpf v.  Otherwise, and where
    lam or xi does not convert to a normal double, n0 is ``_jump_mpf``'s.
    So n0 is always the mpf one, and the search visits the same n."""
    g = z.tau.g
    lam, xi, _ = z.tail
    bound = None        # the certified bound, formed at the first tie
    s_num, s_den = s.numerator, s.denominator
    try:
        lam_f, xi_f = float(lam), float(xi)
    except OverflowError:
        lam_f = xi_f = 0.0      # every decision and n0 in mpf
    man, e = dyadic(target._mpf_)
    log_m, log_e = math.log(man), e * math.log(2)
    head = math.log(2 * g * factorial(g - 1)) + math.log1p(2.0 ** -30)
    pxi = math.pi * xi_f
    size = abs(head) + pxi + abs(log_m) + abs(log_e) + g + 16

    def over(n: int) -> bool:
        """bound(n) > target, in doubles outside the guard of
        ``choose_radius`` and by the certified bound inside it."""
        nonlocal bound
        gap = ((n + 1) * s_den - s_num) / s_den
        x = 2 * math.pi * lam_f * gap
        if x >= 2.0 ** -20:
            shell = (g - 1) * math.log(2 * n + 3)
            gauss = math.pi * lam_f * gap * gap
            geom = -g * math.log(-math.expm1(-x))      # -g log(1 - q) >= 0
            diff = head + pxi + shell - gauss + geom - log_m - log_e
            if abs(diff) > 2.0 ** -40 * (size + shell + gauss + geom + g / x):
                return diff > 0
        bound = bound or _tail(g, z.neg, s, z.head)
        return bound(n) > target

    n = None
    if lam_f >= 2.0 ** -1000:
        need = (pxi + 4 * g + 8 - log_m - log_e) / (math.pi * lam_f)
        err = 2.0 ** -45 * (size + 4 * g) / (math.pi * lam_f)
        if need < -err:
            n = int(s) + 1
        elif need > 2 * err:
            v = float(s) + math.sqrt(need)
            d = err / math.sqrt(need) + 2.0 ** -48 * v
            if v < 2.0 ** 40 and int(v - d) == int(v + d):
                n = max(int(s), int(v)) + 1
    if n is None:
        n = _jump_mpf(g, lam, xi, s, target)
    while n <= RADIUS_CAP and over(n):
        n += 1
    if n > RADIUS_CAP:
        raise ReduceFirstError(
            "truncation radius exceeds the cap; reduce tau first")
    while n > int(s) + 2 and not over(n - 1):
        n -= 1
    return n


def _jump_mpf(g: int, lam: Fraction, xi: Fraction, s: Fraction, target: mpf) -> int:
    """The jump n0 of ``_radius`` in mpf at the working precision."""
    need = (log(1 / target) + pi * fraction_to_mpf(xi) + g * 4 + 8) / (pi * fraction_to_mpf(lam))
    return int(s) + 1 if need <= 0 else max(int(s) + 1, int(s + sqrt(need)) + 1)


# The share theta of the exponent that the ellipsoid bound of ``_height``
# spends on its lattice sum.  Over the seed-56 norm-bounds sweep of
# scripts/walk_counts.py, theta = 1/8, 1/16, 1/32, 1/64, 1/128 and 1/256
# walked 44 933, 42 823, 42 019, 41 734, 41 762 and 41 945 terms.
CLIP_THETA = 1 / 64


def _height(z: _At, t_min: mpf) -> float:
    """The height H of a walk's ellipsoid E = {N : pi Im D(N) / s <= H}
    (``_plan``), from the least certified box tail t_min of the walk: the
    terms of each characteristic outside E sum to at most 2^-10 t_min, so
    the cushion 1 + 2^-10 on each ``_Sum``'s tail covers them.  It is
    math.inf, no clip, where lam, xi or log t_min does not convert to a
    double or t_min is infinite.

    The bound.  A term of m1 = a/den at v in Z^g + m1 has modulus
    e^(-pi (v^T Y v + 2 v^T y)) = e^(pi xi - pi Q(x)) with y = Im z,
    x = v + u, u = Y^-1 y and Q(x) = x^T Y x, and pi Im D / s =
    pi Q(x) - pi xi.  So the terms outside E have pi Q(x) > H + pi xi,
    and with e^(-pi Q) = e^(-(1 - theta) pi Q) e^(-theta pi Q),
    theta = ``CLIP_THETA``, they sum to at most

        e^(theta pi xi - (1 - theta) H) sum_x e^(-theta pi lam |x|^2)
            <= e^(theta pi xi - (1 - theta) H) (1 + 1/sqrt(theta lam))^g:

    Q(x) >= lam |x|^2, the sum over x in Z^g + m1 + u is a product of one
    sum per coordinate, and each, sum_k e^(-pi theta lam (k + c)^2), is at
    most the maximum of that unimodal function plus its integral
    1/sqrt(theta lam).

    The choice.  H = (theta pi xi + g log1p(1/sqrt(theta lam)) - log t_min
    + 10 log 2) / (1 - theta) makes the bound 2^-10 t_min.  In doubles
    each term of the numerator (log t_min as log m + e log 2 for
    t_min = m 2^e) takes a few roundings and at most two libm calls of
    relative error 2^-52, so with S the sum of the moduli of the terms
    the numerator errs by less than 2^-46 (S + 1), and the quotient adds
    2^-53 relative.  The guard 2^-40 (S + 1) added to the numerator keeps
    H above the exact value, and a larger H only lowers the bound."""
    lam, xi, _ = z.tail
    try:
        lam_f = CLIP_THETA * float(lam)
        man, e = dyadic(t_min._mpf_)
        terms = (CLIP_THETA * math.pi * float(xi), z.tau.g * math.log1p(1 / math.sqrt(lam_f)),
                 -math.log(man), -e * math.log(2), 10 * math.log(2))
    except (OverflowError, ValueError, ZeroDivisionError):
        return math.inf     # a part beyond the double range, or t_min infinite
    if lam_f < 2.0 ** -1000:
        return math.inf
    return (sum(terms) + 2.0 ** -40 * (sum(map(abs, terms)) + 1)) / (1 - CLIP_THETA)


def _fixed(x, frac_bits: int) -> int:
    """The raw mpf x times 2^frac_bits, rounded down to an int (< 1 ulp)."""
    m, e = dyadic(x)
    e += frac_bits
    return m << e if e >= 0 else m >> -e


def _expjpi(num_re: int, num_im: int, s_den: int, w: int) -> tuple[int, int]:
    """exp(pi i (num_re + i num_im) / s_den), num_re reduced mod 2 s_den,
    as fixed-point ints with w fractional bits (error: ``_fresh``).  Each
    part of the argument is num / s_den rounded to nearest at w bits: by
    ``from_man_exp`` with no division when s_den is a power of two (the
    same mpf as ``from_rational``'s), by ``from_rational`` otherwise."""
    num_re = (num_re + s_den) % (2 * s_den) - s_den
    if s_den & (s_den - 1):
        arg = (from_rational(num_re, s_den, w, round_nearest),
               from_rational(num_im, s_den, w, round_nearest))
    else:
        e = 1 - s_den.bit_length()
        arg = from_man_exp(num_re, e, w, round_nearest), from_man_exp(num_im, e, w, round_nearest)
    ex, ey = mpc_expjpi(arg, w)
    return _fixed(ex, w), _fixed(ey, w)


def _unit(num: int, den: int, p: int) -> tuple[int, int, bool]:
    """exp(pi i num/den) as p-bit fixed-point ints, and whether that is exact.
    It is exact (1, i, -1 or -i) when 2 num/den is an integer; otherwise each
    component is within 68 ulps (the exp allowance at |arg| <= pi plus the
    rounding down), so the modulus error is below 97 * 2^-p."""
    if 2 * num % den == 0:
        one = 1 << p
        return ((one, 0), (0, one), (-one, 0), (0, -one))[2 * num // den % 4] + (True,)
    return _expjpi(num, 0, den, p) + (False,)


def _row_units(k: int) -> int:
    """Rounding budget, in ulps of 2^-pf, of a walked row of k + 1 terms.

    From the peak term t and the first ratio rho outward on each side
    (|rho| <= 1 because x* is the rounded or clipped peak, see ``_plan``)
    the walk runs t <- t*rho, rho <- rho*Q with
    Q = exp(2 pi i T_gg step^2 / s) in Python-int fixed point with pf
    fractional bits; each product, rounded down, costs <= 1 ulp per
    component, < 2 * 2^-pf.  The start values t and rho and Q are formed
    at pf + CHAIN_GUARD bits, fresh, by identity or along a chain, within
    66 ulps of 2^-pf (``_fresh`` and ``_chain_plan``), and rounded down to
    pf bits, so each errs by at most eps = 68 * 2^-pf.  With
    sigma = eps + 2 * 2^-pf = 70 * 2^-pf the ratio error after j steps is
    d_j <= eps + j sigma (linear growth) and the term error is
    e_j <= eps + sum_{i<j} (d_i + 2^(1-pf)) <= sigma (1 + j(j+1)/2).  A
    direction of K steps thus costs
    (K + K(K+1)(K+2)/6) sigma, and since this is convex in K, a row of
    k + 1 terms costs at most u_k = (1 + k + k(k+1)(k+2)/6) sigma.
    Computed multipliers may exceed modulus 1 by d_j or eps; that amplifies
    the row error by at most exp(k(k+1) sigma) <= 1 + 2^-30, which
    ``_width_floor`` guarantees.  A row whose peak is below 2^-(pf+1) is
    not walked: its terms together are below u_k."""
    return 70 * (1 + k + k * (k + 1) * (k + 2) // 6)


def _width_floor(k: int) -> int:
    """The least pf with 70 k(k+1) 2^-pf <= 2^-31 (see ``_row_units``)."""
    return (70 * k * (k + 1)).bit_length() + 31


# The shape of one walked row, which tau and z do not change: its prefix
# nn = N_1..N_(g-1) and accumulator base, the spans of its own top
# characteristics by a_g, ``mirror`` = (mbase, mspans) of the row at -nn
# when this row walks that one too (else None), ``tops`` as (c, radius, a)
# with c the class of a's terms along the row (a_g, or -a_g for a top of
# the row at -nn), the range lo + step j, j <= last, that it walks at the
# walk's step, and the accumulator index of each of its terms, ``slots``.
_Frame = namedtuple("_Frame", "nn base spans mirror tops lo last slots")

# The shape of a walk (``_frames``): its runs of frames, the budget units[a]
# of each top characteristic, the longest row's last k_max, the data
# lone[a] of a's own walk, (base, mbase) for each pair of mirror rows, the
# step of every row and the spacing e of the rows of a line.
_Shape = namedtuple("_Shape", "runs units k_max lone pairs step spacing")


@functools.lru_cache(maxsize=256)
def _frames(g: int, den: int, boxes: tuple, mirror: bool) -> _Shape:
    """The shape of the walk over ``boxes`` ((a, R_a), ...), the top
    characteristics m1 = a/den with their radii: everything of the walk
    that tau and z do not change.  The cache hands one value per key to
    every walk, which only reads it.

    Rows.  A row fixes N_1..N_(g-1); its top characteristics are the a with
    that prefix mod den whose box holds the prefix, and each adds the span
    a_g + den[-R_a, R_a] of the last coordinate x.  Every row walks
    x = lo + step j over the union of its spans, at one step for the whole
    walk: the gcd of den and the differences of a_g over all its tops (den
    for the walk of one m1, 1 on a full level).  A line is the rows of one
    N_1..N_(g-2), of every prefix class, in N_(g-1) order at the spacing
    e, the gcd of den and the differences of a_(g-1) over all tops (at
    g = 1, where the one row has no neighbour, e is the step).  A line's
    walked rows form runs of rows e apart: a run ends at a gap of the line
    and at a row that its mirror walks.

    Mirror rows.  With ``mirror`` (z = 0, where D(-N) = D(N) exactly, see
    ``_plan``) the row at nn != 0 and the row at -nn pair when both are
    rows of the walk and the negated spans lie on the walk's lattice,
    2 a_g = 0 mod step (always at den = 2 and on a full level; not for a
    lone level-4 or level-6 top with 2 a_g != 0 mod den).  The
    lexicographically positive row of a pair walks the union of its spans
    with the negated spans of the row at -nn; the other is neither built,
    planned nor walked.  The row at nn = 0 and a row whose mirror is not a
    row of the walk (the asymmetric edge of an odd a) are walked as they
    are.  There is no mirror at g = 1 (the one row is its own mirror).

    Slots.  The term at x goes to base + x mod den^2, the accumulator of its
    class, when x lies in the box of its own top characteristic; to
    mbase + (-x mod den^2), the class of -x of the row at -nn, when only -x
    lies in the box there; to the pair slot size + base + x mod den^2 when
    both do (``pairs``: the walk adds each pair slot to both classes at its
    end); and to the trash 2 size otherwise, outside every box.  Since
    D(-N) = D(N) exactly, every characteristic sums exactly the terms of
    its own box.

    Budgets.  units[a] is the sum of u_k (``_row_units``) over the walked
    rows whose terms enter a's classes, once per side of a pair: a paired
    row's k + 1 terms enter the classes of both rows.  k_max is the largest
    last.  lone[a] = (own, extra, floor) is read by ``_width``: own is the
    units of the walk of a alone (this shape's, for one box), extra is
    ceil(log2(own / old)), 0 when own = old, with old =
    (2R_a+1)^(g-1) u_(2R_a) the units of its unmirrored walk, and floor is
    its ``_width_floor``."""
    h = g - 1
    r2 = den * den
    size = r2 ** g
    first = boxes[0][0]
    step = spacing = den
    by_prefix: dict[tuple, list] = {}
    for a, radius in boxes:
        step = gcd(step, a[h] - first[h])
        spacing = gcd(spacing, a[h - 1] - first[h - 1])
        by_prefix.setdefault(a[:h], []).append((a[h], radius, a))
    rows = {}       # nn -> (base, here, spans)
    # the cache keeps every frame, so rows share one object per distinct
    # value: a fresh dict and tuples per row left about 0.6 MB more peak
    # RSS on the norms-g2 benchmark (allocator pools held by cached objects)
    spans_of = {}   # here -> spans
    ends_of = {}    # (here, here at -nn) -> (tops, lo, last)
    for prefix, members in by_prefix.items():
        r_max = max(m[1] for m in members)
        for pre in itertools.product(range(-r_max, r_max + 1), repeat=h):
            far = max(map(abs, pre), default=0)
            here = tuple(m for m in members if m[1] >= far)
            if here not in spans_of:
                spans_of[here] = {a_h: (a_h - den * radius, a_h + den * radius)
                                  for a_h, radius, _ in here}
            nn = tuple(den * pre[j] + prefix[j] for j in range(h))
            base = 0
            for x in nn:
                base = base * r2 + x % r2
            rows[nn] = (base * r2, here, spans_of[here])
    pairs = {}
    if mirror and 2 * first[h] % step == 0:
        for nn in rows:
            other = rows.get(tuple(-x for x in nn))
            if other and any(nn):
                pairs[nn] = other
    runs = []
    prev = None
    for nn in sorted(rows):
        if nn in pairs and nn < (0,) * h:
            prev = None     # a row its mirror walks
            continue
        if prev is None or nn[:-1] != prev[:-1] or nn[-1] - prev[-1] != spacing:
            runs.append([])     # a new line, or a gap in one
        prev = nn
        base, here, spans = rows[nn]
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
        slots = [2 * size] * (last + 1)
        for i, (c, radius, _) in enumerate(tops):
            for x in range(c - den * radius, c + den * radius + 1, den):
                j = (x - lo) // step
                if i < len(here):
                    slots[j] = base + x % r2
                elif slots[j] == 2 * size:
                    slots[j] = other[0] + -x % r2
                else:
                    slots[j] += size        # x and -x both in a box
        runs[-1].append(_Frame(nn, base, spans, other and (other[0], other[2]), tops, lo,
                               last, tuple(slots)))
    frames = [fr for run in runs for fr in run]
    units = {a: 0 for a, _ in boxes}
    for fr in frames:
        for _, _, a in fr.tops:
            units[a] += _row_units(fr.last)
    k_max = max(fr.last for fr in frames)
    if len(boxes) > 1:
        lone = {a: _frames(g, den, ((a, radius),), mirror).lone[a] for a, radius in boxes}
    else:
        ((a, radius),) = boxes
        old = (2 * radius + 1) ** h * _row_units(2 * radius)
        extra = 0 if units[a] == old else math.ceil(math.log2(units[a] / old) + 2 ** -20)
        lone = {a: (units[a], extra, _width_floor(k_max))}
    return _Shape(tuple(map(tuple, runs)), units, k_max, lone,
                  tuple({fr.base: fr.mirror[0] for fr in frames if fr.mirror}.items()),
                  step, spacing)


# Extra fractional bits, above pf, of the width of every start value and
# constant of a walk: fresh, by identity or carried along a chain.
CHAIN_GUARD = 32

# One row of a walk at (tau, z) (``_plan``): its frame's slots; the range
# lo..hi of the j it walks, the frame's 0..last clipped to the ellipsoid
# (empty when lo > hi); D(x) = T_gg x^2 + 2 x L + G with L = lr + i li and
# G = gr + i gi; the peak x = x_0 + step k (x_0 the frame's lo), D(x) =
# dr + i di there.
_Row = namedtuple("_Row", "slots lo hi k x lr li gr gi dr di")

# The plan of a walk at (tau, z) (``_plan``): one list of ``_Row`` per run
# of the shape, ``lines``, and the chain plan of each (``_chain_plan``);
# the least Im D of a row's peak d_min over s_den, the denominator of
# every exponent; the fixed-point width pf (``_width``); the walk's step;
# the exponent numerators t_gg of T_gg, q of Q and, for d = +-1, moves[d]
# of the constants of ``_move``; ``inverse``, the constants taken as the
# inverse of another (numerator -> its partner's); and the integer bound h
# on the Im D of the walk's ellipsoid (``_height``; None: no clip).
_Plan = namedtuple("_Plan", "lines chains d_min s_den pf step t_gg q moves inverse h")


def _plan(tau: SiegelPoint, z, den: int, boxes: dict, t_min: mpf) -> tuple[_Shape, _Plan]:
    """The shape (``_frames``) and the plan of the walk over ``boxes``
    (a -> R_a) at (tau, z), whose least certified box tail is t_min: every
    decision of the walk, made before it from exact integers.  Call inside
    the working precision p = mp.prec.

    Exact exponents.  With v = n + m1 and N = den*v = den*n + a, the term is
    exp(pi i D(N) / s) where s = den^2 2^-e0 and

        D(N) = sum_jk T_jk N_j N_k + 2 den sum_j N_j Z_j

    is a Gaussian integer: T = tau 2^-e0 and Z = z 2^-e0 are the exact
    entries scaled by the smallest binary exponent e0 <= 0 (T is tau's
    ``int_form``, shifted further when z needs it).  D does not depend on
    a, so all top characteristics share one lattice of N, and at z = 0
    D(-N) = D(N) exactly, so the shape pairs mirror rows there.

    Peaks.  On a row D = T_gg x^2 + 2 x L + G; its peak is
    x* = lo + step clip(round(j_r)) with j_r the real minimiser of Im D,
    and M = max over rows of -pi Im D(x*) / s is the common exponent: every
    term is computed as t = exp(-M) * term, so |t| <= 1.  M_a, the one of
    a's own unmirrored walk, is the largest -pi Im D / s of a's least term
    on each row of a (at -x on a mirror row).

    The ellipsoid.  |term| = exp(-pi Im D / s) for every top
    characteristic, so the walk keeps the terms with Im D <= h,
    h = ceil(H s / pi) for the height H of ``_height`` at the least box
    tail of the walk: h is formed in doubles as x = H s / pi plus
    |x| 2^-45, which exceeds the five roundings of relative 2^-53 (s, pi
    and three operations), then rounded up, so h >= H s / pi.  On a row
    that is (T x + li)^2 <= li^2 - T (gi - h) with T = Im T_gg, an integer
    interval found by one ``isqrt``; it holds the peak when it meets the
    row's range, since it is symmetric about the real minimiser.  The same
    Im D serves a row and its mirror (D(-N) = D(N) at z = 0).  Radii,
    shapes, budgets and pf do not depend on the clip."""
    g = tau.g
    h = g - 1
    tx, ty, shift = tau.int_form
    zr = [dyadic(w._mpc_[0]) for w in z]
    zi = [dyadic(w._mpc_[1]) for w in z]
    e0 = min([-shift] + [e for m, e in itertools.chain(zr, zi) if m])
    up = -shift - e0
    t = {(j, k): (tx[j][k] << up, ty[j][k] << up) for j in range(g) for k in range(j, g)}
    zc = [(den * zr[j][0] << zr[j][1] - e0, den * zi[j][0] << zi[j][1] - e0)
          for j in range(g)]
    thr, thi = t[(h, h)]
    shape = _frames(g, den, tuple(boxes.items()),
                    h > 0 and not any(m for m, _ in itertools.chain(zr, zi)))
    step = shape.step
    s_den = den * den << -e0
    try:
        x = _height(z, t_min) * float(s_den) / math.pi
        cap = math.ceil(x + abs(x) * 2.0 ** -45)        # h
    except OverflowError:
        cap = None      # H or s beyond the double range: no clip
    peaks = dict.fromkeys(boxes)        # least Im D of a's own walk
    lines = []
    for run in shape.runs:
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
                if peaks[a] is None or d < peaks[a]:
                    peaks[a] = d
            lo, last = fr.lo, fr.last
            k = (2 * (-li - lo * thi) + step * thi) // (2 * step * thi)
            k = max(0, min(last, k))
            x = lo + step * k
            first, end = 0, last
            if cap is not None:
                disc = li * li - thi * (gi - cap)
                if disc < 0:
                    first, end = 1, 0       # the row misses the ellipsoid
                else:
                    root = isqrt(disc)
                    first = max(0, -((lo + (li + root) // thi) // step))
                    end = min(last, ((root - li) // thi - lo) // step)
            rows.append(_Row(fr.slots, first, end, k, x, lr, li, gr, gi,
                             thr * x * x + 2 * x * lr + gr, thi * x * x + 2 * x * li + gi))
        lines.append(rows)
    d_min = min(row.di for line in lines for row in line)
    # the constants of a move by d e rows (none at g = 1, where no row moves)
    q = 2 * step * step * thr, 2 * step * step * thi
    e = shape.spacing
    c = [2 * e * step * v for v in t.get((h - 1, h), (0, 0))]
    q_out = tuple(2 * e * e * v for v in t.get((h - 1, h - 1), (0, 0)))
    moves = {d: (q, (-q[0], -q[1]), (d * c[0], d * c[1]), (-d * c[0], -d * c[1]), q_out)
             for d in (1, -1)}
    plan = _Plan(lines, None, d_min, s_den, _width(shape, peaks, d_min, s_den), step,
                 (thr, thi), q, moves, None, cap)
    chains, inverse = _chain_plan(plan)
    return shape, plan._replace(chains=chains, inverse=inverse)


def _width(shape: _Shape, peaks: dict, d_min: int, s_den: int) -> int:
    """The fixed-point width pf of a walk at the working precision
    p = mp.prec, from its shape, the least Im D of each a's own walk
    (``peaks``) and of the walk (d_min), all over s_den.

    The unmirrored walk of a alone runs at p bits with its own scale
    M_a <= M and (2R_a+1)^(g-1) rows of 2R_a + 1 terms, a budget of
    e^(M_a) old_a 2^-p.  The mirrored walk of a alone has own_a units: a
    row of a half-integral a with a_g = den/2 is one step longer there.  It
    runs at pf_a = p + ceil(log2(own_a / old_a)) (p when own_a = old_a), so
    its budget e^(M_a) own_a 2^-pf_a is no larger than e^(M_a) old_a 2^-p.
    Here a's budget is e^M units[a] 2^-pf, so pf is at least pf_a + E_a,
    with E_a the least integer above
    max(0, log2(units[a] / own_a)) + (M - M_a) / log 2 for every a whose
    units or peak differ from the ones of its own walk (E_a = 0
    otherwise).  The budget of every characteristic is then no larger than
    the one of its own walk, and 2^(pf - pf_a) >= e^(M - M_a).  pf is also
    large enough that 70 k(k+1) 2^-pf <= 2^-31 for the longest row (its own
    walk's floor is in pf_a).  Without a mirror own_a = old_a and
    pf_a = p, as in the unmirrored walk."""
    p = mp.prec
    pf = p
    for a, (own, extra, floor) in shape.lone.items():
        pf_a = max(p + extra, floor)
        if shape.units[a] != own or peaks[a] != d_min:
            bits = (max(0.0, math.log2(shape.units[a] / own))
                    + math.pi / math.log(2) * ((peaks[a] - d_min) / s_den))
            pf_a += math.ceil(bits + 2 ** -20)
        pf = max(pf, pf_a)
    return max(pf, _width_floor(shape.k_max))


def _ratios(row, plan: _Plan) -> list[tuple]:
    """The exponents (re, im numerators over s) of rho+ and rho- at the
    row's peak: D(x* + step) - D(x*) and D(x* - step) - D(x*)."""
    st, x, t_gg = plan.step, row.x, plan.t_gg
    return [(t_gg[0] * a + b * row.lr, t_gg[1] * a + b * row.li)
            for a, b in ((2 * x * st + st * st, 2 * st), (st * st - 2 * x * st, -2 * st))]


def _outer(prev, row) -> tuple:
    """The exponent of O at prev's peak x: D_row(x) - D_prev(x)."""
    return (2 * prev.x * (row.lr - prev.lr) + row.gr - prev.gr,
            2 * prev.x * (row.li - prev.li) + row.gi - prev.gi)


def _move(state: tuple, consts: tuple, shift: int, mul) -> tuple:
    """The start values (t, rho+, rho-, O) of a row carried to the next row
    of its line, the one at N_(g-1) + d e with d = +-1 and e the line's
    spacing, and shifted ``shift`` steps to that row's peak: the
    exact-exponent recurrences of Deconinck, Heil, Bobenko, van Hoeij and
    Schmies (Math. Comp. 73, 2004).  t is the peak term, rho+ and rho- the
    first ratios and O the outer ratio, the next row's term over this one's
    at the same x; consts = (Q, Q^-1, C^d, C^-d, Q_out) with
    Q = exp(2 pi i T_gg step^2 / s), C = exp(2 pi i e step T_(g-1,g) / s) and
    Q_out = exp(2 pi i e^2 T_(g-1,g-1) / s) (``_plan``'s moves[d]):

    - the row move takes t <- t*O, O <- O*Q_out, rho+ <- rho+*C^d and
      rho- <- rho-*C^-d;
    - each step of the peak up takes t <- t*rho+, rho+ <- rho+*Q,
      rho- <- rho-*Q^-1 and O <- O*C^d, a step down the mirror images.

    Every multiplier is the exp of an exact exponent, so the moved values
    are the exact ones up to rounding.  ``mul`` is the product of two
    values: ``_chain_plan`` moves (modulus, error) bounds and the walk
    moves fixed-point values, so both follow this one recurrence.  Q and
    Q^-1 are read only when shift != 0."""
    t, p, m, o = state
    q, qi, c, ci, qo = consts
    t, o, p, m = mul(t, o), mul(o, qo), mul(p, c), mul(m, ci)
    for _ in range(abs(shift)):
        if shift > 0:
            t, p, m, o = mul(t, p), mul(p, q), mul(m, qi), mul(o, c)
        else:
            t, m, p, o = mul(t, m), mul(m, q), mul(p, qi), mul(o, ci)
    return t, p, m, o


def _mag(lg: float) -> float:
    """e^lg, or inf where that overflows a double."""
    return math.exp(lg) if lg < 709 else math.inf


def _fresh(lg: float) -> float:
    """Error bound, in ulps, of a fresh fixed-point exp of modulus e^lg.

    Every exponential is ``mpc_expjpi`` of an argument reduced exactly mod 2
    in its real part (``_expjpi``), so |Re arg| <= pi.  Each keeps the
    per-exp allowance of 8(5 + |arg|) ulps relative; for a modulus e^-x,
    x >= 0, since (a + x) e^-x <= a for a >= 1 that is <= 8(5 + pi) < 66
    ulps, and with the rounding down to the fixed point (< 1 ulp per
    component) a fresh value errs by <= 68 ulps.  A fresh value of modulus
    e^x > 1 errs by <= 8(5 + pi + x) e^x + 2 ulps."""
    return 68.0 if lg <= 0 else 8 * (5 + math.pi + lg) * _mag(lg) + 2


def _inverse(u: tuple, w: int) -> tuple[int, int]:
    """1/u for a w-bit fixed-point u != 0: conj(u) 2^(2w) / |u|^2, each
    part floored."""
    re, im = u
    n = re * re + im * im
    return (re << 2 * w) // n, (-im << 2 * w) // n


def _chain_plan(plan: _Plan) -> tuple[list, dict]:
    """How the walk forms the start values of each row of each line (a
    run of walked rows e apart, see ``_frames``) and its constants, under
    ``plan``'s exponents, d_min, pf and clip: (chains, inverse), with
    inverse the constants formed by identity (numerator -> its partner's)
    and one list [(j, d, how, shift, inv)] per line in visit order, the
    centre first (d = 0), the row of the largest peak, then centre + 1,
    centre + 2, ... (d = 1), then centre - 1, ... (d = -1).  how is "skip"
    (the row misses the ellipsoid, or its peak is below 2^-(pf+1): not
    walked), "anchor" (a fresh exp of t, and of rho+ and rho-, one of them
    by identity where it fits) or "chain" (row j - d's values carried by
    ``_move`` and shifted ``shift`` steps).  inv marks a value formed by
    identity: at an anchor rho_inv = Q / rho_-inv, at the chained row next
    to a line's centre its first O.

    Rounding is not damped along a chain: O, C^(+-1) and Q^-1 may exceed
    modulus 1, and a value that was small when rounded may grow.  So every
    start value and constant of a walk is formed at w = pf + CHAIN_GUARD
    fractional bits (its constants, its anchors and O, one fresh exp at the
    start of each chain, too), and this plan bounds the error of every
    chained value from the exact moduli before the walk.  Every value is
    tracked by its modulus, a double, and a bound on its error in ulps of
    2^-w.  A product of values u, c with exact moduli |u|, |c| and errors
    E_u, E_c, rounded down, errs by at most |u| E_c + |c| E_u
    + E_u E_c 2^-w + 2 ulps, and a fresh exp by ``_fresh``.  A row chains
    when its peak term and each ratio it walks err by at most
    E = 66 * 2^CHAIN_GUARD ulps of 2^-w, the allowance of a value by
    identity too; rounded down to pf bits (less than sqrt(2) ulps more)
    such a value, like a fresh one, errs by less than eps = 68 ulps of
    2^-pf.  Otherwise, and after a row that is not walked, it takes a fresh
    anchor (the centre rows always do).  Every walked row thus starts
    within eps and keeps its budget u_k (``_row_units``).

    The moduli.  A fresh value's modulus is the exponential of its exact
    exponent in doubles (``_mag``, with arguments below 709 in modulus
    rounded three times, so within 2^-41 relative), an inverse's is the
    reciprocal of its partner's and a product's is the product of its
    factors' moduli, each rounding once more (2^-53).  So the model takes
    no exp per product, a chained value's modulus is the exact one up to
    about 2^-41 relative per product, and a bound's relative error grows
    by as much: far below the gap 2 - sqrt(2) (relative 2^-7) for any line
    within the radius cap.

    Inverses.  rho+ rho- = Q at every peak x, since D(x + st) + D(x - st)
    - 2 D(x) = 2 st^2 T_gg; O+ O- = Q_out for the outer ratios of a line's
    centre toward its two neighbours, by the same second difference in
    N_(g-1); Q Q^-1 = C C^-1 = 1.  Of each pair the value of larger modulus
    is a fresh exp, and the other is ``_inverse`` of it, times the product
    where that is not 1, at the chain's width: for an input error of E
    ulps and the modulus |u| the inverse errs by at most
    E / (|u| (|u| - E 2^-w)) + 2 ulps (the inverse of the rounded value,
    then a floor per part), and the product is bounded as above.  A value
    is formed so where that bound is within the allowance E of the chain's
    values, and by a fresh exp otherwise; the walk forms it exactly as
    planned, so every bound holds."""
    s_den = plan.s_den
    tiny = 2.0 ** -(plan.pf + CHAIN_GUARD)
    allowed = (68 - 2) * 2.0 ** CHAIN_GUARD

    def value(im: int) -> tuple:
        """A fresh value of exponent im: its modulus and its error."""
        lg = -math.pi * (im / s_den)
        return _mag(lg), _fresh(lg)

    def times(u: tuple, c: tuple) -> tuple:
        err = u[0] * c[1] + c[0] * u[1] + u[1] * c[1] * tiny + 2
        return u[0] * c[0], err if err == err else math.inf     # inf * 0

    def by_identity(u: tuple, prod) -> tuple | None:
        """prod / u (prod None: 1 / u) by ``_inverse``, or None where its
        error is over the allowance."""
        mod, err = u
        if mod <= err * tiny:
            return None
        out = 1 / mod, err / (mod * (mod - err * tiny)) + 2
        if prod is not None:
            out = times(out, prod)
        return out if out[1] <= allowed else None

    bounds = {}
    inverse = {}
    nums = set(plan.moves[1])
    for num in nums:
        partner = -num[0], -num[1]
        # the partner of larger modulus (smaller im) is the fresh one
        if partner in nums and num[::-1] > partner[::-1]:
            bounds[num] = by_identity(value(partner[1]), None)
            if bounds[num]:
                inverse[num] = partner
                continue
        bounds[num] = value(num[1])
    consts = {d: [bounds[num] for num in move] for d, move in plan.moves.items()}
    q = bounds[plan.q]

    def anchored(row) -> tuple:
        """An anchor's values, the ratio of smaller modulus by identity
        where it fits, and the sign of that ratio (0: both fresh)."""
        ims = [num[1] for num in _ratios(row, plan)]
        inv = 1 if ims[0] >= ims[1] else -1
        up, down = map(value, ims)
        derived = by_identity(down if inv > 0 else up, q)
        if derived is None:
            inv = 0
        elif inv > 0:
            up = derived
        else:
            down = derived
        return (value(row.di - plan.d_min), up, down, None), inv

    chains = []
    for line in plan.lines:
        centre = min(range(len(line)), key=lambda j: line[j].di)
        # peak below 2^-(pf+1): pi y > (pf+1) log 2 holds once 4y > pf+1
        walked = [row.lo <= row.hi and 4 * (row.di - plan.d_min) <= s_den * (plan.pf + 1)
                  for row in line]
        outs = {}       # d -> the first O toward d from the centre, by identity
        if walked[centre] and 0 < centre < len(line) - 1 and walked[centre - 1] \
                and walked[centre + 1]:
            ims = {d: _outer(line[centre], line[centre + d])[1] for d in (1, -1)}
            big = 1 if ims[1] < ims[-1] else -1
            derived = by_identity(value(ims[big]), consts[1][4])
            if derived:
                outs[-big] = derived
        start, inv = anchored(line[centre]) if walked[centre] else (None, 0)
        out = [(centre, 0, "anchor" if walked[centre] else "skip", 0, inv)]
        for d in (1, -1):
            state = start
            for j in range(centre + d, len(line) if d > 0 else -1, d):
                row, prev = line[j], line[j - d]
                how, shift, inv = "anchor", 0, 0
                if not walked[j]:
                    how, state = "skip", None
                elif state is not None:
                    if state[3] is None:
                        inv = int(j - d == centre and d in outs)
                        o = outs[d] if inv else value(_outer(prev, row)[1])
                        state = state[:3] + (o,)
                    shift = (row.x - prev.x) // plan.step
                    cand = _move(state, consts[d], shift, times)
                    (_, et), (_, ep), (_, em), _ = cand
                    if (et <= allowed and (row.k == row.hi or ep <= allowed)
                            and (row.k == row.lo or em <= allowed)):
                        how, state = "chain", cand
                if how == "anchor":
                    state, inv = anchored(row)
                    shift = 0
                out.append((j, d, how, shift, inv))
        chains.append(out)
    return chains, inverse


def _row_sum(tau: SiegelPoint, z, den: int, boxes: dict, t_min: mpf):
    """One walk over the union of the boxes ||n||_inf <= R_a of the top
    characteristics m1 = a/den in ``boxes`` (a -> R_a), clipped to the
    ellipsoid of ``_plan``, in rows along the last coordinate, with one accumulator per class of N = den*n + a mod
    den^2 (each coordinate).  Returns (re, im, y_m, units, pf): re[C] + i
    im[C] is the fixed-point sum, pf fractional bits, of the terms in class
    C, classes in ``itertools.product(range(den^2), repeat=g)`` order;
    exp(-M) with M = pi y_m, y_m an exact Fraction, is the common scale;
    units[a] is the rounding budget of a's classes in ulps of 2^-pf (the
    cached shape's dict: read it only).  t_min is the least certified box
    tail of the boxes (``_box_tail``).  Call inside the working precision
    p = mp.prec.

    The walk of theta[a/den; 0] for every a at once: m2 = b/den only
    multiplies the term of N by exp(2 pi i N.b/den^2), which depends on the
    class of N alone, so ``_theta_groups`` forms every theta[a/den; b/den]
    from these accumulators.

    The executor of the shape (``_frames``) and the plan (``_plan``),
    which make every decision.  Each walked row of a line, in the plan's
    order, takes its start values fresh (``_expjpi``), by identity
    (``_inverse``) or by ``_move`` from the row before it, with the walk's
    constants taken once each (``const``), all at w = pf + CHAIN_GUARD
    bits, and walks out from its peak to the ends of its interval inside
    the ellipsoid in pf bits (``_row_units``) from those values rounded
    down, adding each term to the accumulator of its slot; the
    pair slots are added to both classes at the end.  The integer
    accumulators are exact and each computed term lands in at most one of
    them per row of its pair (in none outside its box), so the errors of
    a's classes stay within units[a] 2^-pf, and so does a combination
    sum_C w_C A_C over a's classes with |w_C| = 1."""
    shape, plan = _plan(tau, z, den, boxes, t_min)
    pf, s_den = plan.pf, plan.s_den
    r2 = den * den
    size = r2 ** tau.g
    acc_re = [0] * (2 * size + 1)
    acc_im = [0] * (2 * size + 1)
    exps = {}       # the walk's constants
    q_pf = ()       # Q at pf bits, formed where a row first walks past its peak
    moves = {}      # (d, whether the peak shifts) -> the constants of ``_move``
    w = pf + CHAIN_GUARD

    def const(num):
        """The constant of exponent num, once per walk: the inverse of its
        partner where the plan says so, else ``_expjpi``."""
        if num not in exps:
            partner = plan.inverse.get(num)
            exps[num] = _expjpi(*num, s_den, w) if partner is None else _inverse(const(partner), w)
        return exps[num]

    def mul(u, c):
        """The fixed-point product at w bits, rounded down."""
        return (u[0] * c[0] - u[1] * c[1]) >> w, (u[0] * c[1] + u[1] * c[0]) >> w

    for line, chain in zip(plan.lines, plan.chains):
        states = {}
        outers = {}     # (i, j) -> the fresh O from row i's peak to row j

        def outer(i, j):
            if (i, j) not in outers:
                outers[i, j] = _expjpi(*_outer(line[i], line[j]), s_den, w)
            return outers[i, j]

        for j, d, how, shift, inv in chain:
            if how == "skip":
                continue
            row = line[j]
            if how == "chain":
                state = states[j - d]
                if state[3] is None:
                    # inv: O_d = Q_out / O_-d at the centre j - d
                    o = (mul(_inverse(outer(j - d, j - 2 * d), w), const(plan.moves[d][4]))
                         if inv else outer(j - d, j))
                    state = state[:3] + (o,)
                # Q and Q^-1 are taken only where the peak shifts
                k = d, shift != 0
                if k not in moves:
                    moves[k] = [const(num) if shift or i > 1 else None
                                for i, num in enumerate(plan.moves[d])]
                state = _move(state, moves[k], shift, mul)
            else:
                up, down = _ratios(row, plan)
                if inv:     # rho_inv = Q / rho_-inv
                    fresh = _expjpi(*(down if inv > 0 else up), s_den, w)
                    ratio = mul(_inverse(fresh, w), const(plan.q))
                    rho_p, rho_m = (ratio, fresh) if inv > 0 else (fresh, ratio)
                else:
                    rho_p, rho_m = _expjpi(*up, s_den, w), _expjpi(*down, s_den, w)
                state = _expjpi(row.dr, row.di - plan.d_min, s_den, w), rho_p, rho_m, None
            states[j] = state
            tt, rho_p, rho_m, _ = state
            slots, k = row.slots, row.k
            # the row walks in pf bits: its start values rounded down
            peak_re, peak_im = tt[0] >> CHAIN_GUARD, tt[1] >> CHAIN_GUARD
            acc_re[slots[k]] += peak_re
            acc_im[slots[k]] += peak_im
            for rho, seq in ((rho_p, slots[k + 1:row.hi + 1]), (rho_m, slots[row.lo:k][::-1])):
                if not seq:
                    continue
                q_pf = q_pf or [v >> CHAIN_GUARD for v in const(plan.q)]
                qr, qi = q_pf
                rr, ri = rho[0] >> CHAIN_GUARD, rho[1] >> CHAIN_GUARD
                ur, ui = peak_re, peak_im
                for c in seq:
                    ur, ui = (ur * rr - ui * ri) >> pf, (ur * ri + ui * rr) >> pf
                    acc_re[c] += ur
                    acc_im[c] += ui
                    rr, ri = (rr * qr - ri * qi) >> pf, (rr * qi + ri * qr) >> pf
    for base, mbase in shape.pairs:
        for acc in (acc_re, acc_im):
            for x in range(r2):
                v = acc[size + base + x]
                acc[base + x] += v
                acc[mbase + -x % r2] += v
    del acc_re[size:], acc_im[size:]
    return acc_re, acc_im, Fraction(plan.d_min, s_den), shape.units, pf


# One characteristic out of a walk (``_theta_groups``): theta is
# (re + i im) 2^-pf exp(-pi y_m) up to ``units`` ulps of 2^-pf exp(-pi y_m),
# amplified by at most 1 + 2^-30, plus ``tail``: the tail bound of its box
# times 1 + 2^-10, which also covers the terms of the box that the
# ellipsoid drops (``_height``).
_Sum = namedtuple("_Sum", "re im units tail")

# The sums of one walk, {a: [_Sum for b in bs]}, with the walk's exact
# common exponent y_m (a Fraction) and its fixed-point width pf.
_Walk = namedtuple("_Walk", "sums y_m pf")

# 1 + 2^-10, the cushion on each tail bound for the ellipsoid's terms
_CUSHION = from_man_exp(1025, -10)


def _theta_groups(tau: SiegelPoint, z, den: int, groups: dict,
                  phase: bool = True) -> _Walk:
    """The sums of theta[a/den; b/den](tau, z) for groups {a: (radius,
    bs)}, each over its own box ||n||_inf <= radius inside the walk's
    ellipsoid, all from one ``_row_sum`` walk: sums[a] follows bs.  Call
    inside the working precision p = mp.prec.  With phase=False the global
    factor exp(2 pi i m1.m2) is left out, which changes no modulus.

    Class C = den*c + a of N mod den^2 enters theta[a/den; b/den] with the
    weight exp(2 pi i C.b / den^2) (exp(2 pi i c.b / den) when
    phase=False), and the combination is summed exactly in ints and
    floored to pf fractional bits, S = re + i im.  The weights have modulus
    1, so a's walk budget units[a] holds for every combination.  A weight
    1, i, -1 or -i (every one for den = 2, and for den = 4 without the
    phase) adds or subtracts the accumulator parts, swapped for +-i, with
    no product and no rounding: with A that exact part and B the sum of the
    inexact products, A + floor(B 2^-pf) = floor((A 2^pf + B) 2^-pf), so S
    is the floor of the full sum.  Where every weight is exact S is exact.
    Otherwise each inexact weight is ``_unit`` at pf bits, within
    97 * 2^-pf of exact, and the floor costs less than 2 ulps, so the
    budget adds w = 3 + floor(97 sum_C (|Re A_C| + |Im A_C|) 2^-pf) ulps,
    A_C a's class accumulators (a computed weight of modulus up to
    1 + 97 * 2^-pf stays inside the 1 + 2^-30 amplification).  Each sum
    carries units[a] + w and its tail: the certified box tail at
    (s, radius), looked up once before the walk (``_box_tail``; the walk's
    plan reads the least of them), times 1 + 2^-10 rounded up.  The class
    indices of a and the weight of each class for each b come from a table
    cached per (g, den, a, bs, phase) (``_classes``), so a walk's
    combination is its integer adds and multiply-adds alone.
    """
    g = tau.g
    z = _at(tau, z)
    tails = {a: _box_tail(z, a, den, radius) for a, (radius, _) in groups.items()}
    acc_re, acc_im, y_m, units, pf = _row_sum(
        tau, z, den, {a: radius for a, (radius, _) in groups.items()}, min(tails.values()))

    weights = {}
    sums = {}
    for a, (radius, bs) in groups.items():
        tail = mp.make_mpf(mpf_mul(tails[a]._mpf_, _CUSHION, TAIL_BITS, round_ceiling))
        idx, ks = _classes(g, den, a, tuple(bs), phase)
        parts = [(acc_re[i], acc_im[i]) for i in idx]
        # each class times 1, i, -1 and -i
        turns = [((ar, ai), (-ai, ar), (-ar, -ai), (ai, -ar)) for ar, ai in parts]
        out = []
        for kb in ks:
            sr = si = br = bi = 0
            exact = True
            for (ar, ai), turn, (k, quarter) in zip(parts, turns, kb):
                if quarter is None:
                    if k not in weights:
                        weights[k] = _unit(2 * k, den * den, pf)
                    wr, wi, _ = weights[k]
                    br += ar * wr - ai * wi
                    bi += ar * wi + ai * wr
                    exact = False
                else:
                    tr, ti = turn[quarter]
                    sr += tr
                    si += ti
            w_units = 0 if exact else 3 + (97 * sum(abs(ar) + abs(ai) for ar, ai in parts) >> pf)
            out.append(_Sum(sr + (br >> pf), si + (bi >> pf), units[a] + w_units, tail))
        sums[a] = out
    return _Walk(sums, y_m, pf)


@functools.lru_cache(maxsize=1024)
def _classes(g: int, den: int, a: tuple, bs: tuple, phase: bool) -> tuple[tuple, tuple]:
    """The combination table of ``_theta_groups`` for the top
    characteristic a: the accumulator index of each class C = den*c + a of
    a, c in ``itertools.product(range(den), repeat=g)`` order, and for each
    b of bs the pair (k, quarter) of each class's weight exp(2 pi i k /
    den^2): k = C.b = den c.b + a.b mod den^2, or den c.b without the
    phase, and quarter = 4k / den^2 where the weight is i^quarter, else
    None."""
    cs = list(itertools.product(range(den), repeat=g))
    idx = []
    for c in cs:
        i = 0
        for x, y in zip(c, a):
            i = i * den * den + den * x + y
        idx.append(i)
    r2 = den * den
    ks = [[(den * sum(map(int.__mul__, c, b)) + phase * sum(map(int.__mul__, a, b))) % r2
           for c in cs] for b in bs]
    return tuple(idx), tuple(tuple((k, None if 4 * k % r2 else 4 * k // r2) for k in kb)
                             for kb in ks)


def _complex(walk: _Walk, sums) -> list[CertifiedComplex]:
    """The complex finisher: theta with its certified error for each
    ``_Sum`` of ``walk``, at p = mp.prec (call inside that precision).

    S rounds once to p bits (2^-p relative), E = exp(-pi y_m) at pf bits
    costs its allowance 8(5 + |pi y_m|) 2^-pf relative and the product
    rounds once more, so the error is the tail plus

        (1 + 2^-30) (E units 2^-pf + |value| (8(5 + |pi y_m|) 2^(p-pf) + 4) 2^-p).

    Since 2^(pf - pf_a) >= e^(M - M_a) >= (5 + |M|) / (5 + |M_a|), with pf_a
    the width of a's own walk (``_width``), the value term is no larger
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
    """Theta sum over the box ||n||_inf <= radius intersected with the
    walk's ellipsoid (``_height``), with a certified error bound that
    covers both truncations: the tail bound at the given radius times
    1 + 2^-10, whose cushion holds the box terms outside the ellipsoid,
    plus rounding."""
    if type(radius) is not int or not 0 <= radius <= RADIUS_CAP:
        raise ValueError(f"radius must be an integer in 0..{RADIUS_CAP}")
    with workprec(prec + GUARD_BITS):
        den, a, b = _char_ints(tau.g, char)
        walk = _theta_groups(tau, z, den, {a: (radius, [b])})
        return _complex(walk, walk.sums[a])[0]


def theta(tau: SiegelPoint, z=None, char: ThetaCharacteristic | None = None,
          prec: int = DEFAULT_PREC) -> CertifiedComplex:
    """theta_(m1,m2)(tau, z) with a proven absolute error bound below
    ``default_tol(prec)``."""
    with workprec(prec + GUARD_BITS):
        den, a, b = _char_ints(tau.g, char)
        return _complex(*_theta_batch(tau, z, den, [(a, b)], prec))[0]


def _theta_batch(tau: SiegelPoint, z, den: int, pairs, prec: int,
                 phase: bool = True) -> tuple[_Walk, list[_Sum]]:
    """The walk of theta[a/den; b/den](tau, z) for the integer pairs (a, b)
    of one level and the sum of each pair, in the order given: one
    ``_row_sum`` walk, read by ``_complex`` or ``_moduli``.  The radius and
    the tail depend on a only through s = max_i |a_i/den + u_i|, so s is
    formed once per distinct a and each distinct s takes one radius search
    (``_radius``).  Call inside the working-precision scope; phase=False
    drops exp(2 pi i a.b / den^2) (see ``_theta_groups``)."""
    z = _at(tau, z)
    target = _target(prec)
    groups = {}
    for a, b in pairs:
        groups.setdefault(a, []).append(b)
    radii = {}
    for a, bs in groups.items():
        s = _shift(z, a, den)
        if s not in radii:
            radii[s] = _radius(z, s, target)
        groups[a] = (radii[s], bs)
    walk = _theta_groups(tau, z, den, groups, phase)
    # the k-th pair of a is the k-th sum of a
    sums = {a: iter(v) for a, v in walk.sums.items()}
    return walk, [next(sums[a]) for a, _ in pairs]


# ---------------------------------------------------------------------------
# invariant norms


def _moduli2(tau: SiegelPoint, z, den: int, pairs,
             prec: int) -> tuple[CertifiedReal, list[tuple[int, int]]]:
    """(F, [(L, H)]) with, for each pair (a, b) and y = Im z,
    F.lo L <= exp(-2 pi y^T Y^-1 y) |theta[a/den; b/den](tau, z)|^2 <= F.hi H,
    all from one walk: the squared invariant norms with det(Y)^(1/2)
    cancelled.  L and H are the squares of the ``_moduli`` bounds, exact
    ints, and F = exp(-2 pi (y_m + xi)) 2^(-2 pf), xi = y^T Y^-1 y, is the
    one certified factor of the walk; ``_outward`` scales them.  Call
    inside the working-precision scope."""
    zt = _at(tau, z)
    _, xi, _ = zt.tail
    walk, sums = _theta_batch(tau, zt, den, pairs, prec, phase=False)
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
    return CertifiedReal(mid, max(fsub(hi, mid, rounding="u"),
                                  fsub(mid, lo, rounding="u")))


def _largest(f: CertifiedReal, bounds: list[tuple[int, int]]) -> CertifiedReal:
    """The largest of the values [f.lo lo, f.hi hi] of ``bounds``."""
    return _interval(*_outward(f, max(lo for lo, _ in bounds), max(hi for _, hi in bounds)))


def theta_norm(tau: SiegelPoint, z=None, prec: int = DEFAULT_PREC) -> CertifiedReal:
    """det(Y)^(1/4) exp(-pi y^T Y^-1 y) |theta(tau, z)|."""
    with workprec(prec + GUARD_BITS):
        zt = _at(tau, z)
        _, xi, _ = zt.tail
        scale = CertifiedReal.rounded(tau.det_im() ** (mpf(1) / 4))
        if xi:
            scale = scale * CertifiedReal.rounded(-pi * fraction_to_mpf(xi)).exp()
        return scale * theta(tau, zt, None, prec).abs()


def theta_null_vector(tau: SiegelPoint, r: int,
                      prec: int = DEFAULT_PREC) -> list[CertifiedComplex]:
    """All r^(2g) theta constants, (m1, m2) in lexicographic order, from one
    walk that fills one accumulator per class of N = r n + m1 r mod r^2;
    each constant combines the classes of its m1 with its roots of unity
    (see ``_theta_groups``; exact for r = 2, one stated rounding term
    otherwise)."""
    _check_level(r)
    with workprec(prec + GUARD_BITS):
        out = _complex(*_theta_batch(tau, None, r, _level_chars(tau.g, r), prec))
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


def beta_sigma(tau: SiegelPoint, z, r: int, prec: int = DEFAULT_PREC) -> CertifiedReal:
    """-(1/2) log(2^(g/2) sum over the coset set of ||theta||^2(tau, rz+e)),
    formed as -(1/2) log(2^(g/2) sum of the det-free ``_moduli2``) minus
    (1/4) log det Im tau.

    r z is formed exactly, and each coset norm is the characteristic norm of
    ``_coset_chars`` at r z, so the bound holds for the exact points r z + e."""
    g = tau.g
    with workprec(prec + GUARD_BITS):
        w = None if z is None else [fmul(r, as_mpc(x), exact=True) for x in z]
        f, bounds = _moduli2(tau, w, r, _coset_chars(g, r), prec)
        return (_log_norm_sum(f, bounds, g) * -0.5
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
    if z is not None and len(z) != g:
        raise ValueError("z must have length g")
    with workprec(prec + GUARD_BITS):
        f, bounds = _moduli2(tau, None, r, _coset_chars(g, r), prec)
        max_lower = certified_le(CertifiedReal.exact(1), _largest(f, bounds))

        upper = combined_lower = combined_upper = None
        if assume_reduced:
            c_g = constants.c_g(g, prec)
            zero = (0,) * g
            upper = certified_le(
                _largest(*_moduli2(tau, z, r, [(zero, zero)], prec)), c_g)
            mid = _log_norm_sum(f, bounds, g) * 0.5
            lo_const, hi_const = _combined_window(g, r, prec)
            combined_lower = certified_le(lo_const, mid)
            combined_upper = certified_le(mid, hi_const)
    return NormBoundsReport(g, r, assume_reduced, max_lower, upper,
                            combined_lower, combined_upper)


@functools.lru_cache(maxsize=None)
def _combined_window(g: int, r: int, prec: int) -> tuple[CertifiedReal, CertifiedReal]:
    """The ends of the combined window of ``verify_norm_bounds``:
    (g/4) log 2 and (1/2) log c_g + (g/4) log 2 + g log r."""
    from . import constants
    with workprec(prec + GUARD_BITS):
        lo = CertifiedReal.rounded(g * log(2) / 4)
        return lo, constants.c_g(g, prec).log() * 0.5 + lo + CertifiedReal.rounded(g * log(r))


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
    if type(steps) is not int or steps < 0:
        raise ValueError("steps must be >= 0 and an integer")
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
            walk, sums = _theta_batch(scaled, None, 2, chars, prec, phase=False)
            f_vals.append(_largest(_exp_pi(-walk.y_m, -walk.pf), _moduli(walk, sums)))
            th0 = _complex(walk, sums[:1])[0]
            gaps.append(fabs(th0.value - 1) + th0.err)
        mono = tuple(certified_le(f_vals[k + 1], f_vals[k]) for k in range(steps))
    return DuplicationReport(tuple(f_vals), tuple(gaps), mono, scaled)
