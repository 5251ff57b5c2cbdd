"""Certified evaluation of Riemann theta functions and their invariant norms.

The series is truncated over the box ||n||_inf <= N; the Gaussian tail over
the complement is bounded in closed form from an exact rational lower bound
on the smallest eigenvalue of Im tau, so the reported error is a proven
bound, not an estimate.

The box is summed row by row along the last coordinate (``_row_sum``).  The
exponent of every term is pi*i times an exact dyadic rational, formed in
Python integers from the exact entries of tau, z and the characteristic.
Each row starts at its peak-magnitude term and walks outward with the
recurrences t <- t*rho, rho <- rho*exp(2 pi i tau_gg) in Python-int fixed
point; every multiplier has modulus <= 1, so rounding is never amplified.
The ulp budget of the walk is derived in ``_row_sum`` and is part of the
certified bound.

The exact data of Im tau (Y as Fractions, Y^-1, the lambda_min lower bound,
det Y) are cached on the ``SiegelPoint``, so every characteristic and every
z at one tau reuses them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from mpmath import mp, mpf, mpc, fabs, exp, fmul, log, pi, sqrt, workprec
from mpmath.libmp import (from_man_exp, from_rational, fzero, mpc_expjpi,
                          mpf_mul, round_nearest)

from .certified import (DEFAULT_PREC, GUARD_BITS, CertifiedComplex,
                        CertifiedReal, PrecisionError, Verdict, certified_le)
from .exactla import fraction_to_mpf, matvec, mpf_to_fraction
from .siegel import SiegelPoint

RADIUS_CAP = 4000


class ReduceFirstError(ArithmeticError):
    """Im tau is so skewed that the truncation radius would be astronomical;
    reduce tau before evaluating."""


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
        if self.r < 2 or self.r % 2 != 0:
            raise ValueError("level r must be an even integer >= 2")
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
        """4 m1.m2 an odd integer forces theta_(m1,m2)(tau, 0) = 0."""
        s = 4 * sum(x * y for x, y in zip(self.m1, self.m2))
        return s.denominator == 1 and int(s) % 2 == 1


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
    if r < 2 or r % 2 != 0:
        raise ValueError("level r must be an even integer >= 2")
    g = tau.g
    reps = []
    with workprec(prec + GUARD_BITS):
        for a in itertools.product(range(r), repeat=g):
            for b in itertools.product(range(r), repeat=g):
                e = tuple((a[i] + sum(tau.entry(i, j) * b[j] for j in range(g))) / r
                          for i in range(g))
                reps.append(e)
    return CosetSet(r, tau, tuple(reps))


def _coset_chars(g: int, r: int):
    """The characteristic [b/r; a/r] of each coset point (a + tau b)/r, in
    the order of ``coset_set``.  For every w,

        ||theta||(tau, w + (a + tau b)/r)
            = det(Y)^(1/4) exp(-pi Im w^T Y^-1 Im w) |theta[b/r; a/r](tau, w)|,

    so a coset norm is a characteristic norm at w, with no rounded point."""
    for a in itertools.product(range(r), repeat=g):
        for b in itertools.product(range(r), repeat=g):
            yield ThetaCharacteristic.from_integers(r, b, a)


# ---------------------------------------------------------------------------
# the certified series engine


def _as_mpc(x) -> mpc:
    """x as an mpc without rounding: mpf and mpc entries keep their exact
    value (``mpc(x)`` would round them to mp.prec); ints, floats and strings
    are converted at the precision of the enclosing ``workprec``."""
    if isinstance(x, mpc):
        return x
    if isinstance(x, mpf):
        return mp.make_mpc((x._mpf_, fzero))
    return mpc(x)


def _normalize_inputs(tau, z, char):
    """Call inside the working-precision scope: see ``_as_mpc``."""
    g = tau.g
    if z is None:
        z = tuple(mpc(0) for _ in range(g))
    else:
        z = tuple(_as_mpc(x) for x in z)
        if len(z) != g:
            raise ValueError("z must have length g")
    if char is None:
        den, a, b = 1, (0,) * g, (0,) * g
    else:
        if char.g != g:
            raise ValueError("characteristic dimension mismatch")
        den = char.r
        a = tuple(int(v * char.r) for v in char.m1)
        b = tuple(int(v * char.r) for v in char.m2)
    return z, den, a, b


def _tail_data(tau: SiegelPoint, z) -> tuple[Fraction, Fraction, tuple]:
    """(lambda_lb, xi, u): the exact smallest-eigenvalue lower bound of Y,
    the exact value xi = y^T Y^-1 y and u = Y^-1 y, for y = Im z.  The Y data
    are the point's cached exact data."""
    lam = tau.y_min_eig_lower_bound
    if lam <= 0:
        raise ValueError("Im tau is not positive definite")
    y_vec = tuple(mpf_to_fraction(w.imag) for w in z)
    if not any(y_vec):
        return lam, Fraction(0), y_vec
    u = matvec(tau.y_inverse, y_vec)
    xi = sum(a * b for a, b in zip(y_vec, u))
    return lam, xi, u


def _tail_bound(g: int, lam: Fraction, xi: Fraction, s: Fraction, n: int) -> mpf:
    """Proven bound on the absolute tail over ||n||_inf > N.

    Derivation: complete the square in the exponent, bound the quadratic form
    by lam * (k - s)^2 on the shell ||n||_inf = k, count the shell by
    2g(2k+1)^(g-1), and dominate the resulting series by a geometric one.
    Requires N + 1 > s.
    """
    gap = Fraction(n + 1) - s
    if gap <= 0:
        return mpf("inf")
    lam_m = fraction_to_mpf(lam)
    gap_m = fraction_to_mpf(gap)
    q = exp(-2 * pi * lam_m * gap_m)
    if q >= 1:
        return mpf("inf")
    t = (exp(pi * fraction_to_mpf(xi)) * 2 * g * mpf(2 * n + 3) ** (g - 1)
         * factorial(g - 1) * exp(-pi * lam_m * gap_m ** 2) / (1 - q) ** g)
    return t * (1 + mpf(2) ** -30)


def choose_radius(tau: SiegelPoint, z=None, char=None,
                  prec: int = DEFAULT_PREC, tol=None) -> int:
    """Smallest box radius whose certified tail bound is below tol/2.

    z is used exactly as passed (mpf/mpc entries are not rounded to mp.prec),
    so the radius is the one for that z and does not depend on mp.prec."""
    if tol is None:
        tol = default_tol(prec)
    g = tau.g
    with workprec(prec + GUARD_BITS):
        z, den, a, b = _normalize_inputs(tau, z, char)
        lam, xi, u = _tail_data(tau, z)
        m1 = tuple(Fraction(x, den) for x in a)
        s = max(abs(m + w) for m, w in zip(m1, u))
        target = mpf(tol) / 2
        n = int(s) + 1
        # jump close to the solution of lam*(N+1-s)^2 = log(1/target) + xi
        need = (log(1 / target) + pi * fraction_to_mpf(xi) + g * 4 + 8) / (pi * fraction_to_mpf(lam))
        n = max(n, int(s + sqrt(need)) + 1)
        while n <= RADIUS_CAP and _tail_bound(g, lam, xi, s, n) > target:
            n += 1
        if n > RADIUS_CAP:
            raise ReduceFirstError(
                "truncation radius exceeds the cap; reduce tau first")
        while n > int(s) + 2 and _tail_bound(g, lam, xi, s, n - 1) <= target:
            n -= 1
    return n


def _dyadic(x) -> tuple[int, int]:
    """(m, e) with x == m * 2^e exactly, for a raw finite mpf x."""
    sign, man, e, _ = x
    if not man:
        if e:
            raise ValueError("non-finite entry in tau or z")
        return 0, 0
    return (-int(man) if sign else int(man)), e


def _fixed(x, frac_bits: int) -> int:
    """The raw mpf x times 2^frac_bits, rounded down to an int (< 1 ulp)."""
    m, e = _dyadic(x)
    e += frac_bits
    return m << e if e >= 0 else m >> -e


def _row_sum(tau: SiegelPoint, z, den: int, a, b, radius: int):
    """Sum over the box ||n||_inf <= radius in rows along the last
    coordinate.  Returns (value, rounding bound); call inside the working
    precision p = mp.prec.

    Exact exponents.  With v = n + m1 and nn = den*v = den*n + a, the term is
    exp(pi i D(nn) / s) where s = den^2 2^-e0 and

        D(nn) = sum_jk T_jk nn_j nn_k + 2 sum_j nn_j (den Z_j + b_j 2^-e0)

    is a Gaussian integer: T = tau 2^-e0 and Z = z 2^-e0 are the exact
    entries scaled by the smallest binary exponent e0 <= 0.  On a row the
    last coordinate x = den*k + a_h gives D = T_hh x^2 + 2 x L + G.  Its
    peak-magnitude index is k* = clip(round(k_r), -R, R) with k_r the real
    minimiser of Im D, and M = max over rows of -pi Im D(k*)/s is the common
    exponent: every term is computed as t = exp(-M) * term, so |t| <= 1.
    Every exponential is ``mpc_expjpi`` of an argument reduced exactly mod
    2 in its real part, so |Im arg| <= pi and Re arg <= 0:

    - the peak term of each row and the first ratio rho_0 outward on each
      side (|rho_0| <= 1 because k* is the rounded or clipped peak) take one
      exp each, and Q = exp(2 pi i tau_hh) one per call;
    - each exp keeps the per-exp allowance of 8(5 + |arg|) ulps relative;
      with |exp(arg)| = e^-x, x = -Re arg >= 0 and (a + x) e^-x <= a for
      a >= 1, that is <= 8(5 + pi) < 66 ulps absolute; rounding it down to
      p fractional bits adds < 1 ulp per component, so each starting value
      is within eps = 68 * 2^-p of exact;
    - the walk t <- t*rho, rho <- rho*Q runs in ints with p fractional bits;
      each product, rounded down, costs <= 1 ulp per component, < 2 * 2^-p.

    Budget of one row with sigma = eps + 2 * 2^-p = 70 * 2^-p: the ratio
    error after j steps is d_j <= eps + j sigma (linear growth) and the term
    error is e_j <= eps + sum_{i<j} (d_i + 2^(1-p)) <= sigma (1 + j(j+1)/2).
    A direction of K steps thus costs (K + K(K+1)(K+2)/6) sigma, and since
    this is convex in K, a row of 2R+1 terms costs at most
    u_R = (1 + 2R + 2R(2R+1)(2R+2)/6) sigma.  Computed multipliers may
    exceed modulus 1 by d_j or eps; that amplifies the row error by at most
    exp(2R(2R+1) sigma) <= 1 + 2^-30 (R <= RADIUS_CAP, p >= GUARD_BITS).  A
    row whose peak is below 2^-(p+1) is not walked: its 2R+1 terms together
    are below u_R.  The integer accumulators are exact.

    Back to mpc: each accumulator rounds once (2^-p relative), exp(M) costs
    its allowance 8(5 + |M|) ulps relative, and the product rounds once
    more, so

        rounding <= (1 + 2^-30) (e^M rows u_R + |value| (8(5 + |M|) + 4) 2^-p)

    with rows = (2R+1)^(g-1).
    """
    g = tau.g
    p = mp.prec
    h = g - 1

    tr = [[_dyadic(x._mpf_) for x in row] for row in tau.re]
    ti = [[_dyadic(x._mpf_) for x in row] for row in tau.im]
    zr = [_dyadic(w._mpc_[0]) for w in z]
    zi = [_dyadic(w._mpc_[1]) for w in z]
    e0 = min([0] + [e for m, e in itertools.chain(*tr, *ti, zr, zi) if m])

    def sc(d):
        return d[0] << (d[1] - e0)

    t = {(j, k): (sc(tr[j][k]), sc(ti[j][k])) for j in range(g) for k in range(j, g)}
    one = 1 << -e0
    zc = [(den * sc(zr[j]) + b[j] * one, den * sc(zi[j])) for j in range(g)]
    s_den = den * den * one

    def expjpi(num_re: int, num_im: int):
        """exp(pi i (num_re + i num_im) / s_den), num_re reduced mod 2 s_den,
        as fixed-point ints."""
        num_re = (num_re + s_den) % (2 * s_den) - s_den
        ex, ey = mpc_expjpi((from_rational(num_re, s_den, p, round_nearest),
                             from_rational(num_im, s_den, p, round_nearest)), p)
        return _fixed(ex, p), _fixed(ey, p)

    thr, thi = t[(h, h)]
    rows = []
    for pre in itertools.product(range(-radius, radius + 1), repeat=h):
        nn = [den * pre[j] + a[j] for j in range(h)]
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
        # Im D is least at x = -li/thi, i.e. k_r = (-li - a_h thi)/(den thi)
        k = (2 * (-li - a[h] * thi) + den * thi) // (2 * den * thi)
        k = max(-radius, min(radius, k))
        x = den * k + a[h]
        rows.append((k, x, lr, li, thr * x * x + 2 * x * lr + gr,
                     thi * x * x + 2 * x * li + gi))
    d_min = min(row[5] for row in rows)

    qr, qi = expjpi(2 * den * den * thr, 2 * den * den * thi)
    skip = s_den * (p + 1)
    sr = si = 0
    for k, x, lr, li, dr, di in rows:
        # peak below 2^-(p+1): pi y > (p+1) log 2 holds once 4y > p+1
        if 4 * (di - d_min) > skip:
            continue
        peak_re, peak_im = expjpi(dr, di - d_min)
        sr += peak_re
        si += peak_im
        for steps, ddr, ddi in (
                (radius - k, thr * (2 * x * den + den * den) + 2 * den * lr,
                 thi * (2 * x * den + den * den) + 2 * den * li),
                (radius + k, thr * (den * den - 2 * x * den) - 2 * den * lr,
                 thi * (den * den - 2 * x * den) - 2 * den * li)):
            if not steps:
                continue
            rr, ri = expjpi(ddr, ddi)
            ur, ui = peak_re, peak_im
            for _ in range(steps):
                ur, ui = (ur * rr - ui * ri) >> p, (ur * ri + ui * rr) >> p
                sr += ur
                si += ui
                rr, ri = (rr * qr - ri * qi) >> p, (rr * qi + ri * qr) >> p

    y_m = from_rational(d_min, s_den, p, round_nearest)
    e_m = mpc_expjpi((fzero, y_m), p)[0]
    value = mp.make_mpc((mpf_mul(from_man_exp(sr, -p, p, round_nearest), e_m, p, round_nearest),
                         mpf_mul(from_man_exp(si, -p, p, round_nearest), e_m, p, round_nearest)))
    k_max = 2 * radius
    row_units = 70 * (1 + k_max + k_max * (k_max + 1) * (k_max + 2) // 6)
    m_abs = fabs(pi * mp.make_mpf(y_m))
    rounding = ((mp.make_mpf(e_m) * len(rows) * row_units
                 + fabs(value) * (8 * (5 + m_abs) + 4))
                * mpf(2) ** -p * (1 + mpf(2) ** -30))
    return value, rounding


def theta_truncated(tau: SiegelPoint, z=None, char=None, radius: int = 10,
                    prec: int = DEFAULT_PREC) -> CertifiedComplex:
    """Theta sum over ||n||_inf <= radius with the certified error bound for
    exactly that truncation (tail at the given radius plus rounding).

    z is used exactly as passed (mpf/mpc entries are not rounded to mp.prec),
    the bound holds for that z, and the result does not depend on mp.prec."""
    if not 0 <= radius <= RADIUS_CAP:
        raise ValueError(f"radius must lie in 0..{RADIUS_CAP}")
    g = tau.g
    with workprec(prec + GUARD_BITS):
        z, den, a, b = _normalize_inputs(tau, z, char)
        lam, xi, u = _tail_data(tau, z)
        m1 = tuple(Fraction(x, den) for x in a)
        s = max(abs(m + w) for m, w in zip(m1, u))
        tail = _tail_bound(g, lam, xi, s, radius)
        value, rounding = _row_sum(tau, z, den, a, b, radius)
        err = tail + rounding
    return CertifiedComplex(value, err)


def theta(tau: SiegelPoint, z=None, char: ThetaCharacteristic | None = None,
          prec: int = DEFAULT_PREC, tol=None) -> CertifiedComplex:
    """theta_(m1,m2)(tau, z) with a proven absolute error bound below tol.

    z is used exactly as passed (mpf/mpc entries are not rounded to mp.prec),
    the bound holds for that z, and the result does not depend on mp.prec."""
    radius = choose_radius(tau, z, char, prec, tol)
    return theta_truncated(tau, z, char, radius, prec)


# ---------------------------------------------------------------------------
# invariant norms


def _det_y_root(tau: SiegelPoint, power: Fraction) -> CertifiedReal:
    d = fraction_to_mpf(abs(tau.y_det))
    return CertifiedReal.rounded(d ** fraction_to_mpf(power))


def _norm(tau: SiegelPoint, z, char, prec: int, tol) -> CertifiedReal:
    """det(Y)^(1/4) exp(-pi y^T Y^-1 y) |theta_char(tau, z)|, y = Im z;
    call inside the working-precision scope."""
    zt, _, _, _ = _normalize_inputs(tau, z, None)
    _, xi, _ = _tail_data(tau, zt)
    th = theta(tau, zt, char, prec, tol).abs()
    scale = _det_y_root(tau, Fraction(1, 4))
    if xi:
        scale = scale * CertifiedReal.rounded(-pi * fraction_to_mpf(xi)).exp()
    return scale * th


def theta_norm(tau: SiegelPoint, z=None, prec: int = DEFAULT_PREC,
               tol=None) -> CertifiedReal:
    """det(Y)^(1/4) exp(-pi y^T Y^-1 y) |theta(tau, z)|.

    z is used exactly as passed (mpf/mpc entries are not rounded to mp.prec),
    the bound holds for that z, and the result does not depend on mp.prec."""
    with workprec(prec + GUARD_BITS):
        return _norm(tau, z, None, prec, tol)


def theta_norm_char(tau: SiegelPoint, char: ThetaCharacteristic,
                    prec: int = DEFAULT_PREC, tol=None) -> CertifiedReal:
    """det(Y)^(1/4) |theta_(m1,m2)(tau, 0)|; the norm is only needed at z = 0."""
    with workprec(prec + GUARD_BITS):
        return _norm(tau, None, char, prec, tol)


def theta_null_vector(tau: SiegelPoint, r: int,
                      prec: int = DEFAULT_PREC, tol=None) -> list[CertifiedComplex]:
    """All r^(2g) theta constants, (m1, m2) in lexicographic order."""
    if r < 2 or r % 2 != 0:
        raise ValueError("level r must be an even integer >= 2")
    g = tau.g
    out = []
    for a in itertools.product(range(r), repeat=g):
        for b in itertools.product(range(r), repeat=g):
            ch = ThetaCharacteristic.from_integers(r, a, b)
            out.append(theta(tau, None, ch, prec, tol))
    if not any(fabs(v.value) > v.err for v in out):
        raise PrecisionError("all theta constants drowned in the error bound; "
                             "this signals a precision failure")
    return out


def beta_sigma(tau: SiegelPoint, z, r: int, prec: int = DEFAULT_PREC,
               tol=None) -> CertifiedReal:
    """-(1/2) log(2^(g/2) sum over the coset set of ||theta||^2(tau, rz+e)).

    z is used exactly as passed (mpf/mpc entries are not rounded to mp.prec),
    r z is formed exactly, and each coset norm is the characteristic norm of
    ``_coset_chars`` at r z, so the bound holds for the exact points r z + e
    and the result does not depend on mp.prec."""
    g = tau.g
    with workprec(prec + GUARD_BITS):
        zt, _, _, _ = _normalize_inputs(tau, z, None)
        w = tuple(fmul(r, x, exact=True) for x in zt)
        total = CertifiedReal.exact(0)
        for ch in _coset_chars(g, r):
            nv = _norm(tau, w, ch, prec, tol)
            total = total + nv * nv
        if total.lo <= 0:
            raise PrecisionError("coset norm sum is below its error bound")
        two_pow = CertifiedReal.rounded(mpf(2) ** (mpf(g) / 2))
        return (two_pow * total).log() * CertifiedReal.exact(mpf(-1) / 2)


# ---------------------------------------------------------------------------
# verification operations


@dataclass(frozen=True)
class NormBoundsReport:
    """Certified check of the two-sided invariant-norm bounds.

    ``max_lower``: max_e ||theta||^2(tau, e) >= det(Im tau)^(1/2), valid on
    the whole Siegel space.  ``upper`` and the combined window additionally
    assume tau was reduced (caller's responsibility, flag echoed here).
    """
    g: int
    r: int
    assumed_reduced: bool
    max_lower: Verdict
    upper: Verdict | None
    combined_lower: Verdict | None
    combined_upper: Verdict | None


def _interval(lo: mpf, hi: mpf) -> CertifiedReal:
    mid = (lo + hi) / 2
    return CertifiedReal(mid, (hi - lo) / 2 + fabs(mid) * mpf(2) ** (4 - mp.prec))


def verify_norm_bounds(tau: SiegelPoint, r: int, z=None,
                       prec: int = DEFAULT_PREC, tol=None,
                       assume_reduced: bool = False) -> NormBoundsReport:
    """The coset norms are the characteristic norms of ``_coset_chars`` at
    w = 0, so the bounds hold for the exact coset points."""
    from . import constants
    if r < 2 or r % 2 != 0:
        raise ValueError("level r must be an even integer >= 2")
    g = tau.g
    with workprec(prec + GUARD_BITS):
        norms2 = []
        for ch in _coset_chars(g, r):
            nv = _norm(tau, None, ch, prec, tol)
            norms2.append(nv * nv)
        lhs = _interval(max(v.lo for v in norms2), max(v.hi for v in norms2))
        det_root = _det_y_root(tau, Fraction(1, 2))
        max_lower = certified_le(det_root, lhs)

        upper = combined_lower = combined_upper = None
        if assume_reduced:
            c_g = constants.c_g(g, prec)
            nz = theta_norm(tau, z, prec, tol)
            upper = certified_le(nz * nz, c_g * det_root)
            total = norms2[0]
            for v in norms2[1:]:
                total = total + v
            two_pow = CertifiedReal.rounded(mpf(2) ** (mpf(g) / 2))
            mid = ((two_pow * total).log() * CertifiedReal.exact(mpf(1) / 2)
                   - det_root.log() * CertifiedReal.exact(mpf(1) / 2))
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
    duplication tower, and the drift of theta(2^k tau, 0) toward 1."""
    f_values: tuple[CertifiedReal, ...]
    theta00_gap: tuple[mpf, ...]
    monotone: tuple[Verdict, ...]


def verify_duplication(tau: SiegelPoint, steps: int,
                       prec: int = DEFAULT_PREC, tol=None) -> DuplicationReport:
    g = tau.g
    f_vals = []
    gaps = []
    with workprec(prec + GUARD_BITS):
        for k in range(steps + 1):
            scale = 2 ** k
            scaled = SiegelPoint.from_rows(
                [[tau.entry(i, j) * scale for j in range(g)] for i in range(g)])
            vals = []
            for a in itertools.product((0, 1), repeat=g):
                for b in itertools.product((0, 1), repeat=g):
                    ch = ThetaCharacteristic.from_integers(2, a, b)
                    vals.append(theta(scaled, None, ch, prec, tol).abs())
            f_vals.append(_interval(max(v.lo for v in vals),
                                    max(v.hi for v in vals)))
            th0 = theta(scaled, None, None, prec, tol)
            gaps.append(fabs(th0.value - 1) + th0.err)
        mono = tuple(certified_le(f_vals[k + 1], f_vals[k]) for k in range(steps))
    return DuplicationReport(tuple(f_vals), tuple(gaps), mono)
