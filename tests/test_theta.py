import hashlib
import itertools
import math
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import (exp, expjpi, fadd, fabs, fsum, gamma, ldexp, libmp, log, mp, mpf, mpc,
                    pi, sqrt, workprec)

from thetaheights import sampling
from thetaheights import theta as theta_module
from thetaheights.campaign import CampaignConfig
from thetaheights.certified import (DEFAULT_PREC, GUARD_BITS, CertifiedComplex,
                                    CertifiedReal, PrecisionError)
from thetaheights.exactla import fraction_to_mpf, mpf_to_fraction
from thetaheights.siegel import (SiegelPoint, SymplecticMatrix, act, reduce_g1,
                                 reduce_heuristic, sl2_s)
from thetaheights.theta import (CosetSet, ReduceFirstError, ThetaCharacteristic,
                                beta_sigma, choose_radius, coset_set, theta,
                                theta_norm, theta_null_vector,
                                theta_truncated, verify_duplication,
                                verify_norm_bounds)

from oracles import (beta_sigma_det_scaled, row_slots, theta_brute, theta_brute_batch,
                     theta_groups_combination, theta_norm_brute)

I = mpc(0, 1)
TAU_I = SiegelPoint.from_complex(I)

# frozen from the brute-force oracle (radius 50) at 200 bits
with workprec(220):
    THETA3_I = mpf("1.08643481121330801457531612151")
    THETA4_I = mpf("0.913579138156116821407242593401")
    BETA_I = mpf("-0.69687510868081251202503655883")
    COMBINED_LO = mpf("0.173286795139986327354308")
    COMBINED_HI = mpf("1.534881507380644623127239")


def test_theta_i_gamma_closed_form():
    v = theta(TAU_I, prec=128)
    with workprec(200):
        ref = pi ** mpf("0.25") / gamma(mpf(3) / 4)
    assert fabs(v.value - ref) <= v.err
    assert fabs(v.value - ref) < mpf(10) ** -20
    assert fabs(v.value - THETA3_I) < mpf(10) ** -25


def test_theta_char_values_at_i():
    c01 = ThetaCharacteristic.from_integers(2, [0], [1])
    c10 = ThetaCharacteristic.from_integers(2, [1], [0])
    assert fabs(theta(TAU_I, char=c01).value - THETA4_I) < mpf(10) ** -25
    assert fabs(theta(TAU_I, char=c10).value - THETA4_I) < mpf(10) ** -25


def test_odd_characteristic_vanishes_everywhere():
    c11 = ThetaCharacteristic.from_integers(2, [1], [1])
    assert c11.is_odd()
    for im in ("1", "2", "0.7"):
        tau = SiegelPoint.from_complex(mpc(mpf("0.3"), mpf(im)))
        v = theta(tau, char=c11)
        assert fabs(v.value) <= v.err


def test_is_odd_only_for_half_integral_characteristics():
    # 4 m1.m2 = 1 is odd, yet this level-4 theta constant is far from 0:
    # n -> -n - 2 m1 is no symmetry of the sum when 2 m1 is not integral
    tau = SiegelPoint.from_rows([[mpc("0.1", "1.3"), mpc("0.2", "0.4")],
                                 [mpc("0.2", "0.4"), mpc("-0.3", "1.1")]])
    char = ThetaCharacteristic.from_integers(4, [1, 1], [2, 2])
    assert not char.is_odd()
    v = theta(tau, None, char)
    assert fabs(v.value) > 1000 * v.err
    with workprec(200):
        assert fabs(v.value - mpc("-0.15358454538584648", "0.27290580802202219")) < mpf(10) ** -15
    assert ThetaCharacteristic.from_integers(4, [2, 0], [2, 0]).is_odd()


@pytest.mark.parametrize("g, r", [(1, 2), (1, 4), (2, 2), (2, 4)])
def test_odd_entries_of_the_null_vector_vanish(g, r):
    tau = (SiegelPoint.from_complex(mpc("0.3", "0.9")) if g == 1 else
           SiegelPoint.from_rows([[mpc("0.1", "1.3"), mpc("0.2", "0.4")],
                                  [mpc("0.2", "0.4"), mpc("-0.3", "1.1")]]))
    chars = [ThetaCharacteristic.from_integers(r, a, b)
             for a in itertools.product(range(r), repeat=g)
             for b in itertools.product(range(r), repeat=g)]
    vec = theta_null_vector(tau, r)
    odd = [v for ch, v in zip(chars, vec) if ch.is_odd()]
    assert len(odd) == 2 ** (g - 1) * (2 ** g - 1)
    assert all(fabs(v.value) <= v.err for v in odd)


def test_large_im_tends_to_one():
    prev_gap = None
    for n in range(0, 6):
        tau = SiegelPoint.from_complex(mpc(0, 2 ** n))
        v = theta(tau, prec=96)
        gap = fabs(v.value - 1)
        if prev_gap is not None:
            assert gap < prev_gap or gap == 0
        prev_gap = gap
    assert gap < mpf(10) ** -40


@pytest.mark.parametrize("tau_rows,z,a,b,r", [
    ([[mpc("0.2", "1.1")]], None, None, None, 2),
    ([[mpc("-0.4", "0.6")]], [mpc("0.3", "0.2")], [1], [1], 2),
    ([[mpc("0.1", "0.9")]], [mpc("0.25", "0.5")], [3], [1], 4),
    ([[mpc("0.2", "1.0"), mpc("0.1", "0.3")],
      [mpc("0.1", "0.3"), mpc("-0.3", "1.4")]], None, [1, 0], [0, 1], 2),
    ([[mpc("0", "0.8"), mpc("0.05", "0.1")],
      [mpc("0.05", "0.1"), mpc("0.1", "1.1")]],
     [mpc("0.2", "0.1"), mpc("-0.1", "0.3")], [0, 1], [1, 1], 2),
])
def test_matches_brute_oracle(tau_rows, z, a, b, r):
    tau = SiegelPoint.from_rows(tau_rows)
    char = None
    m1 = m2 = None
    if a is not None:
        char = ThetaCharacteristic.from_integers(r, a, b)
        m1, m2 = char.m1, char.m2
    v = theta(tau, z, char, prec=128)
    with workprec(220):
        ref = theta_brute(tau_rows, z, m1, m2)
    assert fabs(v.value - ref) <= v.err + mpf(10) ** -30


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_matches_brute_oracle_random_g1(seed):
    rng = sampling.substream(seed, "theta-oracle")
    tau = sampling.random_siegel_point(rng, 1)
    z = sampling.random_z(rng, tau)
    char = sampling.random_char(rng, 1, 2)
    v = theta(tau, z, char, prec=96)
    with workprec(200):
        ref = theta_brute([[tau.entry(0, 0)]], z, char.m1, char.m2)
    assert fabs(v.value - ref) <= v.err + mpf(10) ** -30


def test_z_used_exactly_at_any_global_precision():
    # a z with more than 53 bits must not be rounded to the caller's mp.prec
    tau = SiegelPoint.from_complex(mpc("0.3", "1.2"))
    with workprec(200):
        z = [mpc(1, 1) / 3]

    def evaluate():
        return (theta(tau, z, prec=96), theta_norm(tau, z, prec=96),
                beta_sigma(tau, z, 2, prec=96))

    saved = mp.prec
    try:
        mp.prec = 53
        at_53 = evaluate()
        mp.prec = 200
        at_200 = evaluate()
    finally:
        mp.prec = saved
    assert at_53 == at_200


def test_certification_sound_under_refinement():
    for g in (1, 2):
        for k in range(25):
            rng = sampling.substream(99, f"cert:{g}:{k}")
            tau = sampling.random_siegel_point(rng, g)
            z = sampling.random_z(rng, tau)
            char = sampling.random_char(rng, g, 2)
            n = choose_radius(tau, z, char, 96)
            v1 = theta_truncated(tau, z, char, n, 96)
            v2 = theta_truncated(tau, z, char, n + 10, 96)
            assert fabs(v1.value - v2.value) <= v1.err


def _tail_formula(g, lam, xi, gap, n, c=None):
    """The formula of ``theta._tail`` without its cushion, at the working
    precision, with c in place of pi when given:
    2g (g-1)! e^(c xi) (2n+3)^(g-1) e^(-c lam gap^2) / (1 - e^(-2 c lam gap))^g."""
    c = +pi if c is None else c
    lam_m, gap_m = fraction_to_mpf(lam), fraction_to_mpf(gap)
    return (exp(c * fraction_to_mpf(xi)) * 2 * g * factorial(g - 1) * mpf(2 * n + 3) ** (g - 1)
            * exp(-c * lam_m * gap_m ** 2) / (1 - exp(-2 * c * lam_m * gap_m)) ** g)


def _least_exp(x, prec, rnd):
    """The least value of exp x at prec bits that certified.py's assumption
    allows: v with v (1 + 2^(4 - prec)) = e^x, rounded up."""
    v = libmp.mpf_exp(x, prec + 80)
    return libmp.mpf_div(v, libmp.from_man_exp((1 << (prec - 4)) + 1, 4 - prec), prec,
                         libmp.round_ceiling)


def _tail_cases():
    """Seeded (g, lam, xi, gap, n) with g <= 4: gaps near 0, ordinary
    ones, radii near ``RADIUS_CAP``, and the Im z = 400 point."""
    rng = random.Random(4412)
    cases = []
    for k in range(600):
        g = rng.randint(1, 4)
        xi = Fraction(0) if k % 3 == 0 else Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 4))
        kind = k % 4
        if kind == 0:           # gap near 0
            lam = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) + Fraction(1, 16)
            gap, n = Fraction(rng.randint(1, 2 ** 8), 2 ** rng.randint(14, 20)), rng.randint(0, 20)
        elif kind == 3:         # radii near the cap, where lam is small
            lam = Fraction(rng.randint(1, 10 ** 6), 2 ** 20 * rng.randint(1, 2 ** 10))
            n = theta_module.RADIUS_CAP - rng.randint(0, 10)
            gap = n + 1 - Fraction(rng.randint(0, 2 ** 10), rng.randint(2 ** 9, 2 ** 10))
        else:
            lam = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) + Fraction(1, 64)
            gap = Fraction(rng.randint(1, 2 ** 20), rng.randint(1, 2 ** 16))
            n = int(gap) + rng.randint(0, 3)
        cases.append((g, lam, xi, gap, n))
    with workprec(128 + GUARD_BITS):
        lam, xi, _ = theta_module._at(SiegelPoint.from_complex(mpc("0.3", "1")),
                                      [mpc("0.1", "400")]).tail
    cases += [(1, lam, xi, Fraction(n + 1), n) for n in (799, 800, 801)]
    return cases


def _exact_tail_cases():
    """Seeded (g, lam, xi, gap, n), with dyadic gap and xi, and a dyadic
    lam (exact at 64 bits) in two cases of three, else one over 3^20:
    x = 6 lam gap log-uniform in [2^-10, 2^6], or at g = 4 in [1/4, 4]
    (where q is not small and 1 - q does not round exactly), and gap in
    [2^-12, 2^12]."""
    rng = random.Random(4413)
    cases = []
    for k in range(2000):
        g, lo, hi = (4, -2, 2) if k % 2 else (rng.randint(1, 4), -10, 6)
        gap = Fraction(rng.randint(1, 2 ** 12), 2 ** rng.randint(0, 12))
        den = 3 ** 20 if k % 3 == 0 else 2 ** 50
        lam = Fraction(int(2 ** rng.uniform(lo, hi) * den / 6 / gap), den)
        xi = Fraction(0) if k % 4 < 2 else Fraction(rng.randint(1, 2 ** 20), 2 ** rng.randint(0, 16))
        cases.append((g, lam, xi, gap, int(gap) + rng.randint(0, 3)))
    return cases


def test_tail_bound_is_its_formula_rounded_outward(monkeypatch):
    # the certified tail at 64 bits lies between its formula with the
    # cushion and the formula times 1 + 2^-28, both at 256 bits: with
    # mpmath's exp, with the least exp that certified.py's assumption
    # allows (so a dropped allowance shows), and with that exp and pi
    # replaced by 3 on inputs that mostly convert exactly (so the slack
    # left is the rounding of each operation, and one rounding turned
    # inward shows)
    def check(cases, c=None):
        with workprec(4 * theta_module.TAIL_BITS):
            refs = [_tail_formula(*case, c=c) for case in cases]
        got = [theta_module._tail(g, lam, n + 1 - gap, theta_module._tail_head(g, xi))(n)
               for g, lam, xi, gap, n in cases]
        with workprec(4 * theta_module.TAIL_BITS):
            for case, ref, bound in zip(cases, refs, got):
                assert ref * (1 + mpf(2) ** -30) <= bound <= ref * (1 + mpf(2) ** -28), case

    with workprec(4 * theta_module.TAIL_BITS):
        assert -mp.make_mpf(theta_module._NEG_PI) < +pi < mp.make_mpf(theta_module._PI_UP)
    cases = _tail_cases()
    check(cases)
    monkeypatch.setattr(theta_module, "mpf_exp", _least_exp)
    check(cases)
    monkeypatch.setattr(theta_module, "_NEG_PI", libmp.from_int(-3))
    monkeypatch.setattr(theta_module, "_PI_UP", libmp.from_int(3))
    check(_exact_tail_cases(), mpf(3))


def _jump_ties():
    """(tau, z, char, tol) whose s + sqrt(need) lies next to int(s) + 1:
    tol sets need = (int(s) + 1 - s)^2 at a large lam."""
    cases = [(SiegelPoint.from_complex(mpc("0.25", "40")), None, (4, [0], [1])),
             (SiegelPoint.from_complex(mpc("0.25", "40")), None, (4, [1], [0])),
             (SiegelPoint.from_complex(mpc("-0.1", "100")), None, (4, [3], [2])),
             (SiegelPoint.from_rows([[mpc("0.1", "50"), mpc("0.2", "3")],
                                     [mpc("0.2", "3"), mpc("-0.3", "60")]]),
              [mpc("0.1", "0.5"), mpc("0.3", "-1")], (2, [1, 0], [0, 1]))]
    out = []
    for tau, z, (r, a, b) in cases:
        with workprec(400):
            lam, xi, u = theta_module._at(tau, z).tail
            s = max(abs(Fraction(x, r) + w) for x, w in zip(a, u))
            need = (int(s) + 1 - s) ** 2
            log_inv = pi * fraction_to_mpf(lam * need) - pi * fraction_to_mpf(xi) - 4 * tau.g - 8
            out.append((tau, z, ThetaCharacteristic.from_integers(r, a, b), 2 * exp(-log_inv)))
    return out


def test_radius_is_the_least_above_the_search_floor(monkeypatch):
    # on a grid of g = 1 and g = 2 points, z = 0 or not, levels 2 and 4,
    # prec 8 to 256, the default tol and explicit ones down to 2^-1200
    # (a target below the double range): the radius is the least
    # n >= min(n0, int(s) + 2) whose tail is below the target, n0 the
    # search's first estimate in mpf (int(s) + 1 where need <= 0); and
    # where s + sqrt(need) lies next to an integer, the jump takes n0 in mpf
    cases = []
    for y in ("0.5", "0.87", "1", "2", "3.75", "10"):
        tau = SiegelPoint.from_complex(mpc("0.3", y))
        for z in (None, [mpc("0.1", "0.3")]):
            for a in range(4):
                cases.append((tau, z, ThetaCharacteristic.from_integers(4, [a], [1])))
    for tau, z in _level_cases()[2:]:
        for a in itertools.product(range(2), repeat=2):
            cases.append((tau, z, ThetaCharacteristic.from_integers(2, a, [0, 1])))
    # Im z = 400 at Y = 1: exp(pi xi) = exp(160000 pi) overflows a double
    far = (SiegelPoint.from_complex(mpc("0.3", "1")), [mpc("0.1", "400")], None)
    cases.append(far)
    fallbacks = []
    jump_mpf = theta_module._jump_mpf

    def counted(*args):
        fallbacks.append(args)
        return jump_mpf(*args)
    monkeypatch.setattr(theta_module, "_jump_mpf", counted)

    def at_floor(tau, z, char, prec, tol) -> bool:
        n = choose_radius(tau, z, char, prec, tol)
        g = tau.g
        with workprec(prec + GUARD_BITS):
            den, a, _ = theta_module._char_ints(g, char)
            zt = theta_module._at(tau, z)
            lam, xi, u = zt.tail
            s = max(abs(Fraction(x, den) + w) for x, w in zip(a, u))
            target = (theta_module.default_tol(prec) if tol is None else tol) / 2
            need = ((log(1 / target) + pi * fraction_to_mpf(xi) + g * 4 + 8)
                    / (pi * fraction_to_mpf(lam)))
            jump = int(s + sqrt(need)) + 1 if need > 0 else 0
            floor = min(max(int(s) + 1, jump), int(s) + 2)
            bound = theta_module._tail(g, lam, s, zt.head)
            assert bound(n) <= target, (prec, char)
            assert n == floor or bound(n - 1) > target, (prec, char)
            return n == floor and bound(n - 1) <= target

    floors = 0
    for tol in (None, mpf(2) ** -10, mpf(2) ** -200, mpf(2) ** -1200):
        for prec in (8, 64, 96, 128, 256):
            for tau, z, char in cases:
                floors += at_floor(tau, z, char, prec, tol)
    assert floors >= 5
    assert choose_radius(*far[:2], prec=128) == 800
    # the example of the rule: s = 0 and lam = 3.75 at prec 96 give 2,
    # although the tail at radius 1 is already below the target
    assert choose_radius(SiegelPoint.from_complex(mpc(0, "3.75")), prec=96) == 2
    # a tol so large that need < 0 starts at n0 = int(s) + 1 = 1, which is
    # the radius (mpmath's sqrt of such a need is complex, and int() of it
    # raised TypeError)
    tau = SiegelPoint.from_complex(mpc("0.1", "1.0"))
    for tol in (mpf(2) ** 60, mpf(2) ** 100):
        assert at_floor(tau, None, None, DEFAULT_PREC, tol)
        assert choose_radius(tau, tol=tol) == 1
    ties = _jump_ties()
    fallbacks.clear()
    for tau, z, char, tol in ties:
        for prec in (8, 96, 256):
            at_floor(tau, z, char, prec, tol)
    assert len(fallbacks) == 3 * len(ties)


def test_dyadic_exps_are_the_rational_ones():
    # a power-of-two denominator converts each part of the argument by
    # from_man_exp, with no division: the same mpf as from_rational, ties
    # to even included, so the same fixed-point exp
    rng = random.Random(4414)
    for k in range(1500):
        s_den, w = 1 << rng.randint(0, 40), rng.randint(16, 200)
        if k % 3:
            num_re = rng.randint(-2 ** 240, 2 ** 240) >> rng.randint(0, 240)
            num_im = rng.randint(-2 ** 10 * s_den, 2 ** 10 * s_den)
        else:       # parts of w + 1 bits ending in 1: a tie at w bits
            num_re, num_im = ((2 * rng.randint(2 ** (w - 1), 2 ** w - 1) + 1) * rng.choice((-1, 1))
                              for _ in range(2))
            s_den = max(s_den, 1 << abs(num_im).bit_length() - 4)
        reduced = (num_re + s_den) % (2 * s_den) - s_den
        ex, ey = libmp.mpc_expjpi(tuple(libmp.from_rational(v, s_den, w, libmp.round_nearest)
                                        for v in (reduced, num_im)), w)
        assert theta_module._expjpi(num_re, num_im, s_den, w) == (
            theta_module._fixed(ex, w), theta_module._fixed(ey, w)), (num_re, num_im, s_den, w)


def test_radii_at_reduced_points_are_pinned():
    # sha256 of the radii choose_radius picks at 24 seeded reduced points
    # for each of g = 1 and g = 2, z = 0 and a random z, for every level-2
    # top characteristic, at prec 96 and 128; taken while lambda at g = 2
    # was the closed form (t - sqrt(disc)) / 2
    radii = []
    for g in (1, 2):
        for k in range(24):
            rng = sampling.substream(71, f"radius:{g}:{k}")
            tau = reduce_heuristic(sampling.random_siegel_point(rng, g), prec=128).reduced
            for z in (None, sampling.random_z(rng, tau)):
                for a in itertools.product(range(2), repeat=g):
                    char = ThetaCharacteristic.from_integers(2, a, [0] * g)
                    radii += [choose_radius(tau, z, char, prec) for prec in (96, 128)]
    assert hashlib.sha256(repr(radii).encode()).hexdigest() == (
        "72cc28bf33cb829bf6bc4b3c2094519675f6864cf0dfda845880bac56a703b5a")


def _counted_tail(monkeypatch):
    """Patch ``theta._tail`` to record n at each certified tail bound."""
    calls = []
    tail = theta_module._tail

    def counted(*args):
        bound = tail(*args)

        def counted_bound(n):
            calls.append(n)
            return bound(n)
        return counted_bound
    monkeypatch.setattr(theta_module, "_tail", counted)
    return calls


def test_near_tie_is_decided_by_the_certified_bound(monkeypatch):
    # tol = 2 bound(6) makes the target equal to the certified bound at 6,
    # which is not above it, so the radius is 6; a target 2^-100 lower
    # (rounded at prec + 64 bits, still below bound(6)) needs 7.  No double
    # separates the two, so the certified bound decides, and only there
    tau = SiegelPoint.from_complex(mpc("0.3", "0.87"))
    with workprec(96 + GUARD_BITS):
        zt = theta_module._at(tau, None)
        tie = 2 * theta_module._tail(1, zt.tail[0], Fraction(0), zt.head)(6)
    with workprec(400):
        below = tie * (1 - mpf(2) ** -100)
    calls = _counted_tail(monkeypatch)
    for tol, radius in ((tie, 6), (below, 7)):
        calls.clear()
        assert choose_radius(tau, prec=96, tol=tol) == radius
        assert calls and set(calls) == {6}


@pytest.mark.parametrize("tol", [0, -1, mpf("inf"), mpf("nan")])
def test_tol_must_be_positive_and_finite(tol):
    tau = SiegelPoint.from_complex(mpc("0.1", "1.0"))
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        choose_radius(tau, tol=tol)


def test_reduce_first_signal():
    tau = SiegelPoint.from_complex(mpc(0, mpf(10) ** -6))
    with pytest.raises(ReduceFirstError):
        theta(tau, prec=128)


def test_tiny_g2_point_asks_for_reduction_like_g1():
    # Im tau = diag(2^-66, 2^-65): the eigenvalue bound is positive, one
    # grid unit below 2^-66, and the radius it asks for is above the cap,
    # so theta asks for reduction, as at g = 1
    tiny = (mpf(2) ** -66, mpf(2) ** -65)
    tau = SiegelPoint.from_rows([[mpc(0, tiny[i]) if i == j else 0 for j in range(2)]
                                 for i in range(2)])
    assert 0 < tau.y_min_eig_lower_bound <= Fraction(1, 2 ** 66)
    for point in (tau, SiegelPoint.from_complex(mpc(0, tiny[0]))):
        with pytest.raises(ReduceFirstError):
            theta(point)


def test_definite_y_with_a_nonpositive_eigenvalue_bound_asks_for_reduction():
    # Im tau = diag(1.3, 2^-70) is positive definite, and a closed form that
    # subtracts two nearly equal numbers came out nonpositive there; the
    # bound is positive, near 2^-70, so the radius is above the cap: a point
    # to reduce, as at g = 1, not a bad Y
    tau = SiegelPoint.from_rows([[mpc(0, "1.3"), 0], [0, mpc(0, mpf(2) ** -70)]])
    assert tau.y_positive_definite
    for call in (lambda: theta(tau), lambda: choose_radius(tau),
                 lambda: verify_norm_bounds(tau, 2)):
        with pytest.raises(ReduceFirstError):
            call()


def test_truncation_radius_validation():
    for radius in (-1, 4001):
        with pytest.raises(ValueError):
            theta_truncated(TAU_I, radius=radius)


def test_bad_steps_and_z_length_are_rejected():
    # a negative duplication count and a z of the wrong length fail with a
    # clear error, also where the norm bounds would never read z
    with pytest.raises(ValueError, match="steps must be >= 0"):
        verify_duplication(TAU_I, -1)
    tau = SiegelPoint.from_rows([[mpc("0.1", "1.3"), mpc("0.2", "0.4")],
                                 [mpc("0.2", "0.4"), mpc("-0.3", "1.1")]])
    for reduced in (False, True):
        with pytest.raises(ValueError, match="z must have length g"):
            verify_norm_bounds(tau, 2, [1, 2, 3], prec=96, assume_reduced=reduced)


@pytest.mark.parametrize("call", [
    lambda: theta_null_vector(TAU_I, 4.0),
    lambda: verify_norm_bounds(TAU_I, 4.0),
    lambda: CampaignConfig(suite="norm-bounds", samples=1, seed=1, r=4.0),
    lambda: theta_truncated(TAU_I, None, None, 2.0),
    lambda: theta_truncated(TAU_I, None, None, True),
    lambda: verify_duplication(TAU_I, 2.0),
    lambda: verify_duplication(TAU_I, True),
], ids=["null-vector level", "norm-bounds level", "campaign level", "float radius",
        "bool radius", "float steps", "bool steps"])
def test_levels_radii_and_steps_must_be_integers(call):
    # a float or a bool where an int is meant fails with a clear error,
    # not with a TypeError from deep inside a walk, nor as its int value
    with pytest.raises(ValueError, match="integer"):
        call()


def test_characteristic_validation():
    with pytest.raises(ValueError):
        ThetaCharacteristic(3, (Fraction(1, 3),), (Fraction(0),))
    with pytest.raises(ValueError):
        ThetaCharacteristic(2, (Fraction(1, 3),), (Fraction(0),))
    with pytest.raises(ValueError):
        ThetaCharacteristic(2, (Fraction(3, 2),), (Fraction(0),))


def test_norm_values_at_i():
    v0 = theta_norm(TAU_I, None)
    assert fabs(v0.value - THETA3_I) <= v0.err + mpf(10) ** -25
    vh = theta_norm(TAU_I, [I / 2])
    assert fabs(vh.value - THETA4_I) < mpf(10) ** -25


def _half_char_norms(tau):
    """det(Y)^(1/4) |theta_(m1,m2)(tau, 0)| for the half-integer
    characteristics, in the order of ``theta_null_vector``."""
    with workprec(DEFAULT_PREC + GUARD_BITS):
        scale = CertifiedReal.rounded(tau.det_im() ** (mpf(1) / 4))
        return [scale * th.abs() for th in theta_null_vector(tau, 2)]


def test_norm_char_values():
    n00, n01, _, n11 = _half_char_norms(TAU_I)
    assert fabs(n00.value - THETA3_I) < mpf(10) ** -25
    assert fabs(n01.value - THETA4_I) < mpf(10) ** -25
    assert n11.value <= n11.err


def test_norm_lattice_periodicity():
    tau = SiegelPoint.from_complex(mpc("0.3", "1.2"))
    z = [mpc("0.21", "0.37")]
    base = theta_norm(tau, z)
    for m, n in ((1, 0), (0, 1), (2, -1)):
        # exact lattice translate: 53-bit inputs, small integer shifts
        with workprec(200):
            shifted = [z[0] + m + tau.entry(0, 0) * n]
        v = theta_norm(tau, shifted)
        with workprec(200):
            assert fabs(v.value - base.value) <= 10 * (v.err + base.err)


def test_norm_matches_brute_oracle():
    tau_rows = [[mpc("0.2", "1.0"), mpc("0.1", "0.3")],
                [mpc("0.1", "0.3"), mpc("-0.3", "1.4")]]
    z = [mpc("0.1", "0.2"), mpc("0.3", "-0.1")]
    v = theta_norm(SiegelPoint.from_rows(tau_rows), z)
    with workprec(220):
        ref = theta_norm_brute(tau_rows, z)
    assert fabs(v.value - ref) <= v.err + mpf(10) ** -30


def test_symplectic_norm_invariance_multiset_g1():
    tau = SiegelPoint.from_complex(mpc("0.15", "1.37"))
    base = sorted(_half_char_norms(tau), key=lambda v: v.value)
    for gamma in (sl2_s(), SymplecticMatrix.translation(((1,),))):
        moved = act(gamma, tau)
        vals = sorted(_half_char_norms(moved), key=lambda v: v.value)
        for x, y in zip(base, vals):
            assert fabs(x.value - y.value) <= 10 * (x.err + y.err)


def test_null_vector_pattern_g1():
    vec = theta_null_vector(TAU_I, 2)
    assert len(vec) == 4
    with workprec(200):
        vals = [fabs(v.value) for v in vec]
        assert fabs(vals[0] - THETA3_I) < mpf(10) ** -25
        assert fabs(vals[1] - THETA4_I) < mpf(10) ** -25
        assert fabs(vals[2] - THETA4_I) < mpf(10) ** -25
        assert vals[3] <= vec[3].err


def test_null_vector_odd_char_vanishes_at_2i():
    vec = theta_null_vector(SiegelPoint.from_complex(2 * I), 2)
    assert fabs(vec[3].value) <= vec[3].err


def test_null_vector_g2_diagonal_factorizes():
    tau1, tau2 = I, 2 * I
    tau = SiegelPoint.from_rows([[tau1, 0], [0, tau2]])
    vec = theta_null_vector(tau, 2)
    idx = 0
    for a in itertools.product((0, 1), repeat=2):
        for b in itertools.product((0, 1), repeat=2):
            v = vec[idx]
            idx += 1
            with workprec(200):
                f1 = theta_brute([[tau1]], None, [Fraction(a[0], 2)], [Fraction(b[0], 2)])
                f2 = theta_brute([[tau2]], None, [Fraction(a[1], 2)], [Fraction(b[1], 2)])
                assert fabs(v.value - f1 * f2) <= v.err + mpf(10) ** -25


def test_diagonal_factorization_with_z():
    tau = SiegelPoint.from_rows([[mpc("0.2", "1.1"), 0], [0, mpc("-0.1", "0.8")]])
    z = [mpc("0.3", "0.1"), mpc("0.1", "0.25")]
    v = theta(tau, z)
    with workprec(200):
        # the oracle sees the tau the program evaluates, not a 200-bit reparse
        f1 = theta_brute([[tau.entry(0, 0)]], [z[0]])
        f2 = theta_brute([[tau.entry(1, 1)]], [z[1]])
        assert fabs(v.value - f1 * f2) <= v.err + mpf(10) ** -28


def test_coset_set_g1_r2():
    cs = coset_set(TAU_I, 2)
    pts = sorted((float(e[0].real), float(e[0].imag)) for e in cs.representatives)
    assert pts == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]


def test_coset_set_cardinalities():
    assert len(coset_set(SiegelPoint.from_rows([[I, 0], [0, I]]), 2).representatives) == 16
    assert len(coset_set(TAU_I, 4).representatives) == 16


# one g = 1 point and one skewed non-diagonal g = 2 point (eigenvalues of
# Im tau about 2.08 and 0.17), with exact dyadic entries
COSET_TAUS = {
    1: SiegelPoint.from_complex(mpc("0.3125", "1.125")),
    2: SiegelPoint.from_rows([[mpc("0.25", "1.5"), mpc("0.125", "0.875")],
                              [mpc("0.125", "0.875"), mpc("-0.375", "0.75")]]),
}
COSET_W = {1: (mpc("0.25", "0.125"),),
           2: (mpc("0.25", "0.125"), mpc("-0.125", "0.25"))}
# stated bound on |grad_z ||theta||(tau, z)| near the tested points, with a
# wide margin: ||theta|| is O(1) there and its z-derivative carries factors
# 2 pi |n + Y^-1 Im z| over a box of radius below 10.  The rounding of e in
# coset_set costs at most this times |e_rounded - e|, about 2^-140 here,
# far below the certified errors (2^-80 to 2^-64).
NORM_LIPSCHITZ = 2 ** 8


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("r", [2, 4])
@pytest.mark.parametrize("w_zero", [True, False])
def test_coset_identity_at_the_coset_points(g, r, w_zero):
    # ||theta||(tau, w + e) = det Y^(1/4) exp(-pi Im w^T Y^-1 Im w)
    # |theta[b/r; a/r](tau, w)| for every coset point e = (a + tau b)/r, the
    # identity verify_norm_bounds and beta_sigma rest on
    tau, prec = COSET_TAUS[g], 96
    w = (mpc(0),) * g if w_zero else COSET_W[g]
    reps = coset_set(tau, r, prec).representatives
    ab = [(a, b) for a in itertools.product(range(r), repeat=g)
          for b in itertools.product(range(r), repeat=g)]
    assert len(reps) == len(ab) == r ** (2 * g)
    *parts, shift = tau.int_form
    x, y = ([[Fraction(v, 1 << shift) for v in row] for row in m] for m in parts)
    w_im = [mpf_to_fraction(wk.imag) for wk in w]
    quad = sum(w_im[i] * tau.y_inverse[i][j] * w_im[j]
               for i in range(g) for j in range(g))
    with workprec(300):
        scale = (fraction_to_mpf(tau.y_det) ** (mpf(1) / 4)
                 * exp(-pi * fraction_to_mpf(quad)))
    for (a, b), e in zip(ab, reps):
        rounding = Fraction(0)
        for i in range(g):
            re = (a[i] + sum(x[i][j] * b[j] for j in range(g))) / Fraction(r)
            im = sum(y[i][j] * b[j] for j in range(g)) / Fraction(r)
            rounding += (abs(mpf_to_fraction(e[i].real) - re)
                         + abs(mpf_to_fraction(e[i].imag) - im))
        # e is rounded at prec + GUARD_BITS; w + e is formed exactly
        assert rounding <= Fraction(2 * g * r, 2 ** (prec + GUARD_BITS - 8))
        z = tuple(mp.make_mpc((fadd(wk.real, ek.real, exact=True)._mpf_,
                               fadd(wk.imag, ek.imag, exact=True)._mpf_))
                  for wk, ek in zip(w, e))
        lhs = theta_norm(tau, z, prec)
        th = theta(tau, w, ThetaCharacteristic.from_integers(r, b, a), prec)
        with workprec(300):     # 2^-250 covers this block's own rounding
            rhs = scale * fabs(th.value)
            allowed = (lhs.err + scale * th.err
                       + NORM_LIPSCHITZ * fraction_to_mpf(rounding) + mpf(2) ** -250)
            assert fabs(lhs.value - rhs) <= allowed, (a, b)


def test_beta_sigma_frozen_value():
    b = beta_sigma(TAU_I, None, 2)
    assert fabs(b.value - BETA_I) <= b.err + mpf(10) ** -25


def test_beta_sigma_is_the_det_free_norm_sum():
    # beta_sigma(tau, 0, 2) + (1/4) log det Y = -(1/2) log(2^(g/2) sum_e
    # |theta_e(tau, 0)|^2) over the 2^(2g) half-integer characteristics,
    # the identity that lets the norm checks cancel det Y
    for rows in ([[mpc("0.3", "1.1")]],
                 [[mpc("0.1", "1.2"), mpc("0.2", "0.3")],
                  [mpc("0.2", "0.3"), mpc("0.4", "1.5")]]):
        tau = SiegelPoint.from_rows(rows)
        g = tau.g
        b = beta_sigma(tau, None, 2)
        halves = list(itertools.product((0, Fraction(1, 2)), repeat=g))
        with workprec(220):
            total = sum(fabs(theta_brute(rows, None, m1, m2, n=12)) ** 2
                        for m1 in halves for m2 in halves)
            ref = -log(mpf(2) ** (mpf(g) / 2) * total) / 2
            lhs = b.value + log(fraction_to_mpf(tau.y_det)) / 4
            assert fabs(lhs - ref) <= b.err, g


@pytest.mark.parametrize("rows, z, r", [
    ([[I]], None, 2),
    ([[mpc("0.3", "1.1")]], [mpc("0.1", "0.2")], 4),
    ([[mpc("0.1", "1.2"), mpc("0.2", "0.3")], [mpc("0.2", "0.3"), mpc("0.4", "1.5")]],
     [mpc("0.1", "0.05"), mpc("-0.2", "0.1")], 2),
])
def test_beta_sigma_keeps_its_value_and_no_larger_error(rows, z, r):
    # det Y cancelled from the norms and taken once as (1/4) log det Y: the
    # value stays inside its error of the det-scaled formula, and the error
    # is no larger
    tau = SiegelPoint.from_rows(rows)
    new = beta_sigma(tau, z, r, prec=96)
    ref = beta_sigma_det_scaled(tau, z, r, prec=96)
    with workprec(300):
        assert fabs(new.value - ref.value) <= new.err
    assert new.err <= ref.err


def test_beta_sigma_finite_at_2i():
    tau = SiegelPoint.from_complex(2 * I)
    b = beta_sigma(tau, None, 2)
    assert b.err < mpf(10) ** -20
    # the e = 0 term already reaches det(Y)^(1/2)
    nv = theta_norm(tau, None)
    assert (nv * nv).value >= mpf(2) ** mpf("0.5")


def test_verify_norm_bounds_at_i():
    rep = verify_norm_bounds(TAU_I, 2, z=[mpc("0.3", "0.4")], assume_reduced=True)
    assert rep.max_lower.ok and rep.max_lower.margin > mpf("0.1")
    assert rep.upper.ok
    assert rep.combined_lower.ok and rep.combined_upper.ok
    mid = rep.combined_lower.rhs
    assert COMBINED_LO < mid < COMBINED_HI
    with workprec(200):
        assert fabs(mid + BETA_I) < mpf(10) ** -20


def test_verify_norm_bounds_without_reduction_claim():
    rep = verify_norm_bounds(TAU_I, 2)
    assert rep.upper is None and rep.combined_lower is None
    assert rep.max_lower.ok


def test_verify_duplication_monotone():
    rep = verify_duplication(TAU_I, 5, prec=96)
    assert all(v.ok for v in rep.monotone)
    assert rep.theta00_gap[-1] < mpf(10) ** -20
    assert fabs(rep.f_values[0].value - THETA3_I) < mpf(10) ** -20


def test_verify_duplication_g2_diagonal():
    tau = SiegelPoint.from_rows([[I, 0], [0, 2 * I]])
    rep = verify_duplication(tau, 3, prec=96)
    assert all(v.ok for v in rep.monotone)
    with workprec(200):
        f = max(fabs(theta_brute([[I]], None, [Fraction(a, 2)], [Fraction(b, 2)]))
                for a in (0, 1) for b in (0, 1))
        g = max(fabs(theta_brute([[2 * I]], None, [Fraction(a, 2)], [Fraction(b, 2)]))
                for a in (0, 1) for b in (0, 1))
        # diagonal tau: F factorizes into the product of the g = 1 maxima
        assert fabs(rep.f_values[0].value - f * g) < mpf(10) ** -18


def _skewed(y0, y1, c, x=(0.1, -0.2, 0.3)):
    """tau = X + iY with Y = [[y0, c], [c, y1]]."""
    with workprec(200):
        off = mpc(mpf(x[2]), mpf(c))
        return SiegelPoint.from_rows([[mpc(mpf(x[0]), mpf(y0)), off],
                                      [off, mpc(mpf(x[1]), mpf(y1))]])


def _shifted(tau, a, b):
    """z = a + tau b, formed at 200 bits."""
    g = tau.g
    with workprec(200):
        return tuple(mpf(a[i]) + sum(tau.entry(i, j) * mpf(b[j]) for j in range(g))
                     for i in range(g))


def _engine_cases():
    """Seeded (tau, z, char) cases at g = 2 and g = 3: characteristics of
    level 2, 4 and 6, skewed Y, and z = a + tau b with |b| up to 3, so that
    terms exceed 1 and, with the skew, row peaks leave the box."""
    cases = []
    for k in range(15):
        rng = random.Random(3100 + k)
        g = 2 if k < 11 else 3
        den = (2, 4, 6)[k % 3]
        if g == 2:
            # Y = [[y0, c], [c, y1]] with c close to sqrt(y0 y1): strongly skewed
            y0, y1 = rng.uniform(0.6, 4.0), rng.uniform(0.6, 1.5)
            c = rng.choice((-1, 1)) * rng.uniform(0.5, 0.9) * (y0 * y1) ** 0.5
            tau = _skewed(y0, y1, c, [rng.uniform(-0.5, 0.5) for _ in range(3)])
        else:
            tau = sampling.random_siegel_point(rng, g)
        span = 3.0 if k % 2 else 0.5
        a = [rng.uniform(-0.5, 0.5) for _ in range(g)]
        z = _shifted(tau, a, [rng.uniform(-span, span) for _ in range(g)])
        char = ThetaCharacteristic.from_integers(
            den, [rng.randrange(den) for _ in range(g)],
            [rng.randrange(den) for _ in range(g)])
        cases.append((tau, z, char))
    return cases


def _clipped_rows(tau, z, char, radius) -> int:
    """Rows of the box whose peak along the last coordinate lies outside it."""
    g = tau.g
    y = [[float(tau.im[i][j]) for j in range(g)] for i in range(g)]
    yz = [float(w.imag) for w in z]
    m1 = [float(x) for x in char.m1]
    count = 0
    for pre in itertools.product(range(-radius, radius + 1), repeat=g - 1):
        v = [pre[j] + m1[j] for j in range(g - 1)]
        peak = -(sum(y[g - 1][j] * v[j] for j in range(g - 1)) + yz[g - 1]) / y[g - 1][g - 1]
        count += abs(peak - m1[g - 1]) > radius + 0.5
    return count


def test_row_engine_matches_brute_oracle_on_the_same_box():
    # the brute sum over the same box differs only by rounding, so the
    # certified bound must cover it; at prec 8 the rounding budget dominates
    clipped = big_terms = 0
    for tau, z, char in _engine_cases():
        g = tau.g
        prec = 96 if g == 2 else 64
        radius = choose_radius(tau, z, char, prec)
        with workprec(200):
            ref = theta_brute([[tau.entry(i, j) for j in range(g)] for i in range(g)],
                              z, char.m1, char.m2, n=radius)
        for v in (theta(tau, z, char, prec), theta_truncated(tau, z, char, radius, 8)):
            with workprec(200):
                assert fabs(v.value - ref) <= v.err
        clipped += _clipped_rows(tau, z, char, radius) > 0
        big_terms += fabs(ref) > 10
    assert clipped >= 3 and big_terms >= 3


def _group_cases():
    """One (tau, z, m1) per g in {2, 3}, r in {2, 4, 6} and z = 0 or not:
    skewed Y at g = 2, seeded points at g = 3, z = a + tau b with |b| <= 1
    (|b| <= 1/2 at g = 3) and m1 with a nonzero entry, so the global phase
    is not 1."""
    cases = []
    for g in (2, 3):
        for r in (2, 4, 6):
            for with_z in (False, True):
                rng = random.Random(5200 + 10 * g + r + with_z)
                if g == 2:
                    y0, y1 = rng.uniform(0.8, 2.0), rng.uniform(0.8, 1.5)
                    c = rng.choice((-1, 1)) * rng.uniform(0.3, 0.6) * (y0 * y1) ** 0.5
                    tau = _skewed(y0, y1, c, [rng.uniform(-0.5, 0.5) for _ in range(3)])
                else:
                    tau = sampling.random_siegel_point(rng, g)
                z = (mpc(0),) * g
                if with_z:
                    a = [rng.uniform(-0.5, 0.5) for _ in range(g)]
                    z = _shifted(tau, a, [rng.uniform(-1, 1) / (g - 1) for _ in range(g)])
                m1 = [rng.randrange(r) for _ in range(g)]
                m1[0] = rng.randrange(1, r)
                cases.append((tau, z, r, tuple(m1)))
    return cases


def _group_values(tau, z, den, groups, phase=True):
    """{a: [CertifiedComplex]} of one ``_theta_groups`` walk, through the
    complex finisher."""
    walk = theta_module._theta_groups(tau, z, den, groups, phase)
    return {a: theta_module._complex(walk, sums) for a, sums in walk.sums.items()}


@pytest.mark.parametrize("tau, z, r, a", _group_cases())
def test_every_characteristic_of_a_group_matches_brute_oracle(tau, z, r, a):
    # one walk gives theta[a/r; b/r] for every b; each value must lie within
    # its certified error of the brute sum over the same box, at prec 96 and
    # at prec 8, where the rounding budget dominates
    g = tau.g
    bs = list(itertools.product(range(r), repeat=g))
    chars = [ThetaCharacteristic.from_integers(r, a, b) for b in bs]
    radius = choose_radius(tau, z, chars[0], 96)
    with workprec(96 + GUARD_BITS):
        batch = theta_module._complex(
            *theta_module._theta_batch(tau, z, r, [(a, b) for b in bs], 96))
    with workprec(8 + GUARD_BITS):
        low = _group_values(tau, z, r, {a: (radius, bs)})[a]
    rows = [[tau.entry(i, j) for j in range(g)] for i in range(g)]
    with workprec(200):
        refs = theta_brute_batch(rows, z, chars[0].m1, [ch.m2 for ch in chars],
                                 n=radius)
        # the batch oracle is the plain one, term for term
        last = chars[-1]
        assert fabs(refs[-1] - theta_brute(rows, z, last.m1, last.m2, n=radius)) < mpf(10) ** -50
    # a single characteristic is the one-member case of the same walk
    assert batch[0] == theta(tau, z, chars[0], 96)
    assert batch[-1] == theta(tau, z, chars[-1], 96)
    for ch, ref, v, w in zip(chars, refs, batch, low):
        with workprec(200):
            assert fabs(v.value - ref) <= v.err, ch
            assert fabs(w.value - ref) <= w.err, ch


def _level_cases():
    """One (tau, z) per g in {1, 2} and z = 0 or not: a seeded point at
    g = 1, skewed Y at g = 2, z = a + tau b with |b| <= 1."""
    cases = []
    for g in (1, 2):
        for with_z in (False, True):
            rng = random.Random(6100 + 10 * g + with_z)
            if g == 1:
                tau = sampling.random_siegel_point(rng, 1)
            else:
                y0, y1 = rng.uniform(0.8, 2.0), rng.uniform(0.8, 1.5)
                c = rng.choice((-1, 1)) * rng.uniform(0.3, 0.6) * (y0 * y1) ** 0.5
                tau = _skewed(y0, y1, c, [rng.uniform(-0.5, 0.5) for _ in range(3)])
            z = (mpc(0),) * g
            if with_z:
                a = [rng.uniform(-0.5, 0.5) for _ in range(g)]
                z = _shifted(tau, a, [rng.uniform(-1, 1) for _ in range(g)])
            cases.append((tau, z))
    return cases


@pytest.mark.parametrize("r", [2, 4])
@pytest.mark.parametrize("tau, z", _level_cases())
def test_every_characteristic_of_a_level_matches_brute_oracle(tau, z, r):
    # all r^(2g) characteristics at once, with and without the global
    # phase, at prec 96 and at prec 8, where the rounding budget dominates:
    # each value lies within its certified error of the brute sum over its
    # own box, and that error is no larger than the one of the walk of its
    # top characteristic alone
    g = tau.g
    rows = [[tau.entry(i, j) for j in range(g)] for i in range(g)]
    chars = theta_module._level_chars(g, r)
    groups = {}
    for a, b in chars:
        groups.setdefault(a, []).append((a, b))
    for prec in (96, 8):
        refs = {}
        for a, members in groups.items():
            radius = choose_radius(
                tau, z, ThetaCharacteristic.from_integers(r, a, members[0][1]), prec)
            with workprec(200):
                refs.update(zip(members, theta_brute_batch(
                    rows, z, [Fraction(x, r) for x in a],
                    [[Fraction(x, r) for x in b] for _, b in members], n=radius)))
        for phase in (True, False):
            with workprec(prec + GUARD_BITS):
                batch = theta_module._complex(
                    *theta_module._theta_batch(tau, z, r, chars, prec, phase))
                alone = {}
                for members in groups.values():
                    alone.update(zip(members, theta_module._complex(
                        *theta_module._theta_batch(tau, z, r, members, prec, phase))))
            for ch, v in zip(chars, batch):
                with workprec(200):
                    ref = refs[ch]
                    if not phase:
                        ref *= expjpi(-2 * fraction_to_mpf(
                            Fraction(sum(x * y for x, y in zip(*ch)), r * r)))
                    assert fabs(v.value - ref) <= v.err, (prec, phase, ch)
                assert v.err <= alone[ch].err, (prec, phase, ch)


@pytest.mark.parametrize("tops, step", [(((0, 0), (0, 2)), 2), (((1, 1), (3, 3)), 2),
                                        (((0, 0), (0, 1), (0, 3)), 1)])
def test_part_of_a_level_walks_with_the_common_step(tops, step):
    # every row of a walk over level-4 top characteristics steps by the gcd
    # of 4 and the differences of their last entries over the whole walk:
    # 2, 2 (rows of different tops, one step for both) or 1.  With boxes
    # of radius 1, 2 and 3 in one walk, each value lies within its rounding
    # budget (its error less its tail) of the brute sum over its own box, so
    # no term of a wider box leaks in, and its error is no looser than the
    # one of its own walk
    tau, z = _level_cases()[3]
    rows = [[tau.entry(i, j) for j in range(2)] for i in range(2)]
    bs = list(itertools.product(range(4), repeat=2))
    groups = {a: (radius, bs) for radius, a in enumerate(tops, 1)}
    # the step, from the cached shape of the union walk (z != 0: no mirror
    # rows)
    shape = theta_module._frames(2, 4, tuple((a, radius) for a, (radius, _) in groups.items()),
                                 False)
    for prec in (96, 8):
        with workprec(prec + GUARD_BITS):
            zt = theta_module._at(tau, z)
            lam, xi, u = zt.tail
            union = _group_values(tau, z, 4, groups)
            for a, (radius, _) in groups.items():
                alone = _group_values(tau, z, 4, {a: (radius, bs)})[a]
                s = max(abs(Fraction(x, 4) + w) for x, w in zip(a, u))
                tail = theta_module._tail(2, lam, s, zt.head)(radius)
                with workprec(200):
                    refs = theta_brute_batch(rows, z, [Fraction(x, 4) for x in a],
                                             [[Fraction(x, 4) for x in b] for b in bs],
                                             n=radius)
                for b, ref, v, w in zip(bs, refs, union[a], alone):
                    with workprec(200):
                        assert fabs(v.value - ref) <= v.err - tail, (prec, a, b)
                    assert v.err <= w.err
    assert shape.step == step


def test_cached_combination_is_the_per_class_loop(monkeypatch):
    # the combination of a walk's class accumulators from the cached table
    # gives the sums (re, im) and budgets of the per-class loop that rebuilt
    # every index per walk, bit for bit: g <= 3, levels 2, 3, 4 and 6, with
    # and without the phase, seeded tops and subsets of bs, and inexact
    # weights (levels 3 and 6, level 4 with the phase) with their w term
    walks = []
    row_sum = theta_module._row_sum
    monkeypatch.setattr(theta_module, "_row_sum",
                        lambda *args: walks.append(row_sum(*args)) or walks[-1])
    inexact = 0
    for g in (1, 2, 3):
        for den in (2, 3, 4, 6):
            for phase in (True, False):
                rng = random.Random(9500 + 100 * g + 10 * den + phase)
                tau = sampling.random_siegel_point(rng, g)
                z = None
                if (g + den + phase) % 2:
                    z = _shifted(tau, [rng.uniform(-0.5, 0.5) for _ in range(g)],
                                 [rng.uniform(-0.5, 0.5) for _ in range(g)])
                level = list(itertools.product(range(den), repeat=g))
                groups = {a: (rng.randrange(3 if g < 3 else 2),
                              rng.sample(level, rng.randrange(1, min(6, len(level)) + 1)))
                          for a in rng.sample(level, min(3, len(level)))}
                with workprec(96 + GUARD_BITS):
                    walks.clear()
                    walk = theta_module._theta_groups(tau, z, den, groups, phase)
                ((acc_re, acc_im, _, units, pf),) = walks
                want = theta_groups_combination(acc_re, acc_im, g, den,
                                                {a: bs for a, (_, bs) in groups.items()},
                                                units, pf, phase, theta_module._unit)
                got = {a: [(s.re, s.im, s.units) for s in sums] for a, sums in walk.sums.items()}
                assert got == want, (g, den, phase)
                inexact += any(s.units != units[a] for a, sums in walk.sums.items() for s in sums)
    assert inexact


@pytest.mark.parametrize("den", [4, 16, 36])
def test_group_weights_within_their_stated_bound(den):
    # _theta_groups' weights exp(pi i num/den) in p-bit fixed point: exact
    # when 2 num/den is an integer, otherwise within 97 * 2^-p of exact
    p = 96 + GUARD_BITS
    exact_seen = inexact_seen = 0
    for num in range(-2 * den, 2 * den + 1):
        wr, wi, exact = theta_module._unit(num, den, p)
        with workprec(400):
            err = fabs(mpc(wr, wi) / mpf(2) ** p - expjpi(mpf(num) / den))
            if exact:
                assert 2 * num % den == 0 and err <= mpf(2) ** -390
                exact_seen += 1
            else:
                assert err <= 97 * mpf(2) ** -p
                inexact_seen += 1
    assert exact_seen and inexact_seen


def _chain_cases():
    """(name, tau, z, den, {a: radius}) for each situation a chain of rows
    meets: a row that is not walked after a chained one (a box wider than
    the tail needs), a peak that moves by two or more steps from row to
    row (strong skew), chains that start at clipped rows (every peak of a
    small box outside it), tiny |Q| (2^6 tau of the duplication audit, at
    a small real z, where no row pairs with its mirror at -nn), g = 3,
    unions whose outer rows hold fewer tops (levels 4 and 6: the rows at
    which a walk by each row's own step would change step), and lines that
    hold rows of several prefix classes: a full level at g = 3, at z = 0
    and not, and a level-4 union whose a_1 residues {0, 1, 3} leave a gap
    in a line."""
    tau = _skewed(1.4, 1.1, 0.6)
    z = _shifted(tau, (0.2, -0.1), (0.3, -0.4))
    cases = [("skipped row", tau, z, 2, {(1, 0): choose_radius(
        tau, z, ThetaCharacteristic.from_integers(2, (1, 0), (0, 0)), 96) + 4})]
    strong = _skewed(4.0, 0.7, 0.85 * (4.0 * 0.7) ** 0.5)
    cases.append(("peak shift", strong, _shifted(strong, (0.1, 0.2), (0.2, 0.1)), 2,
                  {(1, 1): 6}))
    cases.append(("clipped start", tau, _shifted(tau, (0.3, 0.1), (0.0, 4.0)), 2,
                  {(0, 1): 2}))
    with workprec(200):
        tiny = SiegelPoint.from_rows([[tau.entry(i, j) * 64 for j in range(2)]
                                      for i in range(2)])
    cases.append(("tiny Q", tiny, (mpc("0.01"), mpc("-0.02")), 2,
                  {a: 2 for a in itertools.product(range(2), repeat=2)}))
    rng = random.Random(7301)
    tau3 = sampling.random_siegel_point(rng, 3)
    z3 = _shifted(tau3, [rng.uniform(-0.5, 0.5) for _ in range(3)],
                  [rng.uniform(-0.5, 0.5) for _ in range(3)])
    chars3 = [ThetaCharacteristic.from_integers(2, a, (0, 0, 0))
              for a in ((0, 0, 0), (1, 0, 1), (0, 1, 1))]
    cases.append(("g = 3", tau3, z3, 2, {tuple(int(2 * v) for v in ch.m1): choose_radius(
        tau3, z3, ch, 96) for ch in chars3}))
    cases.append(("mixed steps", tau, z, 4, {(0, 0): 1, (0, 1): 2, (0, 3): 4}))
    cases.append(("mixed steps", tau, z, 6, {(1, 0): 1, (1, 2): 2, (1, 5): 4}))
    full = {a: rng.randrange(1, 4) for a in itertools.product(range(2), repeat=3)}
    for w in ((mpc(0),) * 3, z3):
        cases.append(("merged g = 3", tau3, w, 2, full))
    cases.append(("gap", tau, z, 4, {(0, 0): 2, (1, 3): 3, (3, 1): 2, (1, 0): 1}))
    return cases


def _record_plans(monkeypatch):
    """Patch ``theta._plan`` to record the (shape, plan) of each walk."""
    seen = []
    plan = theta_module._plan

    def recorded(*args):
        out = plan(*args)
        seen.append(out)
        return out
    monkeypatch.setattr(theta_module, "_plan", recorded)
    return seen


def _own_step(spans, den):
    """The step of a row by its own tops alone, ``spans`` keyed by their
    last entries: the gcd of den and the differences of those."""
    first = min(spans)
    return math.gcd(den, *(c - first for c in spans))


def _occurs(name, tau, z, den, boxes, seen) -> bool:
    """Whether the recorded walks of a case met its situation."""
    chained = []    # (line, shift) of each chained row
    pairs = []      # (how, frame) of each row off a centre, and of the row before it
    runs = [(shape, *run) for shape, plan in seen
            for run in zip(shape.runs, plan.lines, plan.chains)]
    for _, frames, line, plan in runs:
        how_of = {j: how for j, _, how, _, _ in plan}
        chained += [(line, shift) for _, _, how, shift, _ in plan if how == "chain"]
        pairs += [((how, frames[j]), (how_of[j - d], frames[j - d]))
                  for j, d, how, _, _ in plan if d]
    if name == "skipped row":
        return any(row[0] == "skip" and prev[0] == "chain" for row, prev in pairs)
    if name == "peak shift":
        return any(abs(shift) >= 2 for _, shift in chained)
    if name == "clipped start":
        ((a, radius),) = boxes.items()
        char = ThetaCharacteristic.from_integers(den, a, (0, 0))
        return bool(chained) and _clipped_rows(tau, z, char, radius) == 2 * radius + 1
    if name == "tiny Q":
        # Q = exp(2 pi i tau_gg / den^2) at the union's step 1; its inverse
        # and C^-1 are far too large to chain through, so a walked row after
        # a walked one takes a fresh anchor
        refused = any(row[0] == "anchor" and prev[0] != "skip" for row, prev in pairs)
        return refused and exp(-2 * pi * tau.im[1][1] / den ** 2) < mpf(2) ** -60
    if name == "g = 3":
        return len({id(line) for line, _ in chained}) >= 3
    # a chain crosses from a row of one prefix class to a row of another
    crossed = any(row[0] == "chain" and row[1].nn[-1] % den != prev[1].nn[-1] % den
                  for row, prev in pairs)
    if name == "mixed steps":
        # every row whose own step differs from the one of the row before
        # it (where a walk by each row's own step took a fresh anchor)
        # chains; rows of one prefix class, so no chain crosses classes
        changes = [row[0] for row, prev in pairs if prev[0] != "skip"
                   and _own_step(row[1].spans, den) != _own_step(prev[1].spans, den)]
        return bool(changes) and set(changes) == {"chain"} and not crossed
    if name == "gap":
        # a line splits into two runs at a row it lacks
        split = any(b[0].nn[:-1] == a[-1].nn[:-1] and b[0].nn[-1] - a[-1].nn[-1] > shape.spacing
                    for shape, _ in seen for a, b in zip(shape.runs, shape.runs[1:]))
        return crossed and split
    return crossed      # merged g = 3


@pytest.mark.parametrize("name, tau, z, den, boxes", _chain_cases())
def test_chained_rows_match_brute_oracle(monkeypatch, name, tau, z, den, boxes):
    # the start values of a chained row come from the row before it; at
    # prec 96 and at prec 8, where the rounding budget dominates, every
    # value lies within its certified error of the brute sum over its own
    # box, no error is above the one of its top characteristic's own walk,
    # and the situation the case is built for does occur
    g = tau.g
    bs = list(itertools.product(range(den), repeat=g))
    rows = [[tau.entry(i, j) for j in range(g)] for i in range(g)]
    with workprec(200):
        refs = {a: theta_brute_batch(rows, z, [Fraction(x, den) for x in a],
                                     [[Fraction(x, den) for x in b] for b in bs], n=radius)
                for a, radius in boxes.items()}
    seen = _record_plans(monkeypatch)
    for prec in (96, 8):
        with workprec(prec + GUARD_BITS):
            union = _group_values(
                tau, z, den, {a: (radius, bs) for a, radius in boxes.items()})
            alone = {a: _group_values(tau, z, den, {a: (radius, bs)})[a]
                     for a, radius in boxes.items()}
        for a in boxes:
            for b, ref, v, w in zip(bs, refs[a], union[a], alone[a]):
                with workprec(200):
                    assert fabs(v.value - ref) <= v.err, (prec, a, b)
                    assert fabs(w.value - ref) <= w.err, (prec, a, b)
                assert v.err <= w.err, (prec, a, b)
    assert _occurs(name, tau, z, den, boxes, seen), name


def test_a_cached_shape_is_walked_as_it_is(monkeypatch):
    # a second walk over the same boxes reads the cached shape: no shape is
    # built and no row budget or slot is formed again, and its sums are the
    # first walk's
    tau = SiegelPoint.from_rows([[mpc("0.1", "1.3"), mpc("0.2", "0.4")],
                                 [mpc("0.2", "0.4"), mpc("-0.3", "1.1")]])
    boxes = {(0, 0): 3, (0, 1): 4, (1, 0): 2, (1, 1): 3}
    with workprec(96 + GUARD_BITS):
        first = theta_module._row_sum(tau, theta_module._at(tau, None), 2, boxes)
        misses = theta_module._frames.cache_info().misses
        budgets = []
        row_units = theta_module._row_units
        monkeypatch.setattr(theta_module, "_row_units",
                            lambda k: budgets.append(k) or row_units(k))
        again = theta_module._row_sum(tau, theta_module._at(tau, None), 2, boxes)
    assert theta_module._frames.cache_info().misses == misses and budgets == []
    assert again == first


def _mirror_cases():
    """(name, tau, den, {a: radius}, bs) at z = 0, g = 2 and 3, levels 2, 4
    and 6, with unequal radii: at levels 4 and 6 the prefix classes P and
    -P hold different top characteristics, so a walked row and its mirror
    do too, and tops with 2 a_g != 0 mod den make rows whose own tops
    step differently from their mirror's; bs is a seeded sample of the
    level."""
    cases = []
    tau = _skewed(1.4, 1.1, 0.6, (0.1, -0.2, 0.3))
    rng = random.Random(7401)
    tau3 = sampling.random_siegel_point(rng, 3)
    for name, point, den, boxes in (
            ("g2 r2", tau, 2, {(0, 0): 2, (0, 1): 3, (1, 0): 4, (1, 1): 2}),
            ("g2 r4", tau, 4, {(1, 0): 2, (3, 0): 3, (0, 1): 2, (0, 3): 1, (2, 0): 2,
                               (2, 2): 3}),
            ("g2 r6", tau, 6, {(1, 0): 2, (5, 3): 3, (2, 1): 2, (4, 5): 3, (3, 3): 2,
                               (3, 0): 1, (0, 1): 3, (0, 5): 2}),
            ("g3 r2", tau3, 2, {a: rng.randrange(1, 4)
                                for a in itertools.product(range(2), repeat=3)}),
            ("g3 r4", tau3, 4, {(0, 0, 0): 2, (2, 0, 2): 2, (1, 2, 3): 2, (3, 2, 1): 1,
                                (0, 2, 2): 1})):
        level = list(itertools.product(range(den), repeat=point.g))
        cases.append((name, point, den, boxes, rng.sample(level, min(6, len(level)))))
    return cases


def _walkers(g, den, boxes):
    """{nn: last} for every row of a z = 0 walk over ``boxes``: the length
    of the walked row that holds it, the row itself or its mirror at
    -nn.  No row is held twice."""
    out = {}
    for run in theta_module._frames(g, den, tuple(boxes.items()), True).runs:
        for fr in run:
            held = [fr.nn] + ([tuple(-x for x in fr.nn)] if fr.mirror else [])
            for nn in held:
                assert nn not in out, nn
                out[nn] = fr.last
    return out


@pytest.mark.parametrize("name, tau, den, boxes, bs", _mirror_cases())
def test_mirrored_rows_match_brute_oracle(name, tau, den, boxes, bs):
    # at z = 0 a row and its mirror at -nn are walked once: at prec 96 and
    # at prec 8 every value lies within its rounding budget (its error less
    # its tail) of the brute sum over its own box, so no term of the mirror
    # is lost, doubled or let in outside its box, and its error is no
    # larger than the one of its top characteristic's own walk.  Every row
    # of every box is held by exactly one walked row, and a's budget counts
    # the rows that hold its terms, once per side of a pair
    g = tau.g
    h = g - 1
    z = (mpc(0),) * g
    rows = [[tau.entry(i, j) for j in range(g)] for i in range(g)]
    frames = [fr for run in theta_module._frames(g, den, tuple(boxes.items()), True).runs
              for fr in run]
    assert any(fr.mirror for fr in frames)
    if den > 2:
        # the rows of a pair hold different tops somewhere
        assert any({a for _, _, a in fr.tops[:len(fr.spans)]}
                   != {a for _, _, a in fr.tops[len(fr.spans):]} for fr in frames if fr.mirror)
    if g == 2 and den > 2:
        # a row and its mirror whose own tops step differently pair: every
        # row walks at the walk's one step (a walk by each row's own step
        # walked both rows)
        assert any(_own_step(fr.spans, den) != _own_step(fr.mirror[1], den)
                   for fr in frames if fr.mirror)
    last = _walkers(g, den, boxes)
    with workprec(200):
        refs = {a: theta_brute_batch(rows, z, [Fraction(x, den) for x in a],
                                     [[Fraction(x, den) for x in b] for b in bs], n=radius)
                for a, radius in boxes.items()}
    for prec in (96, 8):
        with workprec(prec + GUARD_BITS):
            zt = theta_module._at(tau, z)
            lam, xi, _ = zt.tail
            units = theta_module._row_sum(tau, zt, den, boxes)[3]
            union = _group_values(tau, z, den, {a: (radius, bs) for a, radius in boxes.items()})
            alone = {a: _group_values(tau, z, den, {a: (radius, bs)})[a]
                     for a, radius in boxes.items()}
            tails = {a: theta_module._tail(g, lam, theta_module._shift(zt, a, den), zt.head)(radius)
                     for a, radius in boxes.items()}
        for a, radius in boxes.items():
            held = [last[tuple(den * x + y for x, y in zip(pre, a))]
                    for pre in itertools.product(range(-radius, radius + 1), repeat=h)]
            assert units[a] == sum(map(theta_module._row_units, held)), (name, a)
            for b, ref, v, w in zip(bs, refs[a], union[a], alone[a]):
                with workprec(200):
                    assert fabs(v.value - ref) <= v.err - tails[a], (name, prec, a, b)
                    assert fabs(w.value - ref) <= w.err - tails[a], (name, prec, a, b)
                assert v.err <= w.err, (name, prec, a, b)


def test_oracle_cases_clip_rows_and_form_inverses(monkeypatch):
    # the walks of the chained and mirrored brute-oracle cases meet every
    # situation of the clip and of the values formed as inverses: a walked
    # row shortened by the ellipsoid and a row it empties, rho+ and rho- by
    # identity at a start, Q from Q^-1 and C^d from C^-d, and a first O
    seen = _record_plans(monkeypatch)
    cases = [(tau, z, den, boxes) for _, tau, z, den, boxes in _chain_cases()]
    cases += [(tau, (mpc(0),) * tau.g, den, boxes) for _, tau, den, boxes, _ in _mirror_cases()]
    with workprec(96 + GUARD_BITS):
        for tau, z, den, boxes in cases:
            _group_values(tau, z, den, {a: (radius, [a]) for a, radius in boxes.items()})
    found = set()
    for shape, plan in seen:
        for run, line, chain in zip(shape.runs, plan.lines, plan.chains):
            for j, d, how, _, inv in chain:
                assert how in ("skip", "anchor", "chain"), how
                row = line[j]
                if row.lo > row.hi:
                    found.add("emptied")
                elif how != "skip" and row.hi - row.lo < run[j].last:
                    found.add("shortened")
                if how == "anchor" and inv:
                    found.add("rho+" if inv > 0 else "rho-")
                if how == "chain" and inv:
                    found.add("O")
        q, c = plan.q, plan.moves[1][2]
        if plan.inverse.get(q) == (-q[0], -q[1]):
            found.add("Q")
        if c in plan.inverse or (-c[0], -c[1]) in plan.inverse:
            found.add("C")
    assert found == {"emptied", "shortened", "rho+", "rho-", "Q", "C", "O"}, found


def test_a_g1_walk_forms_a_ratio_and_q_by_identity(monkeypatch):
    # every start value and constant of a walk is formed at one width, so
    # the one anchor of a g = 1 walk takes its ratio of smaller modulus as
    # Q / rho and Q as the inverse of Q^-1: 4 fresh exps (the peak term,
    # one ratio, Q^-1 and the finisher's scale) and 2 inverses, where an
    # anchor at pf bits took 5 exps and none
    counts = dict.fromkeys(("mpc_expjpi", "_inverse"), 0)
    for name in counts:
        def wrapper(*args, _fn=getattr(theta_module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(theta_module, name, wrapper)
    t = mpc("0.1", "1.3")
    v = theta(SiegelPoint.from_complex(t), prec=96)
    assert counts == {"mpc_expjpi": 4, "_inverse": 2}, counts
    with workprec(200):
        assert fabs(v.value - theta_brute([[t]], n=30)) <= v.err


def _ellipsoid_cases():
    """Seeded (tau, z, den, a) at g = 1, 2 and 3, with tau unreduced and
    reduced, z = 0 and z = a + tau b with |b| <= 1, levels 2 and 4."""
    cases = []
    for g in (1, 2, 3):
        for reduced in (False, True):
            for with_z in (False, True):
                rng = random.Random(8800 + 100 * g + 10 * reduced + with_z)
                tau = sampling.random_siegel_point(rng, g)
                if reduced:
                    tau = reduce_heuristic(tau, prec=128).reduced
                z = (mpc(0),) * g
                if with_z:
                    z = _shifted(tau, [rng.uniform(-0.5, 0.5) for _ in range(g)],
                                 [rng.uniform(-1, 1) for _ in range(g)])
                den = rng.choice((2, 4))
                cases.append((tau, z, den, tuple(rng.randrange(den) for _ in range(g))))
    return cases


@pytest.mark.parametrize("tau, z, den, a", _ellipsoid_cases())
def test_terms_outside_the_ellipsoid_are_within_the_cushion(monkeypatch, tau, z, den, a):
    # at 200 bits: the terms of a/den whose Im D exceeds the walk's integer
    # bound h, summed over a box two wider than the radius, are at most the
    # bound e^(theta pi xi - (1 - theta) H) (1 + 1/sqrt(theta lam))^g at the
    # chosen H; that bound is at most 2^-10 of the box tail; and
    # h >= H s / pi
    g = tau.g
    seen = _record_plans(monkeypatch)
    char = ThetaCharacteristic.from_integers(den, a, (0,) * g)
    radius = choose_radius(tau, z, char, 96)
    with workprec(96 + GUARD_BITS):
        zt = theta_module._at(tau, z)
        _group_values(tau, zt, den, {a: (radius, [a])})
        tail = theta_module._box_tail(zt, a, den, radius)
    ((_, plan),) = seen
    lam, xi, _ = zt.tail
    height, h, s_den = theta_module._height(zt, tail), plan.h, plan.s_den
    assert height < math.inf and h is not None
    theta_c = theta_module.CLIP_THETA
    y = [[mpf_to_fraction(tau.im[i][j]) for j in range(g)] for i in range(g)]
    yz = [mpf_to_fraction(w.imag) for w in z]
    cap = Fraction(h, s_den)
    outside = []
    for n in itertools.product(range(-radius - 2, radius + 3), repeat=g):
        v = [k + Fraction(x, den) for k, x in zip(n, a)]
        im_d = sum(v[i] * y[i][j] * v[j] for i in range(g) for j in range(g)) + 2 * sum(
            p * q for p, q in zip(v, yz))
        if im_d > cap:
            outside.append(im_d)
    with workprec(200):
        assert mpf(h) >= mpf(height) * s_den / pi
        bound = (exp(theta_c * pi * fraction_to_mpf(xi) - (1 - theta_c) * mpf(height))
                 * (1 + 1 / sqrt(theta_c * fraction_to_mpf(lam))) ** g)
        assert bound <= tail * mpf(2) ** -10
        assert fsum(exp(-pi * fraction_to_mpf(d)) for d in outside) <= bound
    assert outside


def test_cached_slots_match_the_term_by_term_oracle():
    # the shape of every walk of the chain and mirror cases, and of g = 1
    # walks, with and without mirror rows and for each box alone: every
    # frame holds the slots that the term-by-term reference gives, own,
    # mirrored and pair slots included
    cases = [(tau.g, den, boxes) for _, tau, den, boxes, _ in _mirror_cases()]
    cases += [(tau.g, den, boxes) for _, tau, _, den, boxes in _chain_cases()]
    cases += [(1, 2, {(0,): 3, (1,): 2}), (1, 4, {(1,): 2, (2,): 3, (3,): 1}),
              (1, 6, {(0,): 1, (3,): 2, (5,): 4})]
    seen = set()
    for g, den, boxes in cases:
        size = (den * den) ** g
        for mirror in (True, False):
            for key in [tuple(boxes.items())] + [((a, radius),) for a, radius in boxes.items()]:
                shape = theta_module._frames(g, den, key, mirror)
                for run in shape.runs:
                    for fr in run:
                        want = row_slots(fr.base, fr.lo, shape.step, fr.last + 1, fr.spans, den,
                                         size, fr.mirror)
                        assert list(fr.slots) == want, (g, den, key, mirror, fr.nn)
                        seen.add((g, den, any(size <= x < 2 * size for x in want)))
    assert {g for g, _, _ in seen} == {1, 2, 3} and {den for _, den, _ in seen} == {2, 4, 6}
    assert any(pair for _, _, pair in seen)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_explicit_zero_z_is_no_z(g):
    # z = 0 given as ints or as mpc zeros walks as z = None, mirror rows
    # included: the same bits for every characteristic of a level, for
    # theta and for the norm bounds
    rng = random.Random(7500 + g)
    tau = sampling.random_siegel_point(rng, g)
    chars = theta_module._level_chars(g, 2)
    char = ThetaCharacteristic.from_integers(2, [1] * g, [0] * g)
    outs = []
    for z in (None, [0] * g, [mpc(0)] * g):
        with workprec(96 + GUARD_BITS):
            batch = theta_module._complex(*theta_module._theta_batch(tau, z, 2, chars, 96))
        outs.append((batch, theta(tau, z, char, 96),
                     verify_norm_bounds(tau, 2, z, prec=96, assume_reduced=True)))
    assert outs[0] == outs[1] == outs[2]


def _moduli_cases():
    """(name, tau, z, r, phase, tops, prec, tol) at g = 1, 2 and 3, r = 2
    and r = 4, z = 0 and z = a + tau b with xi != 0: with the phase at
    r = 4 the weights are inexact and the sums carry their w term; the
    "tail" case asks for tol 2^-8, so the tail dominates the radius."""
    cases = []
    for g in (1, 2, 3):
        for r in (2, 4):
            rng = random.Random(8300 + 10 * g + r)
            if g == 2:
                y0, y1 = rng.uniform(0.8, 2.0), rng.uniform(0.8, 1.5)
                c = rng.choice((-1, 1)) * rng.uniform(0.3, 0.6) * (y0 * y1) ** 0.5
                tau = _skewed(y0, y1, c, [rng.uniform(-0.5, 0.5) for _ in range(3)])
            else:
                tau = sampling.random_siegel_point(rng, g)
            z = (mpc(0),) * g
            if (g + r // 2) % 2:
                z = _shifted(tau, [rng.uniform(-0.5, 0.5) for _ in range(g)],
                             [rng.uniform(-0.5, 0.5) for _ in range(g)])
            tops = list(itertools.product(range(r), repeat=g))
            if g == 3:
                tops = rng.sample(tops, 4 // r)
            cases.append((f"g{g}-r{r}", tau, z, r, r == 4, tops, 96, None))
    name, tau, z, r, _, tops, _, _ = cases[3]        # g = 2, r = 4
    cases.append(("tail", tau, _shifted(tau, (0.1, -0.2), (0.3, 0.2)), 2, False,
                  list(itertools.product(range(2), repeat=2)), 96, mpf(2) ** -8))
    return cases


def _walk_bounds(tau, z, r, phase, tops, prec, tol):
    """(F, {(a, b): (L, H)}, walk) for the level-r characteristics of the
    top characteristics ``tops`` and every b: ``_moduli2`` without the phase
    at its own tolerance, ``_theta_groups`` and ``_moduli`` with the phase or
    at a given tol (the radii of ``choose_radius``), F as ``_moduli2`` forms
    it."""
    g = tau.g
    bs = list(itertools.product(range(r), repeat=g))
    with workprec(prec + GUARD_BITS):
        zt = theta_module._at(tau, z)
        if not phase and tol is None:
            chars = [(a, b) for a in tops for b in bs]
            f, pairs = theta_module._moduli2(tau, zt, r, chars, prec)
            return f, dict(zip(itertools.product(tops, bs), pairs)), None
        _, xi, _ = zt.tail
        groups = {a: (choose_radius(tau, zt, ThetaCharacteristic.from_integers(r, a, bs[0]),
                                    prec, tol), bs) for a in tops}
        walk = theta_module._theta_groups(tau, zt, r, groups, phase)
        f = theta_module._exp_pi(-2 * (walk.y_m + xi), -2 * walk.pf)
        out = {}
        for a in tops:
            for b, (lo, hi) in zip(bs, theta_module._moduli(walk, walk.sums[a])):
                out[a, b] = lo * lo, hi * hi
        return f, out, walk


MODULI_CASES = _moduli_cases()


@pytest.mark.parametrize("name, tau, z, r, phase, tops, prec, tol", MODULI_CASES,
                         ids=[case[0] for case in MODULI_CASES])
def test_moduli_enclose_the_brute_oracle(name, tau, z, r, phase, tops, prec, tol):
    # the exact exp(-2 pi xi) |theta_e|^2, xi = y^T Y^-1 y, lies in
    # [F.lo L_e, F.hi H_e] for every characteristic of the walk: the integer
    # radius holds the walk budget, the weights, the floors and the tail.
    # In the "tail" case the box misses more than 2^-40 of some theta, far
    # above the rounding budget at 96 bits, so only the tail term T covers it
    g = tau.g
    rows = [[tau.entry(i, j) for j in range(g)] for i in range(g)]
    f, pairs, walk = _walk_bounds(tau, z, r, phase, tops, prec, tol)
    if phase:
        # some weight is inexact: its sums carry the w term above units[a]
        assert any(s.units != walk.sums[a][0].units for a in tops for s in walk.sums[a])
    _, xi, _ = theta_module._tail_data(tau, z)
    assert (xi != 0) == any(w.imag for w in z)
    bs = list(itertools.product(range(r), repeat=g))
    missed = 0
    for a in tops:
        radius = choose_radius(tau, z, ThetaCharacteristic.from_integers(r, a, bs[0]),
                               prec, tol)
        # the box radius + 3 leaves a remainder far below 2^-90
        with workprec(200):
            refs = theta_brute_batch(rows, z, [Fraction(x, r) for x in a],
                                     [[Fraction(x, r) for x in b] for b in bs], n=radius + 3)
            if name == "tail":
                boxes = theta_brute_batch(rows, z, [Fraction(x, r) for x in a],
                                          [[Fraction(x, r) for x in b] for b in bs], n=radius)
                missed = max([missed] + [fabs(v - w) for v, w in zip(refs, boxes)])
        for b, ref in zip(bs, refs):
            lo, hi = pairs[a, b]
            with workprec(prec + GUARD_BITS):
                low, high = theta_module._outward(f, lo, hi)
            with workprec(400):
                exact = exp(-2 * pi * fraction_to_mpf(xi)) * fabs(ref) ** 2
                assert low <= exact <= high, (name, a, b)
    assert name != "tail" or missed > mpf(2) ** -40


def test_modulus_radius_is_its_stated_budget(monkeypatch):
    # each sum carries its walk budget units[a] plus, where a weight is
    # inexact, w >= 2 + 97 sum_C |A_C| 2^-pf (the floors that form S), and
    # the modulus finisher's radius is exactly ceil(units (1 + 2^-30)) + T,
    # with T = ceil(tail exp(pi y_m) 2^pf, rounded up) + 1 >= tail exp(pi y_m) 2^pf
    walks = []
    row_sum = theta_module._row_sum

    def recorded(*args):
        out = row_sum(*args)
        walks.append(out)
        return out
    monkeypatch.setattr(theta_module, "_row_sum", recorded)
    seen = {"inexact": 0, "exact": 0}
    for name, tau, z, r, _, tops, prec, tol in MODULI_CASES:
        if tau.g == 3:
            continue
        walks.clear()
        _, _, walk = _walk_bounds(tau, z, r, True, tops, prec, tol)
        ((acc_re, acc_im, y_m, units, pf),) = walks
        assert (y_m, pf) == (walk.y_m, walk.pf)
        r2 = r * r
        with workprec(prec + GUARD_BITS):
            grow = theta_module._exp_pi(y_m)
            bounds = {a: theta_module._moduli(walk, walk.sums[a]) for a in tops}
        with workprec(400):
            assert grow.lo <= exp(pi * fraction_to_mpf(y_m)) <= grow.hi
        for a in tops:
            # the accumulators of a's classes C = r c + a, read base r^2
            weight = 0
            for c in itertools.product(range(r), repeat=tau.g):
                idx = 0
                for x, y in zip(c, a):
                    idx = idx * r2 + r * x + y
                weight += Fraction(97 * (abs(acc_re[idx]) + abs(acc_im[idx])), 1 << pf)
            for s, (lo, hi) in zip(walk.sums[a], bounds[a]):
                w = s.units - units[a]
                seen["exact" if w == 0 else "inexact"] += 1
                assert w == 0 or w >= 2 + weight, (name, a)
                with workprec(prec + GUARD_BITS):
                    t = mpf_to_fraction((grow * s.tail).hi) * (1 << pf)
                with workprec(400):
                    assert fraction_to_mpf(t) >= ldexp(s.tail, pf) * exp(
                        pi * fraction_to_mpf(y_m))
                n2 = s.re * s.re + s.im * s.im
                low = math.isqrt(n2)
                high = low + (low * low != n2)
                radius = math.ceil(s.units * (1 + Fraction(1, 1 << 30))) + math.ceil(t) + 1
                assert (lo, hi) == (max(0, low - radius), high + radius), (name, a)
    assert min(seen.values()) > 0, seen


def test_outward_ends_enclose_the_exact_products():
    # the integer bounds go to mpf and through the certified factor rounded
    # outward: F.lo L rounded down, F.hi H rounded up, exactly
    rng = random.Random(9100)
    with workprec(96 + GUARD_BITS):
        for k in range(40):
            lo = rng.getrandbits(rng.choice((40, 200, 400))) | 1
            hi = lo + rng.getrandbits(30)
            v = mpf(rng.randrange(1, 1 << 60)) / 3 if k % 2 else mpf(1)
            f = CertifiedReal(v, v * mpf(2) ** -100 if k % 4 == 3 else mpf(0))
            low, high = theta_module._outward(f, lo, hi)
            assert mpf_to_fraction(low) <= mpf_to_fraction(f.lo) * lo
            assert mpf_to_fraction(high) >= mpf_to_fraction(f.hi) * hi


def test_interval_ball_holds_its_ends():
    # the midpoint is rounded, and the radius reaches both ends exactly;
    # mid - lo is inexact (and so rounded upward) only when lo < hi/3
    rng = random.Random(9101)
    with workprec(53):
        for _ in range(400):
            hi = mpf(rng.getrandbits(53) | 1) / (rng.getrandbits(20) | 1)
            lo = hi * rng.choice((rng.random(), 2.0 ** -rng.randrange(2, 90)))
            x = theta_module._interval(lo, hi)
            v, r = mpf_to_fraction(x.value), mpf_to_fraction(x.err)
            assert v - r <= mpf_to_fraction(lo) and mpf_to_fraction(hi) <= v + r


def test_norm_bounds_form_no_complex_value_and_a_fixed_count_of_exps_and_logs(monkeypatch):
    # verify_norm_bounds decides on the walk's integers: no CertifiedComplex,
    # and per call at most 2 certified exps per walk (exp(pi y_m) for the
    # tails and the factor F; none where the exponent is 0) and 2 certified
    # logs (the norm sum and c_g), at r = 2 as at r = 4: nothing per
    # characteristic
    tau = SiegelPoint.from_rows([[mpc("0.1", "1.3"), mpc("0.2", "0.4")],
                                 [mpc("0.2", "0.4"), mpc("-0.3", "1.1")]])
    z = [mpc("0.1", "0.2"), mpc("0.3", "-0.1")]
    verify_norm_bounds(tau, 2, z, prec=96, assume_reduced=True)    # caches c_g
    counts = dict.fromkeys(("complex", "exp", "log"), 0)

    class Counted(CertifiedComplex):
        def __init__(self, *args):
            counts["complex"] += 1
            super().__init__(*args)
    monkeypatch.setattr(theta_module, "CertifiedComplex", Counted)
    for name in ("exp", "log"):
        def wrapper(self, _fn=getattr(CertifiedReal, name), _name=name):
            counts[_name] += 1
            return _fn(self)
        monkeypatch.setattr(CertifiedReal, name, wrapper)
    for r in (2, 4):
        counts.update(dict.fromkeys(counts, 0))
        verify_norm_bounds(tau, r, z, prec=96, assume_reduced=True)
        assert counts["complex"] == 0 and counts["exp"] <= 4 and counts["log"] <= 2, (r, counts)
    # the complex finisher is counted: theta forms one value
    theta(tau, z, prec=96)
    assert counts["complex"] == 1


def _count_work(monkeypatch):
    counts = dict.fromkeys(("_row_sum", "_radius", "_tail_data", "mpc_expjpi"), 0)
    for name in counts:
        fn = getattr(theta_module, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(theta_module, name, wrapper)
    return counts, _counted_tail(monkeypatch)


def test_one_walk_and_one_radius_per_top_characteristic(monkeypatch):
    counts, tails = _count_work(monkeypatch)
    tau = SiegelPoint.from_rows([[mpc("0.1", "1.3"), mpc("0.2", "0.4")],
                                 [mpc("0.2", "0.4"), mpc("-0.3", "1.1")]])
    z = [mpc("0.1", "0.2"), mpc("0.3", "-0.1")]

    def work(fn, *args, **kwargs):
        counts.update(dict.fromkeys(counts, 0))
        tails.clear()
        fn(*args, **kwargs)
        # the exact data of z (u = Y^-1 Im z, xi) are formed once per walk
        assert counts["_tail_data"] == counts["_row_sum"], fn
        return counts["_row_sum"], counts["_radius"], len(tails)

    # one walk per level; one radius per distinct s = max_i |m1_i + u_i|,
    # which at z = 0 is max_i m1_i: 2 values at r = 2, 4 at r = 4; one
    # certified tail per distinct (s, radius), none in the radius search
    assert work(verify_norm_bounds, tau, 2, prec=96) == (1, 2, 2)
    assert work(verify_norm_bounds, tau, 2, z, prec=96, assume_reduced=True) == (2, 3, 3)
    for r in (2, 4):
        # at this w = r z the r^g top characteristics share r distinct s
        assert work(beta_sigma, tau, z, r, prec=96) == (1, r, r)
        assert work(theta_null_vector, tau, r, prec=96) == (1, r, r)
    assert work(verify_duplication, tau, 3, prec=96) == (4, 4 * 2, 4 * 2)
    assert work(verify_duplication, TAU_I, 3, prec=96) == (4, 4 * 2, 4 * 2)
    # theta is the one-member batch: one walk, one search, one tail
    char = ThetaCharacteristic.from_integers(4, [1, 2], [3, 0])
    assert work(theta, tau, z, char, prec=96) == (1, 1, 1)
    # fresh exps: the rows of a walk chain from their run's centre, so a
    # walk takes a few per run and per constant, not three per row (the
    # anchored walk took 56 over 18 rows, 135 over 44 and 85 over 27).  A
    # level walk is one line at one step: at r = 4, where each change of a
    # row's own step took a fresh anchor, 40 exps became 9.  Walked rows
    # and terms, recorded through the plans: at z = 0 a row and its mirror
    # at -nn are walked once (the full lattice took 18 rows and 324 terms,
    # 44 and 1657, and with z 27 and 405); at r = 4 the rows that paired
    # only at a common step pair too (27 rows and 1035 terms by own steps).
    # The rows clipped to the ellipsoid and the values formed as inverses
    # (rho-, Q^-1, C^-1, O-) took 9, 9 and 19 exps over 10 rows and 188
    # terms, 24 and 1107, and 19 and 269 with z
    seen = _record_plans(monkeypatch)
    for args, kwargs, most, walked in (((tau, 2), {}, 6, (9, 133)),
                                       ((tau, 4), {}, 6, (19, 566)),
                                       ((tau, 2, z), {"assume_reduced": True}, 12, (18, 192))):
        seen.clear()
        work(verify_norm_bounds, *args, prec=96, **kwargs)
        assert counts["mpc_expjpi"] <= most, (args, kwargs)
        rows = [line[j] for _, plan in seen for line, chain in zip(plan.lines, plan.chains)
                for j, _, how, _, _ in chain if how != "skip"]
        assert (len(rows), sum(row.hi - row.lo + 1 for row in rows)) == walked, (args, kwargs)


def test_batch_paths_construct_no_characteristic(monkeypatch):
    # the batch paths carry integer pairs from the level lists to the walk:
    # not one ThetaCharacteristic is validated on the way
    made = []
    check = ThetaCharacteristic.__post_init__

    def counted(self):
        made.append(self)
        check(self)
    monkeypatch.setattr(ThetaCharacteristic, "__post_init__", counted)
    theta_module._level_chars.cache_clear()
    theta_module._coset_chars.cache_clear()
    ThetaCharacteristic.from_integers(2, [0, 1], [1, 0])
    assert len(made) == 1
    made.clear()
    tau = SiegelPoint.from_rows([[mpc("0.1", "1.3"), mpc("0.2", "0.4")],
                                 [mpc("0.2", "0.4"), mpc("-0.3", "1.1")]])
    z = [mpc("0.1", "0.2"), mpc("0.3", "-0.1")]
    for r in (2, 4):
        verify_norm_bounds(tau, r, z, prec=96, assume_reduced=True)
        beta_sigma(tau, z, r, prec=96)
        theta_null_vector(tau, r, prec=96)
    verify_duplication(tau, 2, prec=96)
    assert made == []


@pytest.mark.parametrize("g, r", [(1, 2), (1, 4), (2, 2), (2, 4)])
def test_batch_returns_sums_in_input_order(g, r):
    # a shuffled list of pairs, one of them repeated: the k-th sum is the
    # one of the k-th pair in the walk over the same boxes, each a at the
    # radius choose_radius gives it; a one-member batch is theta_truncated
    # at that radius, bitwise, and the shared walk agrees with it within
    # both errors
    rng = random.Random(9300 + 10 * g + r)
    tau = sampling.random_siegel_point(rng, g)
    z = _shifted(tau, [rng.uniform(-0.5, 0.5) for _ in range(g)],
                 [rng.uniform(-0.5, 0.5) for _ in range(g)])
    level = list(itertools.product(range(r), repeat=g))
    pairs = [(a, b) for a in rng.sample(level, min(3, len(level)))
             for b in rng.sample(level, 2)]
    rng.shuffle(pairs)
    pairs.append(pairs[1])
    firsts = list(dict.fromkeys(a for a, _ in pairs))
    assert sorted(pairs, key=lambda p: firsts.index(p[0])) != pairs
    chars = {p: ThetaCharacteristic.from_integers(r, *p) for p in pairs}
    radii = {a: choose_radius(tau, z, chars[a, b], 96) for a, b in pairs}
    bs = {a: sorted({b for x, b in pairs if x == a}) for a in radii}
    with workprec(96 + GUARD_BITS):
        got = theta_module._complex(*theta_module._theta_batch(tau, z, r, pairs, 96))
        ref = theta_module._theta_groups(tau, z, r, {a: (radii[a], bs[a]) for a in radii})
        want = theta_module._complex(ref, [ref.sums[a][bs[a].index(b)] for a, b in pairs])
        lone = [theta_module._complex(*theta_module._theta_batch(tau, z, r, [p], 96))[0]
                for p in pairs]
    assert got == want
    assert got[-1] == got[1]
    for p, v, w in zip(pairs, got, lone):
        assert w == theta_truncated(tau, z, chars[p], radii[p[0]], 96), p
        with workprec(200):
            assert fabs(v.value - w.value) <= v.err + w.err, p


def test_public_results_independent_of_global_precision():
    with workprec(200):
        tau = SiegelPoint.from_rows([[mpc("0.1", "1.1"), mpc("0.2", "0.3")],
                                     [mpc("0.2", "0.3"), mpc("-0.2", "1.3")]])
        z = [mpc("0.3", "0.2") / 3, mpc("-0.1", "0.4") / 7]
    char = ThetaCharacteristic.from_integers(4, [1, 2], [3, 0])

    def evaluate():
        return (theta(tau, z, char, prec=96), theta_norm(tau, z, prec=96),
                verify_norm_bounds(tau, 2, z, prec=96, assume_reduced=True))

    saved = mp.prec
    try:
        results = []
        for prec in (53, 128, 256):
            mp.prec = prec
            results.append(evaluate())
    finally:
        mp.prec = saved
    assert results[0] == results[1] == results[2]
