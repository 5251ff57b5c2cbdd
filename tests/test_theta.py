import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc, fabs, gamma, pi, workprec

from thetaheights import sampling
from thetaheights.certified import PrecisionError
from thetaheights.siegel import SiegelPoint, act, reduce_g1, sl2_s, sl2_t
from thetaheights.theta import (CosetSet, ReduceFirstError, ThetaCharacteristic,
                                beta_sigma, choose_radius, coset_set, theta,
                                theta_norm, theta_norm_char, theta_null_vector,
                                theta_truncated, verify_duplication,
                                verify_norm_bounds)

from oracles import theta_brute, theta_norm_brute

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


def test_reduce_first_signal():
    tau = SiegelPoint.from_complex(mpc(0, mpf(10) ** -6))
    with pytest.raises(ReduceFirstError):
        theta(tau, prec=128)


def test_truncation_radius_validation():
    for radius in (-1, 4001):
        with pytest.raises(ValueError):
            theta_truncated(TAU_I, radius=radius)


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


def test_norm_char_values():
    c00 = ThetaCharacteristic.from_integers(2, [0], [0])
    c01 = ThetaCharacteristic.from_integers(2, [0], [1])
    c11 = ThetaCharacteristic.from_integers(2, [1], [1])
    assert fabs(theta_norm_char(TAU_I, c00).value - THETA3_I) < mpf(10) ** -25
    assert fabs(theta_norm_char(TAU_I, c01).value - THETA4_I) < mpf(10) ** -25
    v = theta_norm_char(TAU_I, c11)
    assert v.value <= v.err


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
    chars = [ThetaCharacteristic.from_integers(2, [a], [b])
             for a in (0, 1) for b in (0, 1)]
    base = sorted((theta_norm_char(tau, c) for c in chars),
                  key=lambda v: v.value)
    for gamma in (sl2_s(), sl2_t(1)):
        moved = act(gamma, tau)
        vals = sorted((theta_norm_char(moved, c) for c in chars),
                      key=lambda v: v.value)
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


def test_beta_sigma_frozen_value():
    b = beta_sigma(TAU_I, None, 2)
    assert fabs(b.value - BETA_I) <= b.err + mpf(10) ** -25


def test_beta_sigma_decreases_in_the_norm_sum():
    # -(1/2) log(2^(g/2) S) is strictly decreasing in S
    from mpmath import log, sqrt
    s1, s2 = mpf("2.8"), mpf("2.9")
    f = lambda s: -log(sqrt(2) * s) / 2
    assert f(s2) < f(s1)


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
            x = [rng.uniform(-0.5, 0.5) for _ in range(3)]
            with workprec(200):
                off = mpc(mpf(x[2]), mpf(c))
                tau = SiegelPoint.from_rows([[mpc(mpf(x[0]), mpf(y0)), off],
                                             [off, mpc(mpf(x[1]), mpf(y1))]])
        else:
            tau = sampling.random_siegel_point(rng, g)
        span = 3.0 if k % 2 else 0.5
        a = [rng.uniform(-0.5, 0.5) for _ in range(g)]
        b = [rng.uniform(-span, span) for _ in range(g)]
        with workprec(200):
            z = [mpf(a[i]) + sum(tau.entry(i, j) * mpf(b[j]) for j in range(g))
                 for i in range(g)]
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
