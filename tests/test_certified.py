from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpc, mpf, fabs, workprec
from mpmath.libmp import (fnan, from_man_exp, mpf_exp, mpf_log, mpf_sqrt, round_ceiling,
                          round_floor, round_nearest)

from thetaheights import certified, heights
from thetaheights.certified import (CertifiedComplex, CertifiedReal, PrecisionError,
                                    certified_le, PASS, FAIL, INDETERMINATE)
from thetaheights.exactla import mpf_to_fraction as F


def cr(v, e):
    return CertifiedReal(mpf(v), mpf(e))


def test_negative_err_rejected():
    with pytest.raises(ValueError):
        cr(1, -1e-3)


def test_interval_endpoints():
    x = cr(2, 0.5)
    assert x.lo == mpf("1.5") and x.hi == mpf("2.5")


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small = st.floats(min_value=0, max_value=1e-3)
offset = st.floats(min_value=-1, max_value=1)


@settings(max_examples=200, deadline=None)
@given(a=finite, b=finite, ea=small, eb=small, da=offset, db=offset)
def test_mul_add_enclosure(a, b, ea, eb, da, db):
    """Any true values inside the input intervals land inside the output
    interval, for + and *."""
    with workprec(80):
        x, y = cr(a, ea), cr(b, eb)
        ta = mpf(a) + da * ea
        tb = mpf(b) + db * eb
        s = x + y
        assert fabs((ta + tb) - s.value) <= s.err
        p = x * y
        assert fabs(ta * tb - p.value) <= p.err


@settings(max_examples=200, deadline=None)
@given(a=st.floats(min_value=1e-3, max_value=1e6), ea=small, da=offset)
def test_log_exp_sqrt_div_enclosure(a, ea, da):
    with workprec(80):
        x = cr(a, ea * a)
        ta = mpf(a) + da * ea * a
        from mpmath import log, exp, sqrt
        if x.lo > 0:
            lg = x.log()
            assert fabs(log(ta) - lg.value) <= lg.err
            rt = x.sqrt()
            assert fabs(sqrt(ta) - rt.value) <= rt.err
            q = cr(1, 0) / x
            assert fabs(1 / ta - q.value) <= q.err
        e = (x * cr(1e-4, 0)).exp()
        assert fabs(exp(ta * mpf(1e-4)) - e.value) <= e.err


def test_log_of_zero_interval_raises():
    with pytest.raises(PrecisionError):
        cr(1e-10, 1e-9).log()


def test_div_by_zero_interval_raises():
    # a divisor interval that straddles 0, ends at 0 on either side, or is 0
    for divisor in (cr(1e-10, 1e-9), cr(1, 1), cr(-1, 1), cr(0, 0)):
        with pytest.raises(PrecisionError):
            cr(1, 0) / divisor


def test_certified_le_three_valued():
    assert certified_le(cr(1, 0.1), cr(2, 0.1)).verdict == PASS
    assert certified_le(cr(2, 0.1), cr(1, 0.1)).verdict == FAIL
    assert certified_le(cr(1, 0.5), cr(1.2, 0.5)).verdict == INDETERMINATE
    v = certified_le(cr(1, 0.1), cr(2, 0.1))
    assert fabs(v.margin - mpf("0.8")) < 1e-15 and v.ok



# ---------------------------------------------------------------------------
# the ball rules, checked exactly with Fractions over random operands: every
# radius is at least its rule in the module docstring, every ball holds the
# exact result at each corner of its operands, and the mpf ends lo and hi
# hold the ball

PRECS = (53, 80, 128)
REF_BITS = 120          # the extra bits of the sqrt, log and exp references


def scaled(man: int, exp: int) -> mpf:
    return mp.make_mpf(from_man_exp(man, exp))


def dyadic(q: Fraction) -> mpf:
    """The mpf of a dyadic rational, exactly."""
    return scaled(q.numerator, 1 - q.denominator.bit_length())


values = st.builds(scaled, st.integers(-(1 << 100), 1 << 100), st.integers(-90, 10))
radii = st.one_of(st.just(mpf(0)),
                  st.builds(scaled, st.integers(1, 1 << 62), st.integers(-160, -62)))
balls = st.builds(CertifiedReal, values, radii)
precs = st.sampled_from(PRECS)


def ulp(x: mpf, p: int) -> Fraction:
    """One ulp of x at p bits, 2^(exp + bc - p); 0 at x = 0."""
    _, man, exp, bc = x._mpf_
    return Fraction(2) ** (exp + bc - p) if man else Fraction(0)


def ends(x) -> tuple[Fraction, Fraction]:
    """The exact ends v - r and v + r of a ball."""
    v, r = F(x.value), F(x.err)
    return v - r, v + r


def corners(x) -> set[Fraction]:
    lo, hi = ends(x)
    return {lo, F(x.value), hi}


def holds(x, lo: Fraction, hi: Fraction | None = None) -> bool:
    """The ball x holds [lo, hi], and its mpf ends hold the ball (call at
    the precision of x's operation)."""
    a, b = ends(x)
    return a <= lo and (lo if hi is None else hi) <= b and F(x.lo) <= a and b <= F(x.hi)


def ref(fn, x: Fraction, p: int, rnd) -> Fraction:
    """The libmp function fn at the dyadic x, at p + REF_BITS bits."""
    return F(mp.make_mpf(fn(dyadic(x)._mpf_, p + REF_BITS, rnd)))


def ref_slack(y: Fraction, p: int, plus: int = 1) -> Fraction:
    """The assumed error of an mpf_log reference y, or with plus = 0 of an
    mpf_exp one."""
    return (abs(y) + plus) * Fraction(2) ** (4 - p - REF_BITS)


@settings(max_examples=300, deadline=None)
@given(x=balls, y=balls, p=precs)
def test_add_sub_mul_radii_follow_their_rules_upward(x, y, p):
    with workprec(p):
        outs = (x + y, x - y, x * y)
        for out, fn in zip(outs, (Fraction.__add__, Fraction.__sub__, Fraction.__mul__)):
            for a in corners(x):
                for b in corners(y):
                    assert holds(out, fn(a, b))
    ra, rb = F(x.err), F(y.err)
    add, sub, mul = outs
    assert F(add.err) >= ra + rb + ulp(add.value, p)
    assert F(sub.err) >= ra + rb + ulp(sub.value, p)
    assert F(mul.err) >= (abs(F(x.value)) * rb + abs(F(y.value)) * ra + ra * rb
                          + ulp(mul.value, p))


@settings(max_examples=300, deadline=None)
@given(x=balls, k=st.integers(-8, 8), p=precs)
def test_ldexp_shifts_both_parts_exactly(x, k, p):
    with workprec(p):
        out = x.ldexp(k)
        for t in corners(x):
            assert holds(out, t * Fraction(2) ** k)
    assert F(out.value) == F(x.value) * Fraction(2) ** k
    assert F(out.err) == F(x.err) * Fraction(2) ** k


# The @examples below are operands on which one radius rounding to nearest
# instead of upward is not absorbed by a later upward rounding, so the rule
# tests see it.

@settings(max_examples=300, deadline=None)
@given(x=balls, y=balls, p=precs)
@example(x=CertifiedReal(scaled(594790706548316707, -95), 0),
         y=CertifiedReal(scaled(549755813889, -36), scaled(1, -36)), p=53)
def test_div_radius_follows_its_rule_upward(x, y, p):
    b, rb = F(y.value), F(y.err)
    with workprec(p):
        if abs(b) <= rb:
            with pytest.raises(PrecisionError):
                x / y
            return
        q = x / y
        for s in corners(x):
            for t in corners(y):
                assert holds(q, s / t)
    rule = (F(x.err) + abs(F(x.value) / b) * rb) / (abs(b) - rb)
    assert F(q.err) >= rule + ulp(q.value, p)


@settings(max_examples=300, deadline=None)
@given(x=balls, p=precs)
@example(x=CertifiedReal(scaled(-18660150755041, -90), scaled(18135503019705, -80)), p=80)
@example(x=CertifiedReal(477713204224, scaled(466516801, -63)), p=80)
@example(x=CertifiedReal(scaled(810135831, -44), scaled(7447526374787219, -92)), p=53)
@example(x=CertifiedReal(scaled(1, -10), scaled(25151090201077, -80)), p=53)
def test_sqrt_radius_follows_its_rule_upward(x, p):
    lo, hi = ends(x)
    with workprec(p):
        if hi < 0:
            with pytest.raises(PrecisionError):
                x.sqrt()
            return
        s = x.sqrt()
        a, b = ends(s)
        assert F(s.lo) <= a and b <= F(s.hi)
    # the root of t is in [a, b] iff the squares of the ends hold t
    for t in corners(x):
        if t >= 0:
            assert (a <= 0 or a * a <= t) and b >= 0 and b * b >= t
    if lo > 0:
        rule = F(x.err) / (ref(mpf_sqrt, lo, p, round_ceiling)
                           + ref(mpf_sqrt, F(x.value), p, round_ceiling))
    else:
        rule = ref(mpf_sqrt, hi, p, round_floor)
    assert F(s.err) >= rule + ulp(s.value, p)


@settings(max_examples=300, deadline=None)
@given(x=balls, p=precs)
@example(x=CertifiedReal(scaled(8554377473165299, -47), scaled(30391487776649, -95)), p=80)
def test_log_radius_follows_its_rule_upward(x, p):
    lo, _ = ends(x)
    with workprec(p):
        if lo <= 0:
            with pytest.raises(PrecisionError):
                x.log()
            return
        out = x.log()
        for t in corners(x):
            y = ref(mpf_log, t, p, round_nearest)
            assert holds(out, y - ref_slack(y, p), y + ref_slack(y, p))
    v = F(out.value)
    assert F(out.err) >= F(x.err) / lo + (abs(v) + 1) * Fraction(2) ** (4 - p)


@settings(max_examples=300, deadline=None)
@given(x=st.builds(CertifiedReal, st.builds(scaled, st.integers(-(1 << 60), 1 << 60),
                                            st.integers(-60, -52)), radii), p=precs)
@example(x=CertifiedReal(232, scaled(710479499, -41)), p=80)
def test_exp_radius_follows_its_rule_upward(x, p):
    # |x| < 256: exp(hi) is far from overflow, and its 30-bit rounding of
    # hi (about 2^-30 |hi| relative) can exceed the 2^-26 allowance
    _, hi = ends(x)
    with workprec(p):
        out = x.exp()
        for t in corners(x):
            y = ref(mpf_exp, t, p, round_nearest)
            assert holds(out, y - ref_slack(y, p, 0), y + ref_slack(y, p, 0))
    top = ref(mpf_exp, hi, p, round_floor)
    top -= ref_slack(top, p, 0)
    v = F(out.value)
    assert F(out.err) >= abs(v) * Fraction(2) ** (4 - p) + top * F(x.err)


@settings(max_examples=300, deadline=None)
@given(x=values, ulps=st.sampled_from((1, 8, 64)), p=precs)
def test_rounded_allows_its_rule(x, ulps, p):
    with workprec(p):
        out = CertifiedReal.rounded(x, ulps)
        assert holds(out, F(x))
    v = F(out.value)
    assert F(out.err) >= (abs(v) + 1) * Fraction(2) ** (ulps.bit_length() + 1 - p)


@settings(max_examples=300, deadline=None)
@given(x=balls, y=balls, p=precs)
def test_certified_le_margin_is_rounded_down(x, y, p):
    with workprec(p):
        v = certified_le(x, y)
    exact = ends(y)[0] - ends(x)[1]
    assert F(v.margin) <= exact
    assert v.verdict != PASS or exact >= 0
    assert v.verdict != FAIL or ends(x)[0] > ends(y)[1]


def test_the_two_ulp_probes():
    # a radius sum rounded to nearest would drop the 2^-60; an interval end
    # rounded to nearest would move 1 -+ 2^-60 to 1 and pass
    one, near = CertifiedReal.exact(1), CertifiedReal(1, mpf(2) ** -60)
    with workprec(53):
        s = CertifiedReal(0, 1) + CertifiedReal(0, mpf(2) ** -60)
        assert F(s.err) > 1
        assert certified_le(one, near).verdict == INDETERMINATE
        assert certified_le(near, one).verdict == INDETERMINATE


infinite = st.builds(CertifiedReal, values, st.just(mpf("inf")))


@settings(max_examples=200, deadline=None)
@given(x=infinite, y=st.one_of(balls, infinite), p=precs)
@example(x=CertifiedReal(1, mpf("inf")), y=CertifiedReal.exact(2), p=53)
@example(x=CertifiedReal(1, mpf("inf")), y=CertifiedReal(0, 1), p=53)
@example(x=CertifiedReal(1, mpf("inf")), y=CertifiedReal.exact(0), p=53)
def test_an_infinite_radius_stays_infinite(x, y, p):
    # inf 0 is NaN in libmp; a NaN radius would pass certified_le.  Only an
    # exact 0 factor absorbs the infinite radius, into an exact 0
    with workprec(p):
        outs = [x + y, y + x, x - y, y - x, x * y, y * x, -x, x.abs(), x.ldexp(-3),
                x.sqrt(), x.exp()]
        if y.lo > 0 or y.hi < 0:
            outs.append(x / y)
        for bad in (lambda: y / x, x.log):
            with pytest.raises(PrecisionError):
                bad()
        zero = CertifiedReal.exact(0)
        for out in outs:
            if out.err == 0:
                assert y == zero and out == zero
                continue
            assert out.err == mpf("inf")
            for z in (zero, x, y):
                assert certified_le(out, z).verdict == INDETERMINATE
                assert certified_le(z, out).verdict == INDETERMINATE


def test_a_nan_margin_is_indeterminate():
    nan = certified._ball(CertifiedReal.exact(1)._v, fnan)
    assert certified_le(nan, CertifiedReal.exact(2)).verdict == INDETERMINATE


@settings(max_examples=200, deadline=None)
@given(re=values, im=values, err=radii, p=precs)
@example(re=mpf(1), im=mpf(1), err=mpf(0), p=53)
def test_complex_abs_holds_the_modulus(re, im, err, p):
    with workprec(p):
        m = CertifiedComplex(mpc(re, im), err).abs()
        a, b = ends(m)
        assert F(m.lo) <= a and b <= F(m.hi)
    # |z| = sqrt(n), n exact: the ends hold it iff their squares hold n
    # widened by err
    n = F(re) ** 2 + F(im) ** 2
    r = F(err)
    assert a <= 0 or (a + r) ** 2 <= n
    assert b - r >= 0 and (b - r) ** 2 >= n
    assert F(m.err) >= r + ulp(m.value, p)


def test_exact_keeps_every_bit_or_refuses():
    with workprec(53):
        assert F(CertifiedReal.exact(2 ** 60 + 1).value) == 2 ** 60 + 1
        with workprec(200):
            third = mpf(1) / 3
        x = CertifiedReal.exact(third)
        assert x.value._mpf_ == third._mpf_ and x.err == 0
        assert F(CertifiedReal.exact(Fraction(3, 8)).value) == Fraction(3, 8)
        assert F(CertifiedReal.exact(0.1).value) == Fraction(0.1)
        for bad in ("0.1", Fraction(1, 10), mpf("inf"), mpf("nan")):
            with pytest.raises(ValueError):
                CertifiedReal.exact(bad)


def test_point_bound_rhs_rounds_inexact_input_once():
    c = heights.EllipticCurveQ.from_coefficients(1, 1, 1, -10, -10, True, True)
    base = heights.point_bound_rhs(c, 0)
    # exact input keeps the error of the curve's terms; "0.1" and 1/10 are
    # rounded once and hold the exact tenth within the larger error
    assert heights.point_bound_rhs(c, Fraction(1, 4)) == heights.point_bound_rhs(c, 0.25)
    for tenth in ("0.1", Fraction(1, 10)):
        v = heights.point_bound_rhs(c, tenth)
        assert v.err > base.err
        assert abs(F(v.value) - F(base.value) - Fraction(1, 10)) <= F(v.err) + F(base.err)
