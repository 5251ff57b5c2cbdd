import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, fabs, workprec

from thetaheights.certified import (CertifiedReal, PrecisionError, certified_le,
                                    PASS, FAIL, INDETERMINATE)


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
