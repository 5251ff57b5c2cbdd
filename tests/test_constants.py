from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf, fabs, log, pi, workprec

from thetaheights import constants
from thetaheights.certified import CertifiedReal
from thetaheights.siegel import SiegelPoint


# frozen from a 200-bit evaluation of the printed formulas
FROZEN = {
    "m21": "-0.7535382993775679205899913",
    "M21": "1.994350773982980994017404",
    "c1": "3.807204007219689663924436",
    "c2": "65.26515916898701044318353",
    "Cmat1": "9.606818294355176360988746",
    "Cmat2": "89.81702863755886260884355",
    "C1_12": "5.782349708691665703099054",
    "C2_12": "16.44447828860978326539966",
    "C3_12": "3.380645135102871612851868",
    "hFlow21": "-23.7295186009898504588864",
    "bost1": "-0.9189385332046727417803297",
    "tilde2": "3.679020580678743855667292",
    "easier1_12": "33.27106466687737485202714",
    "clatt12": "162.9774670373880389029044",
    "signorm121": "6.273977430546508583113108",
}


def close(cert, frozen, tol=None):
    with workprec(220):
        if tol is None:
            tol = mpf(10) ** -20
        return fabs(cert.value - mpf(frozen)) < tol


def test_window_endpoints():
    assert close(constants.m_const(2, 1), FROZEN["m21"])
    assert close(constants.M_const(2, 1), FROZEN["M21"])


def test_m_decreasing_in_g_and_r():
    for r in (2, 4):
        vals = [constants.m_const(r, g).value for g in range(1, 5)]
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
    assert constants.m_const(4, 1).value < constants.m_const(2, 1).value


def test_window_ordering_grid():
    for g in range(1, 6):
        for r in (2, 4, 6, 8):
            assert constants.m_const(r, g).value < constants.M_const(r, g).value


def test_c_g_values_and_growth():
    assert close(constants.c_g(1), FROZEN["c1"])
    assert close(constants.c_g(2), FROZEN["c2"])
    # log c(g) is dominated by the (g^4/4) log 2 term
    with workprec(300):
        g = 12
        ratio = constants.c_g(g, 256).log().value / (mpf(g) ** 4 / 4 * log(2))
    assert 0.9 < ratio < 1.2


def test_matrix_lemma_constant():
    assert close(constants.C_matrix(1), FROZEN["Cmat1"])
    assert close(constants.C_matrix(2), FROZEN["Cmat2"])
    with workprec(96):
        ref = 16 / pi * (1 + 8 * log(8))
    assert fabs(constants.C_matrix(2).value - ref) < mpf(10) ** -20
    assert all(constants.C_matrix(g).value > 0 for g in range(1, 8))


def test_corollary_constants():
    assert close(constants.C1(1, 2), FROZEN["C1_12"])
    assert close(constants.C2(1, 2), FROZEN["C2_12"])
    assert close(constants.C3(1, 2), FROZEN["C3_12"])
    # C3 lacks exactly the matrix-lemma term of C1
    with workprec(200):
        diff = constants.C1(1, 2).value - constants.C3(1, 2).value
        ref = 2 / pi * (1 + 2 * log(4))
        assert fabs(diff - ref) < mpf(10) ** -20


def test_easier_constants_dominate_grid():
    rep = constants.easier_constants(1, 2)
    assert close(rep.easier_c1, FROZEN["easier1_12"])
    for g in range(1, 6):
        for r in (2, 4, 6, 8):
            rep = constants.easier_constants(g, r)
            assert rep.dominates_c1 and rep.dominates_c2 and rep.dominates_c3


def test_height_lower_bounds():
    assert close(constants.hF_lower(2, 1), FROZEN["hFlow21"], mpf(10) ** -18)
    assert close(constants.bost_lower(1), FROZEN["bost1"])
    with workprec(200):
        assert fabs(constants.bost_lower(2).value + log(2 * pi)) < mpf(10) ** -20
    assert all(constants.bost_lower(g).value < 0 for g in range(1, 6))
    # Bost is the sharper bound at g = 1
    assert constants.bost_lower(1).value > constants.hF_lower(2, 1).value
    vals = [constants.hF_lower(2, g).value for g in range(1, 5)]
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


def test_tilde_c():
    assert close(constants.tilde_c(2), FROZEN["tilde2"])
    with pytest.raises(ValueError):
        constants.tilde_c(mpf("1.99"))
    for c in (2, 3, 10, 100, 1000):
        assert constants.tilde_c(c).value >= c


def test_min_bound_lemma_examples():
    assert constants.min_bound_lemma_check(1, 1, 1, 1)
    assert constants.min_bound_lemma_check(5, 4, 2, 5)
    with pytest.raises(ValueError):
        constants.min_bound_lemma_check(5, 4, 2, 6)  # d > a
    with pytest.raises(ValueError):
        constants.min_bound_lemma_check(100, 1, Fraction(1, 100), 1)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=2, max_value=500))
def test_tilde_c_at_least_c(c):
    assert constants.tilde_c(c).value >= mpf(c)


def test_breve_c_branches():
    # log(2 c2) ~ 46 052 beats the other branch's log ~ 40 728 at g = 2
    huge = constants.breve_c(2, 1, mpf(10) ** 20000)
    with workprec(96):
        assert fabs(huge.log_value.value - (20000 * log(10) + log(2))) < mpf("1e-10")
    main = constants.breve_c(2, 1, 1)
    # dominated by the (12^4 + g)^(2^12) factor
    with workprec(96):
        lead = 2 ** 12 * log(mpf(12) ** 4 + 2)
        assert main.log_value.value > lead
        assert main.log_value.value < lead * mpf("1.01")
    logs = [constants.breve_c(g, 1, 1).log_value.value for g in range(1, 5)]
    assert all(logs[i + 1] > logs[i] for i in range(len(logs) - 1))


def test_c_lattice_value():
    assert close(constants.c_lattice(1, 2), FROZEN["clatt12"], mpf(10) ** -18)
    with workprec(200):
        ref = 20 + 8 * constants.C2(1, 2, 128).value + 4 * pi - log(pi)
    assert fabs(constants.c_lattice(1, 2).value - ref) < mpf(10) ** -18
    assert constants.c_lattice(2, 2).value > 0
    corollary_factor = 1 + 2 * constants.c_lattice(1, 2).value
    assert corollary_factor > 300


def test_sigma_norm_log_bound():
    assert close(constants.sigma_norm_log_bound(1, 2, 1), FROZEN["signorm121"],
                 mpf(10) ** -18)
    v0 = constants.sigma_norm_log_bound(1, 2, 0).value
    v1 = constants.sigma_norm_log_bound(1, 2, 1).value
    v9 = constants.sigma_norm_log_bound(1, 2, 9).value
    with workprec(96):
        assert fabs(v0 / log(2) - v1 / log(3)) < mpf(10) ** -18
        assert fabs(v9 / log(11) - v1 / log(3)) < mpf(10) ** -18
    assert v0 < v1 < v9
    with pytest.raises(ValueError):
        constants.sigma_norm_log_bound(1, 2, -1)


def test_sigma_norm_log_bound_takes_h_theta_at_its_own_precision():
    # a non-dyadic h_theta is rounded inside the working precision, so the
    # ball encloses the 400-bit value and does not depend on the caller's
    # mp.prec; a CertifiedReal h_theta carries its error through
    with workprec(400):
        lattice = 2 * (-2 * log(pi) + log(2) + 4 * pi + 4 * log(2))     # g = r = 2
    for h in (Fraction(1, 3), "0.1"):
        outs = []
        for p in (53, 300):
            with workprec(p):
                outs.append(constants.sigma_norm_log_bound(2, 2, h))
        assert outs[0] == outs[1], h
        with workprec(400):
            ref = lattice / 2 * log(2 + (mpf(1) / 3 if h == Fraction(1, 3) else mpf(h)))
            assert fabs(outs[0].value - ref) <= outs[0].err, h
    with workprec(200):
        third = CertifiedReal(mpf(1) / 3, mpf(2) ** -150)
    v = constants.sigma_norm_log_bound(2, 2, third)
    with workprec(400):
        assert fabs(v.value - lattice / 2 * log(2 + mpf(1) / 3)) <= v.err
    assert v.err > mpf(2) ** -150


def test_modified_faltings_offset():
    from mpmath import mpc
    tau_i = SiegelPoint.from_complex(mpc(0, 1))
    tau_2i = SiegelPoint.from_complex(mpc(0, 2))
    assert fabs(constants.modified_faltings_offset([tau_i]).value) < mpf(10) ** -25
    v = constants.modified_faltings_offset([tau_2i])
    v4 = constants.modified_faltings_offset([tau_i], deg_isogeny=4)
    with workprec(200):
        assert fabs(v.value - log(2) / 2) < mpf(10) ** -25
        assert fabs(v4.value - log(2)) < mpf(10) ** -25
    # the degree is a positive int: no float and no bool
    for deg in (2.5, True, 0, 2 ** 0.5):
        with pytest.raises(ValueError):
            constants.modified_faltings_offset([tau_i], deg_isogeny=deg)


def test_precision_refinement_agreement():
    for fn in (lambda p: constants.m_const(2, 1, p),
               lambda p: constants.C2(2, 4, p),
               lambda p: constants.c_lattice(2, 2, p),
               lambda p: constants.tilde_c(7, p)):
        lo = fn(64)
        hi = fn(192)
        assert fabs(lo.value - hi.value) <= lo.err + hi.err


def test_table_and_grid_cap():
    tab = constants.table(1, 2)
    assert set(tab.formulas) >= set(tab.entries) - {"breve_c_log"}
    assert close(tab.entries["m"], FROZEN["m21"], mpf(10) ** -18)
    with pytest.raises(ValueError):
        constants.table(6, 2)
    with pytest.raises(ValueError):
        constants.table(1, 10)
    with pytest.raises(ValueError):
        constants.m_const(3, 1)
    with pytest.raises(ValueError):
        constants.c_g(0)


@pytest.mark.parametrize("fill, read", [(53, 300), (300, 53)])
@pytest.mark.parametrize("fn, args", [
    (constants.m_const, (2, 1, 96)),
    (constants.M_const, (2, 1, 96)),
    (constants.c_g, (2, 96)),
    (constants.C_matrix, (1, 96)),
    (constants.C1, (1, 2, 96)),
    (constants.C2, (1, 2, 96)),
    (constants.C3, (1, 2, 96)),
    (constants.hF_lower, (2, 1, 96)),
    (constants.bost_lower, (1, 96)),
], ids=["m_const", "M_const", "c_g", "C_matrix", "C1", "C2", "C3", "hF_lower",
        "bost_lower"])
def test_cached_constants_do_not_depend_on_the_callers_precision(fn, args, fill, read):
    # each constant runs under its own workprec, so a value cached at one
    # global precision is bitwise the value computed afresh at another
    fn.cache_clear()
    with workprec(fill):
        first = fn(*args)
    with workprec(read):
        cached = fn(*args)
        fresh = fn.__wrapped__(*args)
    assert cached is first
    assert cached.value._mpf_ == fresh.value._mpf_
    assert cached.err._mpf_ == fresh.err._mpf_


def test_table_forms_each_composite_constant_once():
    # the dominance flags, the entries and c_lattice all read C1, C2 and C3
    composites = (constants.C1, constants.C2, constants.C3)
    for fn in composites:
        fn.cache_clear()
    constants.table(2, 4)
    assert [fn.cache_info().misses for fn in composites] == [1, 1, 1]


@pytest.mark.parametrize("g", range(1, constants.TABLE_MAX_G + 1))
def test_composite_constants_are_their_compositions_on_the_table_grid(g):
    # C1 - C3 = C_matrix/4, C2 = tilde_c(C1) and C3 - M = (1/4) r^(2g) log r^(2g),
    # each within the certified errors of the constants involved
    for r in range(2, constants.TABLE_MAX_R + 1, 2):
        e = constants.table(g, r).entries
        c1, c2, c3 = e["C1"], e["C2"], e["C3"]
        with workprec(400):
            c = c1.value
            rg = mpf(r) ** (2 * g)
            checks = [
                (c1.value - c3.value, e["C_matrix"].value / 4,
                 c1.err + c3.err + e["C_matrix"].err / 4),
                (c2.value, c * log(6 + 2 * c * log(2 * c) - 2 * c) / log(3), c2.err),
                (c3.value - e["M"].value, rg * log(rg) / 4, c3.err + e["M"].err),
            ]
            for got, ref, err in checks:
                assert fabs(got - ref) <= err, (g, r)
        assert constants.C2(g, r).value == constants.tilde_c(c1).value
