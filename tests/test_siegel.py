from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc, fabs, workprec

from thetaheights import sampling
from thetaheights.siegel import (SiegelPoint, SymplecticMatrix, act,
                                 compose_word, default_generators, default_tol,
                                 fundamental_domain_report, lll_gram,
                                 reduce_g1, reduce_heuristic,
                                 reduced_basis_change, sl2_s, sl2_t, validate)

from oracles import cholesky_min_pivot

I = mpc(0, 1)


def sp(*rows):
    return SiegelPoint.from_rows(list(rows))


def test_validate_identity_g2():
    rep = validate(sp([I, 0], [0, I]))
    assert rep.valid and rep.min_pivot == 1


def test_validate_indefinite_rejected():
    rep = validate(sp([I, 0], [0, -I]))
    assert not rep.valid


def test_validate_pivot_matches_cholesky_oracle():
    tau = sp([I, mpc(0.3, 0.1)], [mpc(0.3, 0.1), 2 * I])
    rep = validate(tau)
    assert rep.valid
    oracle = cholesky_min_pivot([[1, 0.1], [0.1, 2]])
    assert fabs(rep.min_pivot - oracle) < mpf(2) ** -40


def test_validate_asymmetric_reported():
    rep = validate(sp([I, mpc(0.3, 1)], [mpc(0.2, 1), 2 * I]))
    assert not rep.valid and rep.symmetry_defect > mpf("0.09")


def test_validate_nonfinite_rejected():
    with pytest.raises(ValueError):
        validate(sp([mpc(mpf("inf"), 1)]))


def test_act_identity():
    tau = sp([mpc(0.2, 1.6)])
    out = act(SymplecticMatrix.identity(1), tau)
    assert fabs(out.tau_complex() - tau.tau_complex()) < mpf(2) ** -100


def test_act_inversion_fixes_i():
    out = act(sl2_s(), sp([I]))
    assert fabs(out.tau_complex() - I) < mpf(2) ** -100


def test_act_translation():
    # decimal inputs at 200 bits: the exact translate of the double 0.2 is
    # 5.6e-17 away from the double 1.2
    with workprec(200):
        tau = sp([mpc("0.2", "1.6")])
    out = act(sl2_t(1), tau)
    with workprec(200):
        assert fabs(out.tau_complex() - mpc("1.2", "1.6")) < mpf(2) ** -100


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 2))
def test_act_round_trip_and_validity(seed, g):
    rng = sampling.substream(seed, "siegel-prop")
    tau = sampling.random_siegel_point(rng, g)
    for gamma in default_generators(g):
        out = act(gamma, tau, 128)
        assert validate(out, 128).valid
        back = act(gamma.inverse(), out, 128)
        for i in range(g):
            for j in range(g):
                assert fabs(back.entry(i, j) - tau.entry(i, j)) < 10 * default_tol(128)


def test_symplectic_relations():
    for g in (1, 2, 3):
        for gamma in default_generators(g):
            assert gamma.is_symplectic()
            assert gamma.compose(gamma.inverse()) == SymplecticMatrix.identity(g)


def test_translation_block_must_be_symmetric():
    with pytest.raises(ValueError):
        SymplecticMatrix.translation(((0, 1), (0, 0)))


def test_report_reduced_point_passes():
    assert fundamental_domain_report(sp([mpc(0.2, 1.6)])).all_ok


def test_report_s2_failure():
    rep = fundamental_domain_report(sp([mpc(0.7, 0.4)]))
    assert not rep.s2_ok


def test_report_identity_g2_passes():
    rep = fundamental_domain_report(sp([I, 0], [0, I]))
    assert rep.all_ok and rep.s3_vectors_checked > 0


def test_reduce_g1_hand_case():
    # decimal inputs at 200 bits: the image of the double 0.7 + 0.4i lies
    # 2e-16 away from 0.2 + 1.6i
    with workprec(200):
        tau = sp([mpc("0.7", "0.4")])
    res = reduce_g1(tau)
    with workprec(200):
        assert fabs(res.reduced.tau_complex() - mpc("0.2", "1.6")) < mpf(2) ** -90
    assert res.certificate.word == (("T", -1), ("S",), ("T", -1))
    expected = sl2_t(-1).compose(sl2_s()).compose(sl2_t(-1))
    assert res.gamma == expected


def test_entry_reads_the_stored_point_at_any_global_precision():
    with workprec(200):
        tau = sp([mpc("0.7", "0.4")])
    reduced = reduce_g1(tau).reduced
    saved = mp.prec
    try:
        mp.prec = 53
        at_53 = reduced.tau_complex()
        mp.prec = 200
        at_200 = reduced.tau_complex()
    finally:
        mp.prec = saved
    assert at_53 == at_200
    assert at_53.real == reduced.re[0][0] and at_53.imag == reduced.im[0][0]


def test_reduce_g1_pure_translation():
    res = reduce_g1(sp([mpc(2, 2)]))
    assert fabs(res.reduced.tau_complex() - mpc(0, 2)) < mpf(2) ** -90


def test_reduce_g1_fixpoint():
    res = reduce_g1(sp([mpc(0.2, 1.6)]))
    assert res.gamma == SymplecticMatrix.identity(1)
    assert res.certificate.word == ()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_reduce_g1_round_trip(seed):
    rng = sampling.substream(seed, "red-prop")
    tau = sampling.random_siegel_point(rng, 1)
    res = reduce_g1(tau, 128)
    cert = res.certificate
    # word recomposes to gamma exactly, in integer arithmetic
    assert compose_word(cert.word) == res.gamma
    assert cert.action_residual < 10 * default_tol(128)
    z = res.reduced.tau_complex()
    assert fabs(z.real) <= mpf("0.5")
    assert fabs(z) >= 1 - default_tol(128)
    hist = cert.det_history
    assert all(hist[i + 1] >= hist[i] - default_tol(128) for i in range(len(hist) - 1))
    assert res.reduced.det_im() >= tau.det_im() - default_tol(128)


def test_heuristic_matches_g1_reducer():
    for k in range(40):
        rng = sampling.substream(7, f"red:{k}")
        tau = sampling.random_siegel_point(rng, 1)
        a = reduce_g1(tau, 128)
        b = reduce_heuristic(tau, prec=128)
        assert fabs(a.reduced.det_im() - b.reduced.det_im()) < mpf(2) ** -40
        assert b.certificate.report.all_ok


def test_heuristic_fixpoint():
    tau = sp([mpc(0.2, 1.6)])
    res = reduce_heuristic(tau, prec=128)
    assert res.gamma == SymplecticMatrix.identity(1)
    assert fabs(res.reduced.tau_complex() - tau.tau_complex()) == 0


def test_heuristic_translation_only_g2():
    tau = sp([mpc(0.6, 2), 0], [0, mpc(0.6, 3)])
    res = reduce_heuristic(tau, prec=128)
    for i in range(2):
        assert fabs(res.reduced.re[i][i] + mpf("0.4")) < mpf(2) ** -60
    # the diagonal gets sorted ascending; the imaginary parts are unchanged
    assert sorted([float(res.reduced.im[i][i]) for i in range(2)]) == [2.0, 3.0]
    assert res.reduced.im[0][0] == 2


def test_heuristic_g2_certificates():
    for k in range(15):
        rng = sampling.substream(11, f"h2:{k}")
        tau = sampling.random_siegel_point(rng, 2)
        res = reduce_heuristic(tau, prec=96)
        rep = res.certificate.report
        assert rep.s2_ok
        assert max(abs(x) for row in res.reduced.re_fractions() for x in row) \
            <= Fraction(1, 2)
        hist = res.certificate.det_history
        assert all(hist[i + 1] >= hist[i] - mpf(2) ** -40
                   for i in range(len(hist) - 1))
        assert res.certificate.action_residual < 10 * default_tol(96)


def test_lll_gram_reduces():
    y = ((Fraction(1), Fraction(9, 10)), (Fraction(9, 10), Fraction(1)))
    u = lll_gram(y)
    assert u != ((1, 0), (0, 1))
    v = reduced_basis_change(y)
    # unimodular and size-reduced output: |y12| <= y11/2 <= y22/2
    from thetaheights.siegel import _congruence_gram
    yy = _congruence_gram(y, v)
    assert abs(yy[0][1]) * 2 <= yy[0][0] <= yy[1][1]
    assert yy[0][1] >= 0
