import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc, fabs, sqrt, workprec

from thetaheights import exactla, sampling, siegel
from thetaheights.exactla import mpf_to_fraction
from thetaheights.siegel import (SiegelPoint, SymplecticMatrix, act,
                                 compose_word, default_generators,
                                 fundamental_domain_report, lll_gram,
                                 reduce_g1, reduce_heuristic,
                                 reduced_basis_change, sl2_s)

from oracles import (act_exact, act_mp, frac_det, frac_inverse, frac_psd,
                     ldl_pivots, lll_gram_frac, real_form)

I = mpc(0, 1)


def sp(*rows):
    return SiegelPoint.from_rows(list(rows))


def fraction_parts(tau):
    """(Re tau, Im tau) as rows of Fractions, read off the integer form."""
    x, y, s = tau.int_form
    return tuple(tuple(tuple(Fraction(v, 1 << s) for v in row) for row in m)
                 for m in (x, y))


def test_identity_g2_is_positive_definite():
    assert sp([I, 0], [0, I]).y_positive_definite


def test_indefinite_imaginary_part_is_not_positive_definite():
    assert not sp([I, 0], [0, -I]).y_positive_definite


def test_asymmetric_tau_is_refused_at_construction():
    # no public function is handed tau != tau^T: theta used to return the
    # value of the upper entry in both places, and reduce_heuristic to
    # report a converged, all_ok point
    for upper, lower in ((mpc(0.3, 1), mpc(0.2, 1)),
                         (mpc(0.1, 0.2), mpc(0.3, 0.2)),    # Re tau12 != Re tau21
                         (mpc(0.1, 0.2), mpc(0.1, 0.9))):   # Im tau12 != Im tau21
        with pytest.raises(ValueError, match="tau must be symmetric"):
            sp([I, upper], [lower, 2 * I])
        with pytest.raises(ValueError, match="tau must be symmetric"):
            SiegelPoint(2, ((mpf(0), upper.real), (lower.real, mpf(0))),
                        ((mpf(1), upper.imag), (lower.imag, mpf(2))))


@pytest.mark.parametrize("make, message", [
    (lambda: SiegelPoint.from_rows([]), "g must be >= 1"),
    (lambda: SiegelPoint(0, (), ()), "g must be >= 1"),
    (lambda: sp([I, 0], [0]), "2 x 2"),                    # ragged
    (lambda: sp([I, 0]), "1 x 1"),                         # not square
    (lambda: SiegelPoint(2, ((mpf(0), mpf(0)), (mpf(0), mpf(0))),
                         ((mpf(1), mpf(0)), (mpf(0),))), "2 x 2"),  # ragged im
    (lambda: SiegelPoint(1, ((mpf(0),),), ((mpf(1),), (mpf(1),))), "1 x 1"),
    (lambda: sp([mpc(mpf("inf"), 1)]), "non-finite"),
    (lambda: sp([mpc(0, mpf("-inf"))]), "non-finite"),
    (lambda: sp([I, mpc(mpf("nan"), 0)], [mpc(mpf("nan"), 0), I]), "non-finite"),
], ids=["from_rows([])", "g=0", "ragged rows", "non-square", "ragged im",
        "im too tall", "inf re", "-inf im", "nan off-diagonal"])
def test_siegel_point_is_checked_at_construction(make, message):
    # g < 1, a part that is not g x g and a non-finite entry are refused
    # where the point is made, with a ValueError that names the fault
    with pytest.raises(ValueError, match=message):
        make()


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
    out = act(SymplecticMatrix.translation(((1,),)), tau)
    with workprec(200):
        assert fabs(out.tau_complex() - mpc("1.2", "1.6")) < mpf(2) ** -100


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 2))
def test_act_round_trip_and_validity(seed, g):
    rng = sampling.substream(seed, "siegel-prop")
    tau = sampling.random_siegel_point(rng, g)
    for gamma in default_generators(g):
        out = act(gamma, tau, 128)
        assert out.y_positive_definite
        back = act(gamma.inverse(), out, 128)
        for i in range(g):
            for j in range(g):
                assert fabs(back.entry(i, j) - tau.entry(i, j)) < 10 * mpf(2) ** -64


def _det_neutral_generators(g):
    """The unit translations and the adjacent basis swaps of the classical
    S.1 list: lam = 0, so each keeps det Im tau."""
    gens = []
    for k in range(g):
        for l in range(k, g):
            gens.append(SymplecticMatrix.translation(
                tuple(tuple(int({i, j} == {k, l}) for j in range(g)) for i in range(g))))
    for k in range(g - 1):
        p = [[int(i == j) for j in range(g)] for i in range(g)]
        p[k][k] = p[k + 1][k + 1] = 0
        p[k][k + 1] = p[k + 1][k] = 1
        gens.append(SymplecticMatrix.basis_change(tuple(map(tuple, p))))
    return gens


def _classical_generators(g):
    """``default_generators`` and the det-neutral moves, so that ``act`` is
    tested on translations and basis changes too."""
    return list(default_generators(g)) + _det_neutral_generators(g)


def _act_points(g):
    """Random points with 53-bit entries, and their images under the
    inversion at 200 bits, whose translates need rounding at 160 bits."""
    for k in range(4):
        tau = sampling.random_siegel_point(sampling.substream(5, f"act:{g}:{k}"), g)
        yield tau
        yield act(SymplecticMatrix.inversion(g), tau, 200)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_act_is_exact_then_rounded_once(g):
    for tau in _act_points(g):
        rows = [[tau.entry(i, j) for j in range(g)] for i in range(g)]
        for gamma in _classical_generators(g):
            out = act(gamma, tau, 128)
            oracle = act_mp(gamma, rows)
            with workprec(160):
                for i in range(g):
                    for j in range(g):
                        assert out.re[i][j] == +oracle[i][j].real
                        assert out.im[i][j] == +oracle[i][j].imag
            saved = mp.prec
            try:
                mp.prec = 53
                at_53 = act(gamma, tau, 128)
                mp.prec = 300
                at_300 = act(gamma, tau, 128)
            finally:
                mp.prec = saved
            assert ([x._mpf_ for part in (at_53.re, at_53.im) for row in part for x in row]
                    == [x._mpf_ for part in (at_300.re, at_300.im) for row in part for x in row])
            # the S.1 identity over Z[i] against the real form over Q
            x, y = fraction_parts(tau)
            dr, di = siegel._denominator_det(gamma, tau)
            abs2 = Fraction(dr * dr + di * di, 4 ** (g * tau.int_form[2]))
            assert abs2 == frac_det(real_form(gamma, x, y))
            _, im = act_exact(gamma, x, y)
            assert tau.y_det / abs2 == frac_det(im)


def test_gaussian_bareiss_det_and_adjugate():
    # against the Leibniz sum, on random Gaussian-integer matrices with
    # zeros, so that pivot rows get swapped and singular ones occur
    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def leibniz(m):
        n, total = len(m), (0, 0)
        for perm in itertools.permutations(range(n)):
            inv = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            term = (-1 if inv % 2 else 1, 0)
            for i in range(n):
                term = mul(term, m[i][perm[i]])
            total = (total[0] + term[0], total[1] + term[1])
        return total

    rng = random.Random(5)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        m = [[(0, 0) if rng.random() < 0.3 else (rng.randint(-9, 9), rng.randint(-9, 9))
              for _ in range(n)] for _ in range(n)]
        d = exactla.gauss_det(m)
        assert d == leibniz(m)
        if d == (0, 0):
            singular += 1
            with pytest.raises(ZeroDivisionError):
                exactla.gauss_adjugate(m)
            continue
        dd, adj = exactla.gauss_adjugate(m)
        assert dd in (d, (-d[0], -d[1]))
        for i in range(n):
            for j in range(n):
                terms = [mul(adj[i][k], m[k][j]) for k in range(n)]
                assert (sum(t[0] for t in terms), sum(t[1] for t in terms)) \
                    == (dd if i == j else (0, 0))
    assert singular > 0


def _minors_and_adjugate_over_gaussians(y):
    """``exactla.minors_and_adjugate`` as the Gauss-Jordan pass of
    ``exactla._bareiss_step`` over Z[i] on (v, 0) pairs."""
    n = len(y)
    a = [[(v, 0) for v in row] + [(int(i == j), 0) for j in range(n)]
         for i, row in enumerate(y)]
    minors = []
    prev = (1, 0)
    for k in range(n):
        minors.append(a[k][k][0])
        if minors[-1] <= 0:
            return tuple(minors), None
        exactla._bareiss_step(a[:k] + a[k + 1:], a[k], k, prev, 0)
        prev = a[k][k]
    return tuple(minors), tuple(tuple(v for v, _ in row[n:]) for row in a)


def test_real_elimination_is_the_gaussian_one():
    # the elimination of a real symmetric Y runs over Z and gives the
    # minors and adjugate of the pass over Z[i], bit for bit: seeded
    # definite and indefinite matrices at g = 1..5, early stops at a
    # negative and at a zero leading minor, and the probes
    rng = random.Random(1801)
    cases = [((0,),), ((-3,),), ((0, 1), (1, 1)), ((2, 1), (1, -5)),
             ((1, 1, 0), (1, 1, 0), (0, 0, 1)), ((4, 2, 0), (2, 1, 3), (0, 3, 1))]
    for g in range(1, 6):
        for _ in range(40):
            b = [[rng.randint(-9, 9) for _ in range(g)] for _ in range(g)]
            shift = rng.choice((0, 0, -40, rng.randint(-9, 9)))
            cases.append(tuple(tuple(sum(b[k][i] * b[k][j] for k in range(g))
                                     + shift * (i == j) for j in range(g))
                               for i in range(g)))
    stops = {"definite": 0, "negative": 0, "zero": 0}
    for y in cases:
        minors, adj = exactla.minors_and_adjugate(y)
        assert (minors, adj) == _minors_and_adjugate_over_gaussians(y), y
        assert all(type(v) is int for row in adj or () for v in row)
        stops["definite" if adj else "negative" if minors[-1] < 0 else "zero"] += 1
    assert min(stops.values()) > 0, stops


def test_reduce_heuristic_acts_only_with_chosen_moves(monkeypatch):
    calls = []
    real_act = siegel.act

    def counting_act(*args, **kwargs):
        calls.append(args[0])
        return real_act(*args, **kwargs)

    monkeypatch.setattr(siegel, "act", counting_act)
    generator_moves = 0
    for k in range(6):
        tau = sampling.random_siegel_point(sampling.substream(11, f"h2:{k}"), 2)
        calls.clear()
        res = reduce_heuristic(tau, prec=96)
        word = res.certificate.word
        generator_moves += sum(move[0] == "G" for move in word)
        # one act per generator move, one for the residual; translations
        # and basis changes are exact integer-form moves
        assert len(calls) == sum(move[0] == "G" for move in word) + 1
        calls.clear()
        fundamental_domain_report(res.reduced, prec=96)
        assert calls == []
    assert generator_moves > 0


def test_generators_of_another_genus_are_refused():
    # checked once at the entry, also for a generator that S.1 would not
    # reach, with the wording of ``act``
    tau = sampling.random_siegel_point(sampling.substream(11, "h2:0"), 2)
    for gens in ([SymplecticMatrix.inversion(1)],
                 [SymplecticMatrix.inversion(2), SymplecticMatrix.inversion(3)]):
        for call in (fundamental_domain_report, reduce_heuristic):
            with pytest.raises(ValueError, match="dimension mismatch"):
                call(tau, gens)


def test_a_translation_keeps_every_bit_of_the_point(monkeypatch):
    # (sqrt 5 - 1)/2 + 3 + i/3 at 300 bits, reduced at prec 96: the B move
    # is exact, so the inversion acts on tau - 4 with all 300 bits of Im tau
    # (a translation by ``act`` would round it to prec + 32 = 128 bits)
    with workprec(300):
        tau = sp([mpc((sqrt(5) - 1) / 2 + 3, mpf(1) / 3)])
    assert tau.im[0][0]._mpf_[3] > 128
    inverted = []
    real_act = siegel.act

    def recording_act(gamma, point, *args, **kwargs):
        if gamma == sl2_s():
            inverted.append(point)
        return real_act(gamma, point, *args, **kwargs)

    monkeypatch.setattr(siegel, "act", recording_act)
    cert = reduce_heuristic(tau, prec=96).certificate
    assert cert.word[:2] == (("B", ((-4,),)), ("G", sl2_s()))
    after_b = inverted[0]
    assert after_b.im[0][0]._mpf_ == tau.im[0][0]._mpf_
    assert mpf_to_fraction(after_b.re[0][0]) == mpf_to_fraction(tau.re[0][0]) - 4
    assert cert.det_history[1] == cert.det_history[0]


@pytest.mark.parametrize("g, count", [(2, 16), (3, 6)])
def test_translations_and_basis_changes_are_exact_moves(g, count, monkeypatch):
    # every point the loop moves to, replayed over Q: the point after a B or
    # U move is the exact image (the Fraction action of ``oracles``) of the
    # point before it, and its det_history entry repeats the one before
    made = []
    real_from_int_form, real_act = siegel._from_int_form, siegel.act

    def recording(make):
        def wrapped(*args, **kwargs):
            made.append(make(*args, **kwargs))
            return made[-1]
        return wrapped

    monkeypatch.setattr(siegel, "_from_int_form", recording(real_from_int_form))
    monkeypatch.setattr(siegel, "act", recording(real_act))
    exact = {"B": 0, "U": 0}
    for k in range(count):
        tau = sampling.random_siegel_point(sampling.substream(37, f"moves:{g}:{k}"), g)
        made.clear()
        res = reduce_heuristic(tau, prec=96)
        cert = res.certificate
        points = made[:-1]   # the last act is the certificate's residual
        assert len(points) == len(cert.word)
        prev = tau
        for i, (move, point) in enumerate(zip(cert.word, points)):
            if move[0] != "G":
                gamma = (SymplecticMatrix.translation(move[1]) if move[0] == "B"
                         else SymplecticMatrix.basis_change(move[1]))
                re, im = act_exact(gamma, *fraction_parts(prev))
                assert fraction_parts(point) == (tuple(map(tuple, re)),
                                                 tuple(map(tuple, im)))
                assert cert.det_history[i + 1]._mpf_ == cert.det_history[i]._mpf_
                exact[move[0]] += 1
            prev = point
        assert prev is res.reduced
    assert min(exact.values()) > 0, exact


@pytest.mark.parametrize("g, count", [(2, 40), (3, 12)])
def test_a_moved_point_carries_its_derived_int_form(g, count, monkeypatch):
    # the point of every B and U move carries (X, Y, s) as its int_form, and
    # that is the form derived afresh from its stored entries, s the least
    # shift included
    made = []
    real = siegel._from_int_form
    monkeypatch.setattr(siegel, "_from_int_form",
                        lambda *args: made.append((args, real(*args))) or made[-1][1])
    for k in range(count):
        tau = sampling.random_siegel_point(sampling.substream(38, f"forms:{g}:{k}"), g)
        reduce_heuristic(tau, prec=96)
    assert len(made) >= count
    shifted = 0
    for args, point in made:
        assert point.__dict__["int_form"] == args
        assert SiegelPoint(g, point.re, point.im).int_form == args
        shifted += args[2] > 0
    assert shifted


def test_symplectic_matrix_rejects_bad_input():
    ide, zero = ((1, 0), (0, 1)), ((0, 0), (0, 0))
    with pytest.raises(ValueError, match="not symplectic"):
        SymplecticMatrix(2, ((2, 0), (0, 1)), zero, zero, ide)
    with pytest.raises(ValueError, match="2 x 2"):
        SymplecticMatrix(2, ((1,),), zero, zero, ide)
    with pytest.raises(ValueError, match="2 x 2"):
        SymplecticMatrix(2, ide, zero, ((0, 0),), ide)
    # a basis change needs det u = +-1: singular, det 3 and det 2 are refused
    for u in (((1, 2), (2, 4)), ((2, 1), (1, 2)), ((2,),)):
        with pytest.raises(ValueError, match="matrix is not unimodular"):
            SymplecticMatrix.basis_change(u)


def test_symplectic_relations():
    for g in (1, 2, 3):
        for gamma in _classical_generators(g):
            assert gamma.is_symplectic()
            assert gamma.compose(gamma.inverse()) == SymplecticMatrix.identity(g)


def test_basis_change_inverts_unimodular_matrices():
    rng = random.Random(11)
    for _ in range(200):
        g = rng.randint(1, 4)
        u = [list(row) for row in sampling.random_unimodular(rng, g)]
        if rng.random() < 0.5:
            u[0] = [-x for x in u[0]]  # det -1
        u = tuple(map(tuple, u))
        mu = SymplecticMatrix.basis_change(u).mu
        assert all(sum(u[i][k] * mu[k][j] for k in range(g)) == int(i == j)
                   for i in range(g) for j in range(g))


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
    t = ((-1,),)
    assert res.certificate.word == (("B", t), ("G", sl2_s()), ("B", t))
    shift = SymplecticMatrix.translation(t)
    expected = shift.compose(sl2_s()).compose(shift)
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


def test_report_fields_independent_of_global_precision():
    tau = sampling.random_siegel_point(sampling.substream(3, "x"), 2)
    reduced = reduce_heuristic(tau, prec=96).reduced
    saved = mp.prec
    try:
        fields = []
        for prec in (53, 300):
            mp.prec = prec
            fields.append(fundamental_domain_report(reduced, prec=96).s2_max_abs_re)
    finally:
        mp.prec = saved
    assert fields[0] == fields[1]


def test_constructors_store_mpf_and_mpc_entries_exactly():
    with workprec(200):
        x = (1 + I) / 3
        y = mpf(2) / 3
        from_string = sp(["0.1"])
        string_value = mpf("0.1")
    saved = mp.prec
    try:
        mp.prec = 53
        points = [sp([x]), SiegelPoint.from_complex(x), sp([x, y], [y, x])]
    finally:
        mp.prec = saved
    for p in points:
        assert p.re[0][0]._mpf_ == x.real._mpf_
        assert p.im[0][0]._mpf_ == x.imag._mpf_
    assert points[2].re[0][1]._mpf_ == y._mpf_ and points[2].im[0][1] == 0
    # strings still convert at the working precision
    assert from_string.re[0][0]._mpf_ == string_value._mpf_


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
    assert cert.action_residual < 10 * mpf(2) ** -64
    # every comparison over Q: at 53 bits, a 160-bit det minus the tolerance
    # can round up past an equal neighbour
    tol = Fraction(1, 2 ** 64)
    re, im = fraction_parts(res.reduced)
    x, y = re[0][0], im[0][0]
    assert abs(x) <= Fraction(1, 2)
    assert x * x + y * y >= (1 - tol) ** 2
    hist = [mpf_to_fraction(d) for d in cert.det_history]
    assert all(hist[i + 1] >= hist[i] - tol for i in range(len(hist) - 1))
    assert res.reduced.y_det >= tau.y_det - tol


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
        assert max(abs(x) for row in fraction_parts(res.reduced)[0] for x in row) \
            <= Fraction(1, 2)
        hist = [mpf_to_fraction(d) for d in res.certificate.det_history]
        assert all(hist[i + 1] >= hist[i] - Fraction(1, 2 ** 40)
                   for i in range(len(hist) - 1))
        assert res.certificate.action_residual < 10 * mpf(2) ** -48


def test_lll_gram_reduces():
    # 10 Im tau for Im tau = [[1, 9/10], [9/10, 1]]: LLL compares ratios of
    # the Gram matrix only, so an integer multiple gives the same U
    y = ((10, 9), (9, 10))
    u = lll_gram(y)
    assert u != ((1, 0), (0, 1))
    assert lll_gram(tuple(tuple(7 * v for v in row) for row in y)) == u
    v = reduced_basis_change(y)
    # unimodular and size-reduced output: |y12| <= y11/2 <= y22/2
    yy = siegel._congruence(v, y)
    assert abs(yy[0][1]) * 2 <= yy[0][0] <= yy[1][1]
    assert yy[0][1] >= 0


def test_lll_gram_matches_the_fraction_oracle():
    # integral LLL takes the steps of LLL over Q with the whole Gram-Schmidt
    # recomputed after each, so it returns the same U; Grams made unreduced
    # by a random unimodular congruence make it size-reduce and swap, and
    # Grams with |mu| = 1/2 exactly test the size-reduction bound
    for gram in (((2, 1), (1, 2)), ((2, -1), (-1, 2)), ((2, 1, 1), (1, 2, 1), (1, 1, 2)),
                 ((4, 2, 0), (2, 2, 1), (0, 1, 4))):
        assert lll_gram(gram) == lll_gram_frac(gram, siegel.LLL_DELTA)
    rng = random.Random(29)
    moved = 0
    for _ in range(150):
        g = rng.randint(2, 4)
        y = sampling.random_siegel_point(rng, g).int_form[1]
        u0 = sampling.random_unimodular(rng, g, rng.randint(0, 16))
        gram = siegel._congruence(u0, y)
        u = lll_gram(gram)
        assert u == lll_gram_frac(gram, siegel.LLL_DELTA)
        moved += u != siegel._int_identity(g)
    assert moved > 75


def _exact_data_points():
    """Seeded points at g = 1..4, and their images under the inversion,
    whose integer forms need a larger shift s."""
    for g in range(1, 5):
        for k in range(5):
            rng = sampling.substream(23, f"exact:{g}:{k}")
            tau = sampling.random_siegel_point(rng, g)
            yield tau
            yield act(SymplecticMatrix.inversion(g), tau, 160)


def assert_tight_eig_bound(y, lam):
    """lam > 0 bounds the smallest eigenvalue of the symmetric rational y
    from below, within 2^-59 relatively: y - lam I is positive
    semidefinite and y - lam (1 + 2^-59) I is not."""
    def shifted(mu):
        return [[v - mu * (i == j) for j, v in enumerate(row)] for i, row in enumerate(y)]
    assert lam > 0
    assert frac_psd(shifted(lam))
    assert not frac_psd(shifted(lam * (1 + Fraction(1, 2 ** 59))))


def test_exact_y_data_match_the_fraction_oracles():
    # every exact datum of Im tau comes from the integer form through one
    # elimination; the Fraction definitions give the same numbers
    for tau in _exact_data_points():
        y = fraction_parts(tau)[1]
        assert tau.y_inverse == frac_inverse(y) == exactla.inverse(y)
        assert tau.y_det == frac_det(y)
        assert_tight_eig_bound(y, tau.y_min_eig_lower_bound)
        assert tau.y_positive_definite and min(ldl_pivots(y)) > 0


@pytest.mark.parametrize("rows", [
    [[0]], [[-1]],
    [[0, 1], [1, 1]], [[0, 0], [0, 1]], [[1, 1], [1, 1]], [[-1, 0], [0, 2]],
    [[1, 2], [2, 1]], [[-1, 0], [0, -1]],
    [[1, 1, 0], [1, 1, 0], [0, 0, 1]], [[2, 1, 0], [1, 2, 1], [0, 1, -3]],
    [[-1, 0, 0], [0, -1, 0], [0, 0, 1]],
], ids=lambda rows: str(rows).replace(" ", ""))
def test_definiteness_verdicts_on_zero_and_negative_minors(rows):
    tau = sp(*[[mpc(0, v) for v in row] for row in rows])
    y = fraction_parts(tau)[1]
    assert not tau.y_positive_definite and min(ldl_pivots(y)) <= 0
    assert tau.y_det == frac_det(y)
    assert tau.y_min_eig_lower_bound == 0
    with pytest.raises(ValueError, match="positive definite"):
        reduce_heuristic(tau, prec=96)


def _diagonal_point(*diag):
    return SiegelPoint.from_rows([[mpc(0, v) if i == j else 0 for j in range(len(diag))]
                                  for i, v in enumerate(diag)])


def _near_scalar_point(g):
    """Im tau = I + 2^-80 (J - I), J the all-ones matrix."""
    off = mpf(2) ** -80
    return sp(*[[mpc(0, 1 if i == j else off) for j in range(g)] for i in range(g)])


def test_eigenvalue_bound_is_tight_from_below(monkeypatch):
    # 2 000 seeded points at g = 1..4 and the probes: lambda bounds the
    # smallest eigenvalue of Im tau from below within 2^-59 (checked over Q
    # by principal minors) and is Y / 2^s at g = 1; an iterate fails its
    # certificate only where a step lands on lambda_1 with a zero leading
    # minor: at no seeded point, once at diag(2^-66, 2^-65)
    failed = []
    elim = exactla.minors_and_adjugate

    def certified(m):
        minors, adj = elim(m)
        failed.append(len(minors) < len(m) or minors[-1] < 0)
        return minors, adj
    monkeypatch.setattr(exactla, "minors_and_adjugate", certified)
    for g in range(1, 5):
        for k in range(500):
            tau = sampling.random_siegel_point(sampling.substream(59, f"eig:{g}:{k}"), g)
            lam = tau.y_min_eig_lower_bound
            assert_tight_eig_bound(fraction_parts(tau)[1], lam)
            if g == 1:
                _, y, s = tau.int_form
                assert lam == Fraction(y[0][0], 1 << s)
    assert failed and not any(failed)
    for tau, step_downs in ((_diagonal_point(mpf(2) ** -66, mpf(2) ** -65), 1),
                            (_diagonal_point(mpf("1.3"), mpf(2) ** -70), 0),
                            (_near_scalar_point(2), 0), (_near_scalar_point(3), 0),
                            (_near_scalar_point(4), 0)):
        failed.clear()
        assert_tight_eig_bound(fraction_parts(tau)[1], tau.y_min_eig_lower_bound)
        assert sum(failed) == step_downs


def test_laguerre_step_is_rounded_down_and_tight():
    # num / den <= g d / (T + sqrt(N)), N = (g - 1)(g F - T^2), and
    # num / den >= that / (1 + 2^-70), both checked over Z by squaring, on
    # positive definite integer matrices with small and 2^90-scaled entries
    rng = random.Random(61)
    for _ in range(400):
        g = rng.randint(1, 4)
        b = [[rng.randint(-9, 9) for _ in range(g)] for _ in range(g)]
        shift = rng.choice((0, 90))
        y = tuple(tuple(sum(b[k][i] * b[k][j] for k in range(g)) + (i == j) << shift
                        for j in range(g)) for i in range(g))
        minors, adj = exactla.minors_and_adjugate(y)
        d, t = minors[-1], sum(adj[i][i] for i in range(g))
        n = (g - 1) * (g * sum(v * v for row in adj for v in row) - t * t)
        num, den = exactla._laguerre_step(d, adj)
        below = g * d * den - t * num          # sqrt(N) num <= below
        assert below >= 0 and n * num * num <= below * below
        num, den = num * ((1 << 70) + 1), den << 70
        above = g * d * den - t * num          # sqrt(N) num >= above
        assert above <= 0 or n * num * num >= above * above


def test_y_is_eliminated_once(monkeypatch):
    # a g = 3 point asked for definiteness, det Im tau, (Im tau)^-1
    # and lambda eliminates Y once; lambda's iterates at mu > 0 eliminate
    # Y - mu 2^s I, whose first row differs from that of Y
    tau = sampling.random_siegel_point(sampling.substream(23, "once"), 3)
    first_row = list(tau.int_form[1][0])
    firsts = []
    step = exactla._int_step

    def counted(rows, top, k, prev):
        if k == 0:
            firsts.append(list(top[:3]) == first_row)
        return step(rows, top, k, prev)
    monkeypatch.setattr(exactla, "_int_step", counted)
    assert tau.y_positive_definite
    tau.det_im()
    assert tau.y_inverse == frac_inverse(fraction_parts(tau)[1])
    assert tau.y_min_eig_lower_bound > 0
    assert sum(firsts) == 1 and len(firsts) > 1


@pytest.mark.parametrize("g", [1, 2, 3])
def test_generators_that_keep_det_im_need_no_determinant(g, monkeypatch):
    # lam = 0 forces |det mu| = 1, so det Im(gamma.tau) = det Im tau: S.1
    # (``_s1_holds``) passes such a generator with no determinant, and the
    # report's verdict is that of |det N|^2 >= 2^(2gs) for every generator,
    # which a lam = 0 generator meets as a tie.  The default list holds no
    # such generator; a supplied list may
    assert not any(gen.keeps_det_im for gen in default_generators(g))
    neutral = _det_neutral_generators(g)
    assert all(gen.keeps_det_im and abs(frac_det(gen.mu)) == 1 for gen in neutral)
    gens = [gen for pair in itertools.zip_longest(neutral, default_generators(g))
            for gen in pair if gen is not None]
    needed = list(default_generators(g))
    real_det = siegel._denominator_det
    asked = []

    def counting_det(gamma, tau):
        asked.append(gamma)
        return real_det(gamma, tau)

    monkeypatch.setattr(siegel, "_denominator_det", counting_det)
    verdicts = set()
    for k in range(6):
        tau = sampling.random_siegel_point(sampling.substream(31, f"keep:{g}:{k}"), g)
        asked.clear()
        rep = fundamental_domain_report(tau, gens, prec=96)
        # the first failing generator ends the check
        assert asked == needed[:len(asked)]
        assert asked == needed or not rep.s1_ok
        assert rep.s1_generators_checked == len(needed)
        one = 1 << (2 * g * tau.int_form[2])
        assert rep.s1_ok == all(dr * dr + di * di >= one
                                for dr, di in (real_det(gen, tau) for gen in gens))
        assert rep.s1_ok == fundamental_domain_report(tau, prec=96).s1_ok
        verdicts.add(rep.s1_ok)
    assert verdicts == {True, False}


def _mpf_key(x):
    return tuple(int(v) for v in x._mpf_)


def _reduction_record(res) -> str:
    """Every output of a reduction, with each mpf by its exact (sign, man,
    exp, bc): a drift of one ulp in any entry changes the record."""
    cert, rep = res.certificate, res.certificate.report
    g = res.reduced.g
    return repr((
        cert.word, res.gamma, cert.converged, cert.iterations,
        [_mpf_key(d) for d in cert.det_history], _mpf_key(cert.action_residual),
        [_mpf_key(res.reduced.re[i][j]) for i in range(g) for j in range(g)],
        [_mpf_key(res.reduced.im[i][j]) for i in range(g) for j in range(g)],
        (rep.g, rep.s2_ok, _mpf_key(rep.s2_max_abs_re), rep.s3_quadform_ok,
         rep.s3_offdiag_ok, rep.s1_ok, rep.s1_generators_checked,
         rep.s3_vectors_checked, rep.s1_note, rep.s3_note)))


def _pin_points(g):
    for k in range(24):
        yield sampling.random_siegel_point(sampling.substream(4242, f"pin{g}:{k}"), g)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_g2_reductions_are_pinned_bitwise():
    # sha256 of the records of 24 g = 2 reductions, taken with S.1 and act
    # computed over Q by Fraction real forms; re-pinned from the same
    # reductions when the report lost its tol field and the generator list
    # its lam = 0 members
    records = [_reduction_record(reduce_heuristic(tau, prec=96)) for tau in _pin_points(2)]
    assert sum("'G'" in r for r in records) > 0
    assert _digest(records) == ("a5a93b636d8b48c9e5af55085270d80b"
                                "eb6e2a7094c5639b266c19fece03adb2")


def test_g1_reductions_are_pinned_bitwise():
    # 24 g = 1 reductions: gamma and the reduced point are pinned to those
    # of a floating-point Gauss iteration in prec + 32 bits, bit for bit;
    # the records add the word and the det history (re-pinned as the g = 2
    # records were)
    results = [reduce_g1(tau, 128) for tau in _pin_points(1)]
    pairs = [repr((res.gamma, _mpf_key(res.reduced.re[0][0]), _mpf_key(res.reduced.im[0][0])))
             for res in results]
    assert _digest(pairs) == ("e37daa72334144cecaefaca967483996"
                              "118bd830a7f461fb04dec2e3c8849ad1")
    assert _digest(map(_reduction_record, results)) == (
        "50de59f7113c1939b53ca9603a732a50fcc0476fa7cf48a9b540faa3537667dc")


@pytest.mark.parametrize("g", [1, 2])
def test_reduction_rejects_a_non_definite_imaginary_part(g):
    tau = sp(*[[(-I if i == j == g - 1 else I) if i == j else 0 for j in range(g)]
               for i in range(g)])
    with pytest.raises(ValueError, match="positive definite"):
        reduce_heuristic(tau, prec=96)
    if g == 1:
        with pytest.raises(ValueError, match="positive definite"):
            reduce_g1(tau)


def test_reduction_next_to_the_real_axis():
    # (sqrt 5 - 1)/2 + 10^-60 i: its continued fraction is all ones as far
    # as y = 10^-60 lets the reduction see, so gamma is made of Fibonacci
    # numbers, and Gauss reduction takes more than 64 iterations
    with workprec(300):
        tau = sp([mpc((sqrt(5) - 1) / 2, mpf(10) ** -60)])
    fib = [0, 1]
    while len(fib) < 146:
        fib.append(fib[-1] + fib[-2])
    expected = SymplecticMatrix(1, ((fib[145],),), ((-fib[144],),),
                                ((-fib[144],),), ((fib[143],),))
    for prec in (96, 128, 200):
        res = reduce_heuristic(tau, prec=prec)
        cert = res.certificate
        assert cert.converged and cert.report.all_ok and cert.iterations > 64
        assert res.gamma == expected
        assert reduce_g1(tau, prec).gamma == expected


def _scaled_identity(g, c):
    return sp(*[[c * I if i == j else 0 for j in range(g)] for i in range(g)])


@pytest.mark.parametrize("g", [1, 2])
def test_s1_ties_are_inclusive(g):
    # i I_g lies on the boundary of the inversion: |det tau|^2 = 1
    on = _scaled_identity(g, 1)
    assert fundamental_domain_report(on, prec=96).s1_ok
    res = reduce_heuristic(on, prec=96)
    assert not any(move[0] == "G" for move in res.certificate.word)
    assert res.certificate.report.s1_ok
    # just inside the unit ball, by 2^-20 and by 2^-60 (within the slack
    # 2^-48 that prec 96 once allowed): the inversion raises det Im, so it
    # is made, and the report passes only the image
    for bits in (20, 60):
        with workprec(64):
            inside = _scaled_identity(g, 1 - mpf(2) ** -bits)
        assert not fundamental_domain_report(inside, prec=96).s1_ok
        res = reduce_heuristic(inside, prec=96)
        assert res.certificate.word[0] == ("G", SymplecticMatrix.inversion(g))
        assert res.certificate.converged and res.certificate.report.s1_ok


@pytest.mark.parametrize("g", [1, 2])
def test_reduction_builds_no_identity_after_the_first_for_its_g(g):
    # the identity blocks and matrix are built once per g and shared
    identity = SymplecticMatrix.__dict__["identity"].__func__
    rng = random.Random(17 + g)
    reduce_heuristic(sampling.random_siegel_point(rng, g), prec=96)
    built = (siegel._int_identity.cache_info().misses, identity.cache_info().misses)
    asked = identity.cache_info().hits
    for _ in range(3):
        reduce_heuristic(sampling.random_siegel_point(rng, g), prec=96)
    assert (siegel._int_identity.cache_info().misses,
            identity.cache_info().misses) == built
    assert identity.cache_info().hits >= asked + 3
    assert SymplecticMatrix.identity(g) is SymplecticMatrix.identity(g)


def test_s2_has_no_slack():
    with workprec(64):
        x = mpf(0.5) + mpf(2) ** -60
        points = [sp([mpc(x, 1.6)]), sp([mpc(x, 1.6), 0], [0, 2 * I])]
    for tau in points:
        rep = fundamental_domain_report(tau, prec=96)
        assert not rep.s2_ok and rep.s3_quadform_ok and rep.s1_ok
    assert fundamental_domain_report(sp([mpc(0.5, 1.6)]), prec=96).s2_ok


@pytest.mark.parametrize("g", [1, 2])
def test_reduction_next_to_an_s1_boundary_ends(g):
    # 2^-(prec + 40) inside the inversion boundary: the image rounds onto
    # the boundary or next to it; the loop ends within MAX_ITER, and a
    # converged loop stops only where its certificate passes S.1
    prec = 96
    eps = mpf(2) ** -(prec + 40)
    with workprec(prec + 80):
        points = [_scaled_identity(g, 1 - eps)]
        if g == 1:
            points.append(sp([mpc("0.3", sqrt(mpf("0.91"))) * (1 - eps)]))
    for tau in points:
        assert not fundamental_domain_report(tau, prec=prec).s1_ok
        cert = reduce_heuristic(tau, prec=prec).certificate
        assert cert.iterations <= siegel.MAX_ITER
        assert any(move[0] == "G" for move in cert.word)
        assert not cert.converged or cert.report.s1_ok


def test_loop_and_certificate_share_the_s1_rule(monkeypatch):
    # step (c) and the report decide S.1 by the one predicate: the loop's
    # last iteration asks it of every generator, and so does the report
    asked = []
    rule = siegel._s1_holds

    def counted(gamma, tau):
        out = rule(gamma, tau)
        asked.append((gamma, tau, out))
        return out
    monkeypatch.setattr(siegel, "_s1_holds", counted)
    for k in range(6):
        tau = sampling.random_siegel_point(sampling.substream(11, f"h2:{k}"), 2)
        asked.clear()
        res = reduce_heuristic(tau, prec=96)
        gens = default_generators(2)
        assert res.certificate.converged and res.certificate.report.s1_ok
        tail = asked[-2 * len(gens):]
        assert [a[0] for a in tail] == list(gens) * 2
        assert all(a[1] is res.reduced and a[2] for a in tail)
        assert any(not out for _, _, out in asked) == any(
            move[0] == "G" for move in res.certificate.word)


def _supplied_generators(rng, g):
    """Generators a caller may supply: unit translations and basis swaps
    (lam = 0), random translations and basis changes, and products of these
    with the default generators (lam != 0, other than the defaults)."""
    gens = list(default_generators(g)) + _det_neutral_generators(g)
    if g == 1:
        gens.append(SymplecticMatrix.basis_change(((-1,),)))
    for _ in range(4):
        b = [[0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                b[i][j] = b[j][i] = rng.randint(-3, 3)
        t = SymplecticMatrix.translation(tuple(map(tuple, b)))
        c = SymplecticMatrix.basis_change(sampling.random_unimodular(rng, g))
        inv = rng.choice(default_generators(g))
        gens += [t, c, inv.compose(t), t.compose(inv).compose(c),
                 c.compose(inv).compose(t).compose(inv)]
    return gens


def _on_s1_surfaces(g):
    """(gamma, tau) with |det(lam tau + mu)| = 1 exactly: the inversion at
    tau = i I, a coordinate inversion at tau_00 = i (at g = 1 the same point),
    and the inversion after a translation by b at tau = -b + i I."""
    pairs = [(SymplecticMatrix.inversion(g), _scaled_identity(g, 1))]
    if g == 2:
        tau = sp([I, mpc(0.25, 0.125)], [mpc(0.25, 0.125), mpc(-0.5, 1.5)])
        pairs.append((default_generators(2)[1], tau))
    b = tuple(tuple(2 if i == j else -1 for j in range(g)) for i in range(g))
    tau = sp(*[[-b[i][j] + (I if i == j else 0) for j in range(g)] for i in range(g)])
    pairs.append((SymplecticMatrix.inversion(g).compose(SymplecticMatrix.translation(b)), tau))
    return pairs


@pytest.mark.parametrize("g", [1, 2])
def test_closed_form_denominator_det_is_the_elimination(g):
    # det(lam tau + mu) 2^(gs) in closed form against the Bareiss
    # determinant of the same Gaussian-integer matrix, on unreduced points,
    # their inversions (long integer forms) and reduced points, for default
    # and supplied generators; and on |det| = 1 surfaces, where S.1 is a tie
    # and passes
    def oracle(gamma, tau):
        return exactla.gauss_det(siegel._gauss_affine(gamma.lam, gamma.mu, tau))

    checked = 0
    for k in range(8):
        rng = sampling.substream(61, f"closed:{g}:{k}")
        tau = sampling.random_siegel_point(rng, g)
        points = [tau, act(SymplecticMatrix.inversion(g), tau, 200),
                  reduce_heuristic(tau, prec=96).reduced]
        for point in points:
            for gamma in _supplied_generators(rng, g):
                assert siegel._denominator_det(gamma, point) == oracle(gamma, point)
                checked += 1
    assert checked > 500
    for gamma, tau in _on_s1_surfaces(g):
        assert not gamma.keeps_det_im
        dr, di = siegel._denominator_det(gamma, tau)
        assert (dr, di) == oracle(gamma, tau)
        assert dr * dr + di * di == 1 << (2 * g * tau.int_form[2])
        assert siegel._s1_holds(gamma, tau)


@pytest.mark.parametrize("g, count", [(1, 24), (2, 24), (3, 6)])
def test_carried_gamma_is_the_product_of_the_word(g, count):
    # the gamma that the loop carries as four blocks is the checked product
    # of its word, with the default generators and with supplied ones (the
    # products first, so that step (c) moves by them too)
    moves = {"B": 0, "U": 0, "G": 0, "supplied G": 0}
    for k in range(count):
        rng = sampling.substream(62, f"carried:{g}:{k}")
        tau = sampling.random_siegel_point(rng, g)
        for gens in (None, _supplied_generators(rng, g)[::-1]):
            res = reduce_heuristic(tau, gens, prec=96)
            assert compose_word(res.certificate.word, g) == res.gamma
            for move in res.certificate.word:
                moves[move[0]] += 1
                moves["supplied G"] += (move[0] == "G"
                                        and move[1] not in default_generators(g))
    # a g = 1 basis change is +-1 and the loop never makes one
    assert min(v for m, v in moves.items() if g > 1 or m != "U") > 0, moves
