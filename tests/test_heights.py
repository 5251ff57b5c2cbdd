import dataclasses
import hashlib
import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, mpc, agm, fabs, gamma, log, pi, sqrt, workprec

from thetaheights.certified import GUARD_BITS, CertifiedReal
from thetaheights import heights, siegel
from thetaheights import theta as theta_module
from thetaheights.heights import (Claims, ClaimsError, EllipticCurveQ,
                                  faltings_height_g1, load_corpus,
                                  matrix_lemma_check, periods_agm,
                                  point_bound_rhs, theta_height_details,
                                  window_check)
from thetaheights import constants
from thetaheights.campaign import CampaignConfig, run_campaign

from oracles import cross_ratios, theta_route_heights

# frozen oracle values for the conductor-15 curve [1,1,1,-10,-10]
with workprec(220):
    HF_15 = mpf("0.1700873708418562996281172")
    HT_15 = mpf("1.242453324894000155114855")
    WINDOW_15 = mpf("1.124722297632004886465713")
    TAU_IM_15 = mpf("1.139682103983837368091122")
    OMEGA1_LEMN = mpf("2.62205755429211981046484")
    HF_LEMN_RELATIVE = mpf("-0.3915943927068367764719453")


def curve15():
    return EllipticCurveQ.from_coefficients(1, 1, 1, -10, -10,
                                            minimal=True, semistable=True,
                                            label="15a")


def lemniscatic():
    return EllipticCurveQ.from_coefficients(0, 0, 0, -1, 0, minimal=True,
                                            semistable=False)


def test_two_torsion_extraction():
    c = curve15()
    assert set(c.two_torsion_x) == {Fraction(123), Fraction(-21), Fraction(-102)}
    assert c.c4 == 481 and c.c6 == 4879 and c.disc == 50625


def test_rejects_partial_two_torsion():
    with pytest.raises(ValueError):
        EllipticCurveQ.from_coefficients(0, 0, 0, 1, 1)


@pytest.mark.parametrize("coeffs", [
    (0, 0, 0, -7, 7),       # x^3 - 7x + 7: three real roots, irreducible
    (0, -3, 0, -2, 6),      # (x - 3)(x^2 - 2): the largest root rational
    (0, 0, 0, -1, -6),      # (x - 2)(x^2 + 2x + 3): a complex pair
], ids=["irreducible", "irrational-pair", "complex-pair"])
def test_rejects_cubics_without_three_rational_roots(coeffs):
    with pytest.raises(ValueError, match="full rational 2-torsion"):
        EllipticCurveQ.from_coefficients(*coeffs)


_ROOT = st.integers(-10 ** 12, 10 ** 12)


@settings(max_examples=300, deadline=None)
@given(_ROOT, _ROOT, st.integers(1, 10 ** 6))
def test_integer_roots_of_a_split_depressed_cubic(r1, r2, den):
    # roots r_i / den with r1 + r2 + r3 = 0; X^3 - 27 c4 X - 54 c6 has them
    roots = [Fraction(r, den) for r in (r1, r2, -r1 - r2)]
    if len(set(roots)) < 3:
        return
    e1, e2, e3 = roots
    c4 = -(e1 * e2 + e1 * e3 + e2 * e3) / 27
    c6 = e1 * e2 * e3 / 54
    assert heights._depressed_roots(c4, c6) == tuple(sorted(roots, reverse=True))


def test_rejects_inconsistent_roots():
    c = curve15()
    with pytest.raises(ValueError):
        EllipticCurveQ(c.a1, c.a2, c.a3, c.a4, c.a6, Claims(True, True),
                       (Fraction(1), Fraction(2), Fraction(-3)))


def test_rejects_singular():
    with pytest.raises(ValueError):
        EllipticCurveQ.from_coefficients(0, 0, 0, 0, 0)


def test_root_permutation_is_accepted_and_lambda_stable():
    c = curve15()
    perm = EllipticCurveQ(c.a1, c.a2, c.a3, c.a4, c.a6, c.claims,
                          (c.two_torsion_x[1], c.two_torsion_x[2],
                           c.two_torsion_x[0]))
    assert (theta_height_details(perm).lam == theta_height_details(c).lam
            == Fraction(9, 25))


def test_periods_lemniscatic_closed_form():
    lat = periods_agm(lemniscatic())
    with workprec(200):
        ref = gamma(mpf(1) / 4) ** 2 / sqrt(8 * pi)
    assert fabs(lat.omega1 - ref) < mpf(10) ** -30
    tau = lat.omega2 / lat.omega1
    assert fabs(tau - mpc(0, 1)) < mpf(10) ** -30


def test_periods_scale_inversely_with_twist():
    base = periods_agm(lemniscatic())
    # x -> u^2 x, y -> u^3 y with u = 2 sends x^3 - x to x^3 - 16 x
    twisted = periods_agm(EllipticCurveQ.from_coefficients(0, 0, 0, -16, 0))
    with workprec(200):
        assert fabs(twisted.omega1 * 2 - base.omega1) < mpf(10) ** -30
        assert fabs(twisted.covolume * 4 - base.covolume) < mpf(10) ** -28


def test_periods_generic_curve_valid():
    lat = periods_agm(EllipticCurveQ.from_coefficients(0, -3, 0, 2, 0))
    assert lat.covolume > 0
    assert (lat.omega2 / lat.omega1).imag > 0


def test_faltings_requires_claims():
    with pytest.raises(ClaimsError):
        faltings_height_g1(lemniscatic())
    res = faltings_height_g1(lemniscatic(), allow_relative=True)
    assert not res.stable
    assert fabs(res.height.value - HF_LEMN_RELATIVE) < mpf(10) ** -25


def test_faltings_value_15():
    res = faltings_height_g1(curve15())
    assert res.stable
    assert fabs(res.height.value - HF_15) <= res.height.err + mpf(10) ** -24


def test_lambda_by_matching():
    assert theta_height_details(curve15()).lam == Fraction(9, 25)
    assert theta_height_details(lemniscatic()).lam == Fraction(1, 2)
    assert Fraction(9, 25) in cross_ratios(123, -21, -102)


def test_theta_height_15_and_nonnegativity():
    det = theta_height_details(curve15())
    assert det.lam == Fraction(9, 25)
    assert det.h_theta.value >= 0
    with workprec(200):
        assert fabs(det.h_theta.value - HT_15) <= det.h_theta.err + mpf(10) ** -24
        # finite part is (1/4) log 25 here
        assert fabs(det.finite.value - log(25) / 4) < mpf(10) ** -24
        assert fabs(det.tau_reduced.im[0][0] - TAU_IM_15) < mpf(10) ** -24


def test_theta_height_nonnegative_on_corpus_sample():
    for c in load_corpus()[:4]:
        assert theta_height_details(c, prec=96).h_theta.value >= 0


def test_window_check_15():
    rep = window_check(curve15())
    assert fabs(rep.window_value.value - WINDOW_15) < mpf(10) ** -22
    assert rep.all_ok
    assert rep.verdicts["window_lower"].margin > mpf("1.8")
    assert rep.verdicts["window_upper"].margin > mpf("0.8")
    assert rep.stable


def test_window_check_corpus_subset():
    for c in load_corpus()[:5]:
        rep = window_check(c, prec=96)
        assert rep.all_ok, (c.label, {k: v.verdict for k, v in rep.verdicts.items()})
        assert rep.verdicts["window_lower"].margin > mpf(10) ** -6
        assert rep.verdicts["window_upper"].margin > mpf(10) ** -6


def test_window_consistency_with_components():
    rep = window_check(curve15())
    det = theta_height_details(curve15())
    with workprec(200):
        recomputed = (det.h_theta.value - rep.h_faltings.value / 2
                      - log(rep.tau_reduced.det_im()) / 4)
        assert fabs(recomputed - rep.window_value.value) <= \
            10 * (rep.window_value.err + det.h_theta.err) + mpf(10) ** -24


def test_window_precision_refinement():
    lo = window_check(curve15(), prec=96)
    hi = window_check(curve15(), prec=192)
    assert fabs(lo.window_value.value - hi.window_value.value) <= \
        lo.window_value.err + hi.window_value.err


def test_matrix_lemma_lemniscatic_lhs_zero():
    # tau = i makes the left side |log det Im tau| = 0
    v = matrix_lemma_check(lemniscatic())
    assert v.ok
    assert fabs(v.lhs) < mpf(10) ** -25


def test_matrix_lemma_corpus_subset():
    for c in load_corpus()[:4]:
        assert matrix_lemma_check(c, prec=96).ok


def test_point_bound_rhs_shape():
    c = curve15()
    base = point_bound_rhs(c, 0)
    one = point_bound_rhs(c, 1)
    assert fabs((one.value - base.value) - 1) < mpf(10) ** -24
    # P = 0: the canonical height 0 must dominate the bound at h(Theta(0))
    rep = window_check(c)
    at_zero = point_bound_rhs(c, rep.h_theta)
    assert at_zero.value < 0
    # margin equals the slack in the window's upper endpoint
    m_slack = constants.M_const(2, 1).value - rep.window_value.value
    assert fabs(-at_zero.value - m_slack) < mpf(10) ** -20


def test_point_bound_rhs_zero_height_formula():
    c = curve15()
    rep = window_check(c)
    v = point_bound_rhs(c, 0)
    with workprec(200):
        expect = (-rep.h_faltings.value / 2 - log(rep.tau_reduced.det_im()) / 4
                  - constants.M_const(2, 1).value)
        assert fabs(v.value - expect) < mpf(10) ** -20


def test_corpus_loads_and_claims():
    corpus = load_corpus()
    assert len(corpus) >= 10
    for c in corpus:
        assert c.claims.minimal and c.claims.semistable
        import math
        assert math.gcd(int(c.c4), int(c.disc)) == 1


def _finite_part_by_primes(lam: Fraction):
    """sum over p of max(v_p(den lam), v_p(den(1 - lam))) log p / 4, with
    the primes found by trial division."""
    vals = {}
    for n in (lam.denominator, (1 - lam).denominator):
        p = 2
        while n > 1:
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            if v:
                vals[p] = max(vals.get(p, 0), v)
            p += 1
    return sum((v * log(p) / 4 for p, v in vals.items()), mpf(0))


def test_finite_part_equals_the_p_adic_sum_on_the_corpus():
    lams = {lam for c in load_corpus() for lam in cross_ratios(*c.two_torsion_x)}
    assert any(lam.denominator > 1 for lam in lams)
    with workprec(200):
        for lam in lams:
            fin = heights._finite_part(lam)
            assert fabs(fin.value - _finite_part_by_primes(lam)) <= fin.err


CORPUS_HEADER = "label,a1,a2,a3,a4,a6,minimal,semistable\n"


@pytest.mark.parametrize("row", [
    "lemn,0,0,0,-1,0,true,true",        # c4 = 48, disc = 64, gcd 16
    "lemn,0,0,0,-1,0,false,true",
    "half,0,0,0,-1/4,0,true,true",      # gcd(c4, disc) = gcd(12, 1), not integral
])
def test_corpus_rejects_uncertified_claims(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(CORPUS_HEADER + row + "\n")
    with pytest.raises(ClaimsError, match=repr(row.split(",")[0])):
        load_corpus(path)


def test_corpus_row_without_claims_loads(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text(CORPUS_HEADER + "lemn,0,0,0,-1,0,false,false\n")
    [curve] = load_corpus(path)
    assert curve.label == "lemn" and curve.claims == Claims(False, False)
    assert curve.c4 == 48 and curve.disc == 64


def test_c4_c6_formed_once_per_curve_over_load_and_window_check(tmp_path, monkeypatch):
    # the constructor, the claims certificate and the period self-check
    # all read the curve's cached c4, c6 and discriminant
    labels = []
    prop = EllipticCurveQ.__dict__["_c4_c6"]
    c4_c6 = prop.func

    def counted(curve):
        labels.append(curve.label)
        return c4_c6(curve)
    monkeypatch.setattr(prop, "func", counted)
    path = tmp_path / "two.csv"
    path.write_text(CORPUS_HEADER + "c15,1,1,1,-10,-10,true,true\n"
                    "c225,1,1,1,-5,2,true,true\n")
    curves = load_corpus(path)
    for curve in curves:
        assert window_check(curve, 96).all_ok
    assert len(labels) == len(curves) == 2


@pytest.mark.parametrize("check", [
    window_check, matrix_lemma_check,
    lambda c, prec: point_bound_rhs(c, 0, prec), theta_height_details,
], ids=["window_check", "matrix_lemma_check", "point_bound_rhs",
        "theta_height_details"])
def test_no_reduction_and_no_theta_walk_per_check(monkeypatch, check):
    # the heights are closed forms in the two certified AGMs of one
    # periods_agm: no reduction loop runs and no theta sum is walked
    counts = {"reduce_heuristic": 0, "_row_sum": 0, "periods_agm": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(siegel, "reduce_heuristic")
    counted(theta_module, "_row_sum")
    counted(heights, "periods_agm")
    check(curve15(), 96)
    assert counts == {"reduce_heuristic": 0, "_row_sum": 0, "periods_agm": 1}


@pytest.mark.parametrize("suite, digest", [
    ("window", "4fc2fa7577e145f99e45719e4bd4e08964c2307cc7164fe7bf1e4afee217cccf"),
    ("matrix-lemma", "36e4a45665cf979b5ebd9d584d3da751a0b6a312d135ff4360e48bbdea91b4e5"),
], ids=["window", "matrix-lemma"])
def test_height_campaign_reports_are_pinned(suite, digest):
    # sha256 of to_csv() + to_json(), taken when the report formatter
    # stopped rounding each number to the caller's 53 bits before printing
    # it (the former digests are the same reports printed that way)
    rep = run_campaign(CampaignConfig(suite=suite, samples=16, seed=1, prec=128))
    assert hashlib.sha256((rep.to_csv() + rep.to_json()).encode()).hexdigest() == digest


def test_make_corpus_split_roots_on_the_shipped_corpus():
    # the corpus script finds the 2-torsion with the package's integer rule
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    corpus = load_corpus()
    assert len(corpus) == 16
    for c in corpus:
        c4, c6, disc = script.invariants(*(int(x) for x in (c.a1, c.a2, c.a3, c.a4, c.a6)))
        assert (c4, c6, disc) == (c.c4, c.c6, c.disc)
        assert script.split_roots(c4, c6) == list(c.sorted_roots())
    assert script.split_roots(-48, 0) is None       # y^2 = x^3 + x: a complex pair


_WIDTH = st.integers(4, 20)
_RATIONAL = st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 3))


@settings(max_examples=300, deadline=None)
@given(_RATIONAL, _RATIONAL, _WIDTH)
# integer starts 2^w sqrt(x), 2^w sqrt(y), so only the run's own rounding
# shows: there 2^w M(sqrt x, sqrt y) = M(122, 1) = 30.957, and a mean
# rounded up gives lo = 31; and M(7, 1) = 3.288 > a_n = 3, so an upper end
# without the product of the (b_k + 1)/b_k falls short.  Last, a start
# with b_0 = isqrt(floor(4^4 / 1000)) = 0 around M = 5.2
@example(Fraction(122 ** 2, 256), Fraction(1, 256), 4)
@example(Fraction(7 ** 2, 256), Fraction(1, 256), 4)
@example(Fraction(1), Fraction(1, 1000), 4)
def test_agm_bounds_enclose_the_agm(x, y, w):
    # at a few bits one unit of 2^-w is visible: a step rounded the wrong
    # way, or a rounding the upper end does not pay for, can put the true
    # AGM outside [lo, hi]
    x, y = max(x, y), min(x, y)
    lo, hi = heights._agm_bounds(x, y, w)
    with workprec(4 * w + 64):
        m = agm(sqrt(mpf(x.numerator) / x.denominator),
                sqrt(mpf(y.numerator) / y.denominator)) * 2 ** w
        assert lo <= m <= hi, (lo, m, hi)


def test_one_integer_run_per_agm(monkeypatch):
    # each AGM enclosure takes two starting roots and one root a step of a
    # single run rounding down; its upper end needs no second run
    roots, runs = [], []
    isqrt, bounds = math.isqrt, heights._agm_bounds

    def counted(n):
        roots.append(n)
        return isqrt(n)

    def recorded(x, y, w):
        start = len(roots)
        out = bounds(x, y, w)
        runs.append((x, y, w, len(roots) - start))
        return out

    monkeypatch.setattr(math, "isqrt", counted)
    monkeypatch.setattr(heights, "_agm_bounds", recorded)
    periods_agm(curve15())
    assert len(runs) == 2
    for x, y, w, calls in runs:
        a = isqrt((x.numerator << 2 * w) // x.denominator)
        b = isqrt((y.numerator << 2 * w) // y.denominator)
        steps = 0
        while a - b > 1:
            a, b = (a + b) // 2, isqrt(a * b)
            steps += 1
        assert b > 0 and calls == 2 + steps


def test_faltings_error_covers_a_coarse_agm_enclosure():
    # from 12-bit AGM enclosures the certified h_F and log det Im tau
    # still hold the true values: their errors carry the enclosure widths
    c = curve15()
    e1, e2, e3 = c.sorted_roots()
    coarse = dataclasses.replace(periods_agm(c),
                                 m_ab=heights._certified_agm(e1 - e3, e1 - e2, 12),
                                 m_ac=heights._certified_agm(e1 - e3, e2 - e3, 12))
    h = faltings_height_g1(c, coarse).height
    with workprec(200):
        ldi = heights._log_det_im(coarse)
        assert h.lo <= HF_15 <= h.hi and h.err < mpf(2) ** -6
        assert ldi.lo <= log(TAU_IM_15) <= ldi.hi and ldi.err < mpf(2) ** -6


def _seeded_lambdas(n, seed=3001):
    """1/2, 1/q for a q of 200 bits, and lam = p/q with q log-uniform up to
    2^200 and p uniform in [1, q/2]."""
    rng = random.Random(seed)
    lams = [Fraction(1, 2), Fraction(1, 2 ** 200 + 235)]
    while len(lams) < n:
        q = rng.randint(2, 2 ** rng.randint(1, 200))
        lams.append(Fraction(rng.randint(1, q // 2), q))
    return lams


@pytest.mark.parametrize("prec", [96, 128])
def test_theta_height_enclosure(prec):
    # the integer bounds hold 2^w S^2 / q at every scale, the small ones
    # included, where a missing unit of S_hi or a floored upper end shows;
    # the certified h_theta holds the 400-bit value of
    # (1/4) log q + (1/2) log(1 + sqrt(lam) + sqrt(1 - lam)), and its error
    # is the log's own allowance, not the enclosure's width
    p_work = prec + GUARD_BITS
    for lam in _seeded_lambdas(300):
        p, q = lam.numerator, lam.denominator
        for w in (0, 1, 2, 3, 5, 8, 13, p_work + 8):
            lo, hi = heights._theta_height_bounds(lam, w)
            with workprec(w + 2 * q.bit_length() + 64):
                x = (q + sqrt(p * q) + sqrt(q * (q - p))) ** 2 / q * 2 ** w
                assert lo <= x <= hi, (lam, w)
        with workprec(p_work):
            h = heights._theta_height(lam)
        with workprec(400):
            ref = log(q) / 4 + log(1 + sqrt(mpf(p) / q) + sqrt(mpf(q - p) / q)) / 2
            assert fabs(h.value - ref) <= h.err, lam
            assert h.err <= (h.value + 1) * mpf(2) ** (6 - p_work), lam


# the exact (sign, man, exp, bc) of Im tau_reduced at prec 128
TAU_IM_BITS = {
    "15a": (0, 3576950256353044550850533404408635881724050314011535537663, -191, 192),
    "lemniscatic": (0, 1, 0, 1),
}


@pytest.mark.parametrize("name, curve", [("15a", curve15()), ("lemniscatic", lemniscatic())])
def test_window_check_forms_tau_only_when_read(monkeypatch, name, curve):
    calls = []
    from_complex = siegel.SiegelPoint.from_complex.__func__

    def counted(cls, tau):
        calls.append(tau)
        return from_complex(cls, tau)
    monkeypatch.setattr(siegel.SiegelPoint, "from_complex", classmethod(counted))
    rep = window_check(curve, allow_relative=True)
    assert calls == []
    tau = rep.tau_reduced
    assert rep.tau_reduced is tau and len(calls) == 1
    assert tuple(int(x) for x in tau.im[0][0]._mpf_) == TAU_IM_BITS[name]
    assert tau.re[0][0] == 0


def test_replaced_agms_give_fresh_logs_and_tau():
    # the logs and display values are derived, not fields: a lattice made
    # by replace() with new AGMs forms its own, after the first one cached
    c = curve15()
    lat = periods_agm(c)
    logs, tau, covol = lat.agm_logs, lat.tau_reduced, lat.covolume
    ac, ab, bc = c._root_gaps
    m_ab, m_ac = heights._certified_agm(ac, ab, 12), heights._certified_agm(ac, bc, 12)
    coarse = dataclasses.replace(lat, m_ab=m_ab, m_ac=m_ac)
    with workprec(128 + GUARD_BITS):
        assert coarse.agm_logs == (m_ab.log(), m_ac.log()) != logs
        t = m_ab.value / m_ac.value
        assert coarse.tau_reduced.im[0][0] == max(t, 1 / t) != tau.im[0][0]
        assert coarse.covolume != covol


def _seeded_curves(n, seed=2401):
    """n curves y^2 = (x - e1)(x - e2)(x - e3) with rational roots of
    log-uniform size up to 10^6 over a few denominators."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        den = rng.choice((1, 1, 2, 3, 16, 1000))
        es = {Fraction(rng.choice((-1, 1)) * int(math.exp(rng.random() * math.log(10 ** 6))),
                       den) for _ in range(3)}
        if len(es) < 3:
            continue
        e1, e2, e3 = es
        out.append(EllipticCurveQ.from_coefficients(
            0, -(e1 + e2 + e3), 0, e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3,
            label=f"seed{len(out)}"))
    return out


def test_closed_forms_agree_with_the_theta_route():
    # the closed forms lie within the certified errors of the heights
    # computed from the three even theta-nulls at reduce_g1's tau
    for c in load_corpus() + _seeded_curves(40):
        rep = window_check(c, 128, allow_relative=True)
        lattice = periods_agm(c, 128)
        old = theta_route_heights(c, 128)
        assert rep.lam == old["lam"], c.label
        assert old["jacobi_defect"] < mpf(10) ** -20, c.label
        for new, ref in ((rep.h_theta, old["h_theta"]), (rep.h_faltings, old["h_faltings"]),
                         (rep.window_value, old["window"])):
            assert fabs(new.value - ref.value) <= new.err + ref.err, c.label
        with workprec(200):
            t = lattice.m_ab / lattice.m_ac
            im = t if t.value >= 1 else CertifiedReal.exact(1) / t
            ref_im = old["tau_reduced"].im[0][0]
            # the oracle's tau gets the relative radius its route asserted
            # for mpmath's AGM
            assert fabs(rep.tau_reduced.im[0][0] - ref_im) <= \
                im.err + ref_im * mpf(2) ** -(128 + 16), c.label
            assert rep.tau_reduced.re[0][0] == old["tau_reduced"].re[0][0] == 0
