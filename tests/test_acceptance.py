"""Acceptance suite: one test per release criterion, one printed verdict line
per criterion.  Run with ``pytest tests/test_acceptance.py -v -s``.

Sample counts and tolerances are pinned here, not configurable: these are the
exit criteria.
"""
import math
import time

from mpmath import mp, mpf, fabs, gamma, pi, workprec

from thetaheights import constants, heights, sampling
from thetaheights.campaign import CampaignConfig, run_campaign
from thetaheights.siegel import (SiegelPoint, act, reduce_g1)
from thetaheights.theta import choose_radius, theta, theta_truncated

WORKERS = 2


def _line(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_theta_oracle_agreement():
    t0 = time.time()
    v = theta(SiegelPoint.from_complex(mp.mpc(0, 1)), prec=128)
    with workprec(400):
        ref = pi ** mpf("0.25") / gamma(mpf(3) / 4)
    err = fabs(v.value - ref)
    elapsed = time.time() - t0
    _line("criterion-1 theta(i,0) closed form", err < mpf(10) ** -20 and elapsed < 1.0,
          f"|diff|={mp.nstr(err, 3)} time={elapsed:.2f}s")


def test_criterion_02_certification_soundness():
    t0 = time.time()
    violations = 0
    total = 0
    for g in (1, 2):
        for k in range(500):
            rng = sampling.substream(2002, f"cert:{g}:{k}")
            tau = sampling.random_siegel_point(rng, g)
            z = sampling.random_z(rng, tau)
            char = sampling.random_char(rng, g, rng.choice((2, 4)))
            n = choose_radius(tau, z, char, 96)
            v1 = theta_truncated(tau, z, char, n, 96)
            v2 = theta_truncated(tau, z, char, n + 10, 96)
            total += 1
            if fabs(v1.value - v2.value) > v1.err:
                violations += 1
    elapsed = time.time() - t0
    _line("criterion-2 certification soundness",
          violations == 0 and total == 1000 and elapsed < 60,
          f"{total} samples, {violations} violations, {elapsed:.1f}s")


_NORM_REPORTS = {}


def _norm_report(g):
    if g not in _NORM_REPORTS:
        cfg = CampaignConfig(suite="norm-bounds", samples=500, seed=56,
                             prec=96, g=g, r=2)
        _NORM_REPORTS[g] = run_campaign(cfg, workers=WORKERS)
    return _NORM_REPORTS[g]


def test_criterion_03_norm_lower_bound():
    t0 = time.time()
    rows = []
    for g in (1, 2):
        rows += [r for r in _norm_report(g).rows if r.check == "prop-i"]
    bad = [r for r in rows if r.verdict != "pass"]
    elapsed = time.time() - t0
    _line("criterion-3 max-norm lower bound (all of Siegel space)",
          len(rows) >= 1000 and not bad and elapsed < 300,
          f"{len(rows)} checks, {len(bad)} fails, {elapsed:.1f}s")


def test_criterion_04_norm_upper_bound_reduced():
    t0 = time.time()
    rows, combined = [], []
    for g in (1, 2):
        rep = _norm_report(g)
        rows += [r for r in rep.rows if r.check == "prop-ii"]
        combined += [r for r in rep.rows
                     if r.check in ("combined-lower", "combined-upper")]
    bad = [r for r in rows + combined if r.verdict != "pass"]
    elapsed = time.time() - t0
    _line("criterion-4 norm upper bound on reduced points",
          len(rows) >= 1000 and not bad and elapsed < 300,
          f"{len(rows)} upper + {len(combined)} combined checks, "
          f"{len(bad)} fails, {elapsed:.1f}s")


_WINDOW_REPORTS = None


def _window_reports():
    global _WINDOW_REPORTS
    if _WINDOW_REPORTS is None:
        curves = heights.load_corpus()
        _WINDOW_REPORTS = [(c, heights.window_check(c, prec=128)) for c in curves]
    return _WINDOW_REPORTS


def test_criterion_05_height_window():
    t0 = time.time()
    reps = _window_reports()
    worst = None
    bad = []
    for c, rep in reps:
        lo = rep.verdicts["window_lower"]
        hi = rep.verdicts["window_upper"]
        m = min(lo.margin, hi.margin)
        worst = m if worst is None else min(worst, m)
        if not (lo.ok and hi.ok and m >= mpf(10) ** -6):
            bad.append(c.label)
    per_curve = (time.time() - t0) / len(reps)
    _line("criterion-5 theta/Faltings window on the corpus",
          len(reps) >= 10 and not bad and per_curve < 120,
          f"{len(reps)} curves, min margin {mp.nstr(worst, 6)}, "
          f"{per_curve:.2f}s/curve")


def test_criterion_06_bost_lower_bound():
    bad = [c.label for c, rep in _window_reports()
           if not rep.verdicts["bost_lower"].ok]
    hfs = [rep.h_faltings for _, rep in _window_reports()]
    floor = mpf("-0.91894")
    ok = all(h.value >= floor - h.err for h in hfs)
    _line("criterion-6 Bost lower bound on the corpus",
          not bad and ok, f"{len(hfs)} curves, 0 fails" if ok else str(bad))


def test_criterion_07_matrix_lemma():
    t0 = time.time()
    verdicts = [(c.label, heights.matrix_lemma_check(c, prec=128))
                for c in heights.load_corpus()]
    bad = [lbl for lbl, v in verdicts if not v.ok]
    worst = min(v.margin for _, v in verdicts)
    _line("criterion-7 matrix lemma on the corpus",
          not bad and len(verdicts) >= 10,
          f"{len(verdicts)} curves, min margin {mp.nstr(worst, 5)}, "
          f"{time.time()-t0:.1f}s")


def test_criterion_08_elementary_lemmas():
    t0 = time.time()
    cfg = CampaignConfig(suite="lemmas", samples=100_000, seed=888, prec=96)
    rep = run_campaign(cfg, workers=WORKERS)
    tilde = sum(1 for r in rep.rows if r.check == "tilde-c")
    minb = sum(1 for r in rep.rows if r.check == "min-bound")
    elapsed = time.time() - t0
    _line("criterion-8 elementary lemmas",
          rep.n_fail == 0 and tilde == 100_000 and minb == 100_000
          and elapsed < 60,
          f"{tilde}+{minb} trials, {rep.n_fail} counterexamples, {elapsed:.1f}s")


def test_criterion_09_easier_constant_dominance():
    t0 = time.time()
    bad = []
    for g in range(1, 6):
        for r in (2, 4, 6, 8):
            rep = constants.easier_constants(g, r)
            if not (rep.dominates_c1 and rep.dominates_c2 and rep.dominates_c3):
                bad.append((g, r))
    _line("criterion-9 easier-constant dominance",
          not bad, f"grid g<=5, r in {{2,4,6,8}}, {len(bad)} fails, "
          f"{time.time()-t0:.2f}s")


def test_criterion_10_delta_metric_axioms():
    t0 = time.time()
    cfg = CampaignConfig(suite="delta-metric", samples=10_000, seed=1010,
                         prec=96, n_max=4)
    rep = run_campaign(cfg, workers=WORKERS)
    tri = sum(1 for r in rep.rows if r.check == "triangle")
    dual = sum(1 for r in rep.rows if r.check == "dual-oracle")
    elapsed = time.time() - t0
    _line("criterion-10 delta metric axioms",
          rep.n_fail == 0 and tri == 10_000 and dual == 10_000 and elapsed < 60,
          f"{tri} triples, {rep.n_fail} violations, {elapsed:.1f}s")


def test_criterion_11_siegel_reduction_round_trip():
    t0 = time.time()
    tol = mpf(2) ** -64
    fails = 0
    for k in range(1000):
        rng = sampling.substream(1111, f"rt:{k}")
        tau = sampling.random_siegel_point(rng, 1)
        res = reduce_g1(tau, 128)
        z = res.reduced.tau_complex()
        chk = act(res.gamma, tau, 128).tau_complex()
        if not (fabs(chk - z) < 10 * tol and fabs(z.real) <= mpf("0.5")
                and fabs(z) >= 1 - tol):
            fails += 1
    elapsed = time.time() - t0
    _line("criterion-11 Siegel reduction round trip",
          fails == 0 and elapsed < 30, f"1000 points, {fails} fails, "
          f"{elapsed:.1f}s")


def test_criterion_12_campaign_determinism():
    cfg = CampaignConfig(suite="norm-bounds", samples=8, seed=1212, prec=96, g=2)
    a = run_campaign(cfg, workers=1)
    b = run_campaign(cfg, workers=3)
    c = run_campaign(cfg, workers=1)
    same = (a.to_csv() == b.to_csv() == c.to_csv()
            and a.to_json() == b.to_json() == c.to_json())
    _line("criterion-12 bitwise-deterministic reports", same,
          "identical across re-runs and worker counts 1/3")
