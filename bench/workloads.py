"""The three benchmark workloads.

A workload is run in *units* (one ``compute_sample`` call, one campaign, or
one curve) until the run length is used up; an *item* is what one clock
read times (one ``campaign.compute_sample`` call, or one curve).  Unit j's
inputs depend only on (seed, j), so a traced pass can replay exactly the
units an untraced pass ran.  Each unit's outputs are checked as soon as it
ends, with the clock paused, and then dropped: what a pass keeps grows by
a few numbers per item, so a faster program does not raise ``peak_rss_mb``.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
import traceback
from fractions import Fraction
from itertools import combinations

import thetaheights
from thetaheights import campaign, heights
from thetaheights.certified import FAIL, INDETERMINATE, PASS

import corpus


class Log:
    """What one pass did.  Item seconds and the wall become scaled seconds
    in ``rescale`` (see clock.py)."""

    def __init__(self):
        self.clock = None
        self.tracer = None
        self.seconds: list[float] = []     # per attempted item
        self.mids: list[float] = []        # perf_counter at each item's midpoint
        self.local_seconds: list[float] = []
        self.failed = 0                    # items that raised or gave a fail row
        self.rows = 0
        self.indeterminate = 0
        self.report_items = 0
        self.units = 0
        self.ii_computed = 0               # norms-g2 phase-ii samples computed
        self.ii_accepted = 0               # ... and kept in the report
        self.problems: list[str] = []
        self.wall = self.raw_wall = 0.0
        self.scale = 1.0
        self._digest = hashlib.sha256()

    def timed(self, item_id: str, fn, *args):
        """Run one item under one clock read.  An exception fails the item
        and is returned in place of the result; the run goes on."""
        self.clock.between_items()
        if self.tracer is not None:
            self.tracer.item = item_id
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as e:
            traceback.print_exc()
            out = e
        t1 = time.perf_counter()
        self.seconds.append(t1 - t0)
        self.mids.append((t0 + t1) / 2)
        if isinstance(out, Exception):
            self.failed += 1
        return out

    def add_rows(self, rows) -> None:
        """Record (item id, check, verdict) rows in the digest and counts."""
        for row in rows:
            self._digest.update(("\t".join(row) + "\n").encode())
            self.rows += 1
            self.indeterminate += row[2] == INDETERMINATE

    def digest(self) -> str:
        return self._digest.hexdigest()

    def rescale(self) -> None:
        """Scale the wall and item seconds by the run's scale; also keep
        each item scaled by the kernel samples around it, for quantiles."""
        self.scale = self.clock.scale()
        self.wall = self.raw_wall * self.scale
        self.local_seconds = [s * self.clock.scale_at(m)
                              for s, m in zip(self.seconds, self.mids)]
        self.seconds = [s * self.scale for s in self.seconds]


def _campaign_seed(seed: int, unit: int) -> int:
    return seed * 100_003 + unit


def _group(rows):
    out: dict[str, list] = {}
    for r in rows:
        out.setdefault(r.sample_id, []).append(r)
    return out


class NormsG2:
    """The acceptance campaign ``run_campaign(norm-bounds, samples=500, g=2,
    r=2, prec=96)`` replayed one ``compute_sample`` call per unit.

    A sample is a pure function of (config, sample id), so the replay does
    exactly the campaign's work, with phase i and phase ii alternating so
    that any prefix of the run has the campaign's mix of the two.  Phase ii
    follows ``run_campaign``'s batches exactly: batches of samples + 16
    candidates, each computed whole, until 500 are accepted.  A candidate
    the reduction rejects, or one past the 500th accepted, is computed and
    dropped, as in the campaign.  After the last sample of a campaign the
    next campaign seed starts.
    """
    SAMPLES = 500            # tests/test_acceptance.py, criteria 3 and 4
    OVERDRAW = 16            # run_campaign's phase-ii batch is samples + 16
    CFG = {"suite": "norm-bounds", "prec": 96, "g": 2, "r": 2}
    ROWS_I = ["prop-i"]
    ROWS_II = ["prop-i", "prop-ii", "combined-lower", "combined-upper"]

    def config(self) -> dict:
        return {"kind": "compute_sample replay of run_campaign",
                "samples": self.SAMPLES,
                "phase_ii_batch": self.SAMPLES + self.OVERDRAW,
                "order": "i:k and ii:k alternate", "workers": 1, **self.CFG}

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def _schedule(self):
        """(config, sample id) in unit order; reads ``self.accepted``,
        which ``run_unit`` keeps."""
        s = self.SAMPLES
        for c in itertools.count():
            cfg = campaign.CampaignConfig(samples=s, seed=_campaign_seed(self.seed, c),
                                          **self.CFG)
            self.accepted = 0
            k_i = k_ii = batch_end = 0
            while k_i < s or self.accepted < s or k_ii < batch_end:
                if k_i < s:
                    yield cfg, f"i:{k_i}"
                    k_i += 1
                if self.accepted < s or k_ii < batch_end:
                    if k_ii == batch_end:
                        batch_end += s + self.OVERDRAW
                    yield cfg, f"ii:{k_ii}"
                    k_ii += 1

    def run_unit(self, j: int, log: Log) -> None:
        if j == 0:
            self._order = self._schedule()
        cfg, sid = next(self._order)
        item_id = f"{cfg.seed}/{sid}"
        out = log.timed(item_id, campaign.compute_sample, cfg, sid)
        with log.clock.paused():
            log.units += 1
            if isinstance(out, Exception):
                log.add_rows([(item_id, "exception", FAIL)])
                log.problems.append(f"{item_id}: raised {out!r}")
                return
            if sid.startswith("ii:"):
                log.ii_computed += 1
                if not out or self.accepted >= self.SAMPLES:
                    return              # dropped by run_campaign
                self.accepted += 1
                log.ii_accepted += 1
            log.report_items += 1
            log.add_rows((item_id, r.check, r.verdict) for r in out)
            checks = [r.check for r in out]
            want = self.ROWS_I if sid.startswith("i:") else self.ROWS_II
            if checks != want and checks != ["error"]:
                log.problems.append(f"{item_id}: rows {checks}")
            if any(r.verdict == FAIL for r in out):
                log.failed += 1
                log.problems.append(f"{item_id}: fail row")


def _int_det(m: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def index_by_minors(inputs: dict) -> Fraction:
    """[L1 + L2 : L1 cap L2] = det L1 det L2 / det(L1 + L2)^2, with
    det(L1 + L2) the gcd of the maximal minors of [B1 | B2]; computed here
    without the package, as an oracle for the campaign's index."""
    n = inputs["n"]
    b1, d1, b2, d2 = inputs["b1"], inputs["d1"], inputs["b2"], inputs["d2"]
    d = math.lcm(d1, d2)
    gen = [[x * (d // d1) for x in r1] + [x * (d // d2) for x in r2]
           for r1, r2 in zip(b1, b2)]
    g = 0
    for cols in combinations(range(2 * n), n):
        g = math.gcd(g, _int_det([[row[c] for c in cols] for row in gen]))
    det1 = Fraction(_int_det(b1), d1 ** n)
    det2 = Fraction(_int_det(b2), d2 ** n)
    return abs(det1 * det2) / Fraction(g, d ** n) ** 2


class LatticeDelta:
    """``run_campaign(delta-metric, n_max=4, prec=96)``; a unit is one
    campaign of 64 triples, an item one ``compute_sample`` call."""
    SAMPLES = 64
    CFG = {"suite": "delta-metric", "prec": 96, "n_max": 4}
    ROWS = ["symmetry", "identity", "triangle", "det-product", "dual-oracle"]
    ORACLE_EVERY = 8

    def config(self) -> dict:
        return {"kind": "run_campaign", "samples_per_campaign": self.SAMPLES,
                "workers": 1, **self.CFG}

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def run_unit(self, j: int, log: Log) -> None:
        cfg = campaign.CampaignConfig(samples=self.SAMPLES,
                                      seed=_campaign_seed(self.seed, j), **self.CFG)
        inner = campaign.compute_sample

        def clocked(c, sid):
            out = log.timed(f"{c.seed}/{sid}", inner, c, sid)
            if isinstance(out, Exception):
                return [campaign.Row(sid, "exception", json.dumps({"error": repr(out)}),
                                     "-", "-", "0", FAIL)]
            log.failed += any(r.verdict == FAIL for r in out)
            return out

        campaign.compute_sample = clocked
        try:
            rep = campaign.run_campaign(cfg, workers=1)
        finally:
            campaign.compute_sample = inner
        with log.clock.paused():
            log.units += 1
            log.add_rows((f"{cfg.seed}/{r.sample_id}", r.check, r.verdict)
                         for r in rep.rows)
            by_sid = _group(rep.rows)
            log.report_items += len(by_sid)
            self.check_report(cfg, rep, by_sid, log.problems)

    def check_report(self, cfg, rep, by_sid, problems: list[str]) -> None:
        s = rep.summary
        counts = {v: sum(r.verdict == v for r in rep.rows)
                  for v in (PASS, FAIL, INDETERMINATE)}
        if (s["rows"], s["pass"], s["fail"], s["indeterminate"]) != (
                len(rep.rows), counts[PASS], counts[FAIL], counts[INDETERMINATE]):
            problems.append(f"campaign {cfg.seed}: summary disagrees with rows")
        if counts[FAIL]:
            problems.append(f"campaign {cfg.seed}: {counts[FAIL]} fail rows")
        if len(by_sid) != cfg.samples:
            problems.append(f"campaign {cfg.seed}: {len(by_sid)} triples")
        for sid, rs in by_sid.items():
            if [r.check for r in rs] != self.ROWS:
                problems.append(f"{cfg.seed}/{sid}: rows {[r.check for r in rs]}")
                continue
            if int(sid.split(":")[1]) % self.ORACLE_EVERY == 0:
                want = index_by_minors(json.loads(rs[0].inputs))
                if want != int(rs[0].lhs):
                    problems.append(f"{cfg.seed}/{sid}: index {rs[0].lhs}, "
                                    f"oracle {want}")


class HeightsCorpus:
    """The ``heights corpus`` loop on a generated corpus; a unit is a curve.

    Set-up draws the first ``SETUP_CURVES`` curves; later ones are drawn
    when the run reaches them, with the clock paused.  Curve j is entry j of
    the seed's ``corpus.Stream``, so no curve is checked twice in a pass.
    """
    SETUP_CURVES = 16
    PREC = 128
    CHECKS = ("window_lower", "window_upper", "bost_lower", "hf_lower")

    def config(self) -> dict:
        return {"kind": "window_check + matrix_lemma_check per curve",
                "setup_curves": self.SETUP_CURVES, "prec": self.PREC,
                "workers": 1, "family": "y^2+xy=x^3+((B-A-1)/4)x^2-(AB/16)x",
                "max_abs_ab": corpus.MAX_ABS}

    def prepare(self, seed: int) -> None:
        self.corpus = corpus.Stream(seed)
        self.corpus.extend_to(self.SETUP_CURVES)

    @property
    def rejected(self) -> int:
        return self.corpus.rejected

    def _check_curve(self, curve):
        rep = heights.window_check(curve, self.PREC)
        return rep, heights.matrix_lemma_check(curve, self.PREC)

    def run_unit(self, j: int, log: Log) -> None:
        with log.clock.paused():
            (a, b), curve = self.corpus.get(j)
        item_id = f"curve:{j}:{curve.label}"
        out = log.timed(item_id, self._check_curve, curve)
        with log.clock.paused():
            log.units += 1
            if isinstance(out, Exception):
                log.add_rows([(item_id, "exception", FAIL)])
                log.problems.append(f"{item_id}: raised {out!r}")
                return
            rep, ml = out
            verdicts = [(name, rep.verdicts[name].verdict) for name in self.CHECKS]
            verdicts.append(("matrix-lemma", ml.verdict))
            log.add_rows((item_id, name, v) for name, v in verdicts)
            log.report_items += 1
            bad = [name for name, v in verdicts if v == FAIL]
            if bad:
                log.failed += 1
                log.problems.append(f"{item_id}: fail on {bad}")
            if rep.lam not in corpus.cross_ratios(a, b):
                log.problems.append(f"{item_id}: lambda {rep.lam} is not a "
                                    "cross-ratio of the 2-torsion")


WORKLOADS = {
    "norms-g2": NormsG2,
    "heights-corpus": HeightsCorpus,
    "lattice-delta": LatticeDelta,
}

MODULES = {name: getattr(thetaheights, name) for name in
           ("campaign", "certified", "constants", "exactla", "heights",
            "lattices", "sampling", "siegel", "theta")}
MODULES["thetaheights"] = thetaheights
