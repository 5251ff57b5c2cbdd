"""Seeded verification campaigns with reproducible three-valued reports.

A campaign is a pure function of its config: every sample id maps to rows
through hash-derived substreams, workers share nothing, and rows are
assembled in sample order, so a re-run with the same config is bitwise
identical regardless of worker count.  Wall time lives on the report object
but is deliberately left out of the serialized forms.
"""
from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field

from mpmath import fabs, mpf, nstr, workprec

from . import constants, heights, lattices, sampling, siegel, theta
from .certified import (FAIL, GUARD_BITS, INDETERMINATE, PASS, CertifiedReal,
                        PrecisionError, certified_le, fmt)

SUITES = ("norm-bounds", "duplication", "window", "matrix-lemma",
          "delta-metric", "lemmas")


class ConfigMismatchError(ValueError):
    """A row cannot be replayed under the given config."""


@dataclass(frozen=True)
class CampaignConfig:
    suite: str
    samples: int
    seed: int
    prec: int = 128
    g: int = 1
    r: int = 2
    steps: int = 6
    n_max: int = 4
    corpus: str | None = None

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        for name in ("samples", "seed", "prec", "g", "steps", "n_max"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.prec < 64:
            raise ValueError("prec must be >= 64")
        if self.suite in ("norm-bounds", "duplication") and self.g not in (1, 2):
            raise ValueError("sampled tau suites support g in {1, 2}")
        theta._check_level(self.r)
        if self.suite == "duplication" and self.steps < 1:
            raise ValueError("duplication needs steps >= 1")
        if self.suite == "delta-metric" and not 1 <= self.n_max <= 6:
            raise ValueError("delta-metric supports n_max in 1..6")


@dataclass(frozen=True)
class Row:
    sample_id: str
    check: str
    inputs: str
    lhs: str
    rhs: str
    margin: str
    verdict: str


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    rows: tuple[Row, ...]
    summary: dict
    wall_time: float = field(compare=False, default=0.0)

    @property
    def n_fail(self) -> int:
        return self.summary["fail"]

    def to_csv(self) -> str:
        lines = ["sample_id,check,inputs,lhs,rhs,margin,verdict"]
        for r in self.rows:
            inputs = r.inputs.replace('"', '""')
            lines.append(f'{r.sample_id},{r.check},"{inputs}",{r.lhs},{r.rhs},'
                         f'{r.margin},{r.verdict}')
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "config": {k: v for k, v in self.config.__dict__.items()},
            "rows": [r.__dict__ for r in self.rows],
            "summary": self.summary,
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _verdict_row(sid, check, inputs, verdict) -> Row:
    return Row(sid, check, inputs, fmt(verdict.lhs), fmt(verdict.rhs),
               fmt(verdict.margin), verdict.verdict)


def _tau_inputs(tau: siegel.SiegelPoint) -> str:
    return json.dumps([[[nstr(tau.re[i][j], 17), nstr(tau.im[i][j], 17)]
                        for j in range(tau.g)] for i in range(tau.g)])


# ---------------------------------------------------------------------------
# per-suite sample computations (pure functions of (config, sample_id))


def _norm_bounds_sample(cfg: CampaignConfig, sid: str) -> list[Row]:
    rng = sampling.substream(cfg.seed, sid)
    tau = sampling.random_siegel_point(rng, cfg.g)
    with workprec(cfg.prec + GUARD_BITS):
        if sid.startswith("i:"):
            rep = theta.verify_norm_bounds(tau, cfg.r, None, cfg.prec)
            return [_verdict_row(sid, "prop-i", _tau_inputs(tau), rep.max_lower)]
        red = siegel.reduce_heuristic(tau, prec=cfg.prec)
        if not red.certificate.report.all_ok:
            return []
        z = sampling.random_z(rng, red.reduced, cfg.prec)
        rep = theta.verify_norm_bounds(red.reduced, cfg.r, z, cfg.prec,
                                       assume_reduced=True)
        inputs = _tau_inputs(red.reduced)
        return [
            _verdict_row(sid, "prop-i", inputs, rep.max_lower),
            _verdict_row(sid, "prop-ii", inputs, rep.upper),
            _verdict_row(sid, "combined-lower", inputs, rep.combined_lower),
            _verdict_row(sid, "combined-upper", inputs, rep.combined_upper),
        ]


def _duplication_sample(cfg: CampaignConfig, sid: str) -> list[Row]:
    rng = sampling.substream(cfg.seed, sid)
    tau = sampling.random_siegel_point(rng, cfg.g)
    inputs = _tau_inputs(tau)
    with workprec(cfg.prec + GUARD_BITS):
        rep = theta.verify_duplication(tau, cfg.steps, cfg.prec)
        rows = [_verdict_row(sid, f"monotone-{k}", inputs, v)
                for k, v in enumerate(rep.monotone)]
        # |theta(2^steps tau, 0) - 1| against the radius-0 certified tail
        t0 = theta.theta_truncated(rep.top, None, None, 0, cfg.prec)
        gap = rep.theta00_gap[-1]
        # the limit claim, verified to working precision: the 2^(8-prec)
        # allowance absorbs the rounding part of both certified errors
        rhs = t0.err + mpf(2) ** (8 - cfg.prec)
        verdict = PASS if gap <= rhs else FAIL
        rows.append(Row(sid, "convergence", inputs, fmt(gap), fmt(rhs),
                        fmt(rhs - gap), verdict))
    return rows


@functools.lru_cache(maxsize=8)
def _load_corpus(path: str | None) -> tuple:
    """The corpus at path, parsed once per path and process."""
    return tuple(heights.load_corpus(path))


def _window_sample(cfg: CampaignConfig, sid: str) -> list[Row]:
    curve = _load_corpus(cfg.corpus)[int(sid.split(":")[1])]
    inputs = json.dumps({"label": curve.label,
                         "a": [str(x) for x in (curve.a1, curve.a2, curve.a3,
                                                curve.a4, curve.a6)]})
    rep = heights.window_check(curve, cfg.prec)
    return [_verdict_row(sid, name, inputs, v) for name, v in rep.verdicts.items()]


def _matrix_lemma_sample(cfg: CampaignConfig, sid: str) -> list[Row]:
    curve = _load_corpus(cfg.corpus)[int(sid.split(":")[1])]
    inputs = json.dumps({"label": curve.label})
    v = heights.matrix_lemma_check(curve, cfg.prec)
    return [_verdict_row(sid, "matrix-lemma", inputs, v)]


def _delta_sample(cfg: CampaignConfig, sid: str) -> list[Row]:
    rng = sampling.substream(cfg.seed, sid)
    n = rng.randint(1, cfg.n_max)
    l1 = sampling.random_lattice(rng, n)
    l2 = sampling.random_lattice(rng, n)
    l3 = sampling.random_lattice(rng, n)
    inputs = json.dumps({"n": n, "b1": [list(r) for r in l1.num], "d1": l1.den,
                         "b2": [list(r) for r in l2.num], "d2": l2.den,
                         "b3": [list(r) for r in l3.num], "d3": l3.den})
    rows = []
    try:
        idx12 = lattices.index(l1, l2)
        idx21 = lattices.index(l2, l1)
        idx13 = lattices.index(l1, l3)
        idx23 = lattices.index(l2, l3)
        idx11 = lattices.index(l1, l1)
        # the independent oracle: intersection by duality, SNF-checked index
        s12, i12, oracle12 = lattices.delta_exact(l1, l2)
    except lattices.InvariantBreach:
        return [Row(sid, "dual-oracle", inputs, "-", "-", "0", FAIL)]
    rows.append(Row(sid, "symmetry", inputs, str(idx12), str(idx21),
                    "0", PASS if idx12 == idx21 else FAIL))
    rows.append(Row(sid, "identity", inputs, str(idx11), "1",
                    "0", PASS if idx11 == 1 else FAIL))
    tri_ok = idx13 <= idx12 * idx23
    margin = math.log(idx12 * idx23) - math.log(idx13)
    rows.append(Row(sid, "triangle", inputs, str(idx13), str(idx12 * idx23),
                    fmt(margin), PASS if tri_ok else FAIL))
    det_ok = abs(s12.det() * i12.det()) == abs(l1.det() * l2.det())
    rows.append(Row(sid, "det-product", inputs, str(s12.det() * i12.det()),
                    str(l1.det() * l2.det()), "0", PASS if det_ok else FAIL))
    rows.append(Row(sid, "dual-oracle", inputs, str(idx12), str(oracle12), "0",
                    PASS if idx12 == oracle12 else FAIL))
    return rows


def _tilde_row(sid: str, a: float, b: float, c: float, prec: int) -> Row:
    """|a - b| <= tilde_c(c) log(2 + min(a, b)) for c >= 2, a, b >= 1,
    decided in doubles outside the guard 2^-40 rhs.  With u = 2^-53 and
    libm's log within 1 ulp: 2c log(2c) errs by <= 3.01u relative; for
    c >= 2, v = 6 + 2c log(2c) - 2c > 7.5 and 2c log(2c) <= 3.7 v (as
    2c <= 2c log(2c)/log 4), so v errs by <= 17u and log v > 2 by <= 11u,
    with no cancellation; tilde_c then errs by <= 16u and
    log(2 + min(a, b)) >= log 3 by <= 3u, so the double rhs is within
    21u < 2^-48 of the exact one, lhs within u, and the margin within u of
    their difference: beyond the guard its sign is exact.  Inside it
    ``constants.tilde_c`` and ``certified_le`` decide the row."""
    inputs = json.dumps({"a": repr(a), "b": repr(b), "c": repr(c)})
    ct = c * math.log(6 + 2 * c * math.log(2 * c) - 2 * c) / math.log(3)
    lhs = abs(a - b)
    rhs = ct * math.log(2 + min(a, b))
    if abs(rhs - lhs) > 2.0 ** -40 * rhs:
        return Row(sid, "tilde-c", inputs, repr(lhs), repr(rhs), repr(rhs - lhs),
                   PASS if rhs > lhs else FAIL)
    with workprec(prec + GUARD_BITS):
        gap = CertifiedReal.rounded(fabs(mpf(a) - mpf(b)), ulps=1)
        log_min = (CertifiedReal.exact(2) + CertifiedReal.exact(min(a, b))).log()
        v = certified_le(gap, constants.tilde_c(c, prec) * log_min)
    return _verdict_row(sid, "tilde-c", inputs, v)


def _lemmas_sample(cfg: CampaignConfig, sid: str) -> list[Row]:
    rng = sampling.substream(cfg.seed, sid)
    if sid.startswith("tilde:"):
        a, b, c = (float(x) for x in sampling.random_tilde_lemma_instance(rng))
        return [_tilde_row(sid, a, b, c, cfg.prec)]
    af, bf, cf, df = sampling.random_min_lemma_instance(rng)
    # the conclusion is checked exactly over Q; the sampler tests the
    # hypothesis |a - b| <= c log(2 + min(a, b)) in doubles only
    rhs = (1 + 2 * cf) * min(af, bf)
    ok = df <= rhs
    inputs = json.dumps({"a": repr(float(af)), "b": repr(float(bf)),
                         "c": repr(float(cf)), "d": repr(float(df))})
    return [Row(sid, "min-bound", inputs, repr(float(df)), repr(float(rhs)),
                repr(float(rhs - df)), PASS if ok else FAIL)]


_DISPATCH = {
    "norm-bounds": _norm_bounds_sample,
    "duplication": _duplication_sample,
    "window": _window_sample,
    "matrix-lemma": _matrix_lemma_sample,
    "delta-metric": _delta_sample,
    "lemmas": _lemmas_sample,
}


def compute_sample(cfg: CampaignConfig, sid: str) -> list[Row]:
    try:
        return _DISPATCH[cfg.suite](cfg, sid)
    except (PrecisionError, theta.ReduceFirstError) as e:
        # certified-error failures become indeterminate rows, never passes
        return [Row(sid, "error", json.dumps({"error": str(e)}), "-", "-",
                    "0", INDETERMINATE)]


def _worker(args) -> tuple[str, list[Row]]:
    cfg, sid = args
    return sid, compute_sample(cfg, sid)


def _map_samples(cfg, sids, workers):
    if workers <= 1:
        return {sid: compute_sample(cfg, sid) for sid in sids}
    # imported on first use: multiprocessing adds 1.4-2.7 MB of resident
    # memory, which single-worker runs never need
    from concurrent.futures import ProcessPoolExecutor
    out = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for sid, rows in pool.map(_worker, [(cfg, s) for s in sids],
                                  chunksize=max(1, len(sids) // (8 * workers) or 1)):
            out[sid] = rows
    return out


def _sample_ids(cfg: CampaignConfig) -> list[str]:
    if cfg.suite == "norm-bounds":
        return [f"i:{k}" for k in range(cfg.samples)]
    if cfg.suite == "duplication":
        return [f"dup:{k}" for k in range(cfg.samples)]
    if cfg.suite in ("window", "matrix-lemma"):
        n = min(cfg.samples, len(_load_corpus(cfg.corpus)))
        return [f"curve:{k}" for k in range(n)]
    if cfg.suite == "delta-metric":
        return [f"tri:{k}" for k in range(cfg.samples)]
    if cfg.suite == "lemmas":
        return ([f"tilde:{k}" for k in range(cfg.samples)]
                + [f"min:{k}" for k in range(cfg.samples)])
    raise AssertionError(cfg.suite)


def run_campaign(cfg: CampaignConfig, workers: int = 1) -> CampaignReport:
    """Deterministic given the config; worker count only affects wall time."""
    t0 = time.time()
    ids = _sample_ids(cfg)
    results = _map_samples(cfg, ids, workers)
    ordered: list[Row] = []
    for sid in ids:
        ordered.extend(results[sid])

    if cfg.suite == "norm-bounds":
        # phase ii: keep drawing reduced candidates until `samples` of them
        # pass the fundamental-domain report; acceptance is a pure function
        # of the id, so this scan is deterministic too.
        accepted = 0
        batch_start = 0
        while accepted < cfg.samples:
            batch = [f"ii:{k}" for k in
                     range(batch_start, batch_start + cfg.samples + 16)]
            batch_start += len(batch)
            got = _map_samples(cfg, batch, workers)
            for sid in batch:
                rows = got[sid]
                if rows and accepted < cfg.samples:
                    ordered.extend(rows)
                    accepted += 1
            if batch_start > 50 * cfg.samples:
                raise RuntimeError("reduction rejected almost every sample")

    counts = {PASS: 0, FAIL: 0, INDETERMINATE: 0}
    min_margin = None
    for r in ordered:
        counts[r.verdict] += 1
        try:
            m = float(r.margin)
            if min_margin is None or m < min_margin:
                min_margin = m
        except ValueError:
            pass
    summary = {
        "suite": cfg.suite, "samples": cfg.samples, "seed": cfg.seed,
        "prec": cfg.prec, "g": cfg.g, "r": cfg.r,
        "rows": len(ordered), "pass": counts[PASS], "fail": counts[FAIL],
        "indeterminate": counts[INDETERMINATE],
        "min_margin": repr(min_margin) if min_margin is not None else "",
    }
    return CampaignReport(cfg, tuple(ordered), summary, time.time() - t0)


def replay(cfg: CampaignConfig, row: Row) -> Row:
    """Recompute one report row from its sample id; raises on any mismatch."""
    rows = compute_sample(cfg, row.sample_id)
    for r in rows:
        if r.check == row.check:
            if r != row:
                raise ConfigMismatchError(
                    f"row {row.sample_id}/{row.check} does not replay under "
                    "this config")
            return r
    raise ConfigMismatchError(
        f"sample {row.sample_id!r} has no check {row.check!r} under this config")
