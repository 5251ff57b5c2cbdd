"""Unified command line front end.

Matrices come and go as row-major JSON arrays of [re, im] decimal-string
pairs; rationals as "p/q" strings.  Exit code 0 means no check failed, 1
means at least one fail row, 2 means usage or input error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from math import lcm

from mpmath import mpf, mpc, nstr, workprec

from . import campaign, constants, heights, lattices, siegel, theta


def _digits(prec: int) -> int:
    return max(20, int(prec * 0.30103) + 2)


def _fmt(x, prec: int) -> str:
    return nstr(mpf(x), _digits(prec))


def _parse_tau(text: str, prec: int) -> siegel.SiegelPoint:
    data = json.loads(text)
    with workprec(prec + 32):
        rows = [[mpc(mpf(str(e[0])), mpf(str(e[1]))) for e in row] for row in data]
    return siegel.SiegelPoint.from_rows(rows)


def _dump_tau(tau: siegel.SiegelPoint, prec: int):
    return [[[_fmt(tau.re[i][j], prec), _fmt(tau.im[i][j], prec)]
             for j in range(tau.g)] for i in range(tau.g)]


def _parse_z(text: str, prec: int):
    data = json.loads(text)
    if data and not isinstance(data[0], list):
        data = [data]
    with workprec(prec + 32):
        return tuple(mpc(mpf(str(e[0])), mpf(str(e[1]))) for e in data)


def _parse_char(spec: str, r_opt: int | None) -> theta.ThetaCharacteristic:
    try:
        m1_txt, m2_txt = spec.split(";")
        m1 = [Fraction(t) for t in m1_txt.split(",") if t.strip()]
        m2 = [Fraction(t) for t in m2_txt.split(",") if t.strip()]
    except ValueError as e:
        raise SystemExit(f"bad --char {spec!r}: expected 'a1/r,...;b1/r,...'") from e
    r = r_opt or lcm(*[v.denominator for v in m1 + m2], 2)
    if r % 2:
        r *= 2
    return theta.ThetaCharacteristic(r, tuple(m1), tuple(m2))


def _parse_rational_matrix(text: str):
    data = json.loads(text)
    return [[Fraction(str(x)) for x in row] for row in data]


def _verdict_doc(v, prec: int):
    return {"lhs": _fmt(v.lhs, prec), "rhs": _fmt(v.rhs, prec),
            "margin": _fmt(v.margin, prec), "verdict": v.verdict}


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_siegel_reduce(args) -> int:
    tau = _parse_tau(args.tau, args.prec)
    gens = None
    if args.generators:
        with open(args.generators) as fh:
            gens = [siegel.SymplecticMatrix(
                tau.g,
                tuple(tuple(int(x) for x in row) for row in d["alpha"]),
                tuple(tuple(int(x) for x in row) for row in d["beta"]),
                tuple(tuple(int(x) for x in row) for row in d["lam"]),
                tuple(tuple(int(x) for x in row) for row in d["mu"]))
                for d in json.load(fh)]
    if tau.g == 1:
        res = siegel.reduce_g1(tau, args.prec)
    else:
        res = siegel.reduce_heuristic(tau, gens, args.prec)
    cert = res.certificate
    rep = cert.report
    doc = {
        "reduced": _dump_tau(res.reduced, args.prec),
        "gamma": {"alpha": [list(r) for r in res.gamma.alpha],
                  "beta": [list(r) for r in res.gamma.beta],
                  "lam": [list(r) for r in res.gamma.lam],
                  "mu": [list(r) for r in res.gamma.mu]},
        "certificate": {
            "converged": cert.converged,
            "iterations": cert.iterations,
            "det_history": [_fmt(d, args.prec) for d in cert.det_history],
            "action_residual": _fmt(cert.action_residual, args.prec),
            "s2_ok": rep.s2_ok,
            "s3_quadform_ok": rep.s3_quadform_ok,
            "s3_offdiag_ok": rep.s3_offdiag_ok,
            "s1_ok": rep.s1_ok,
            "s1_note": rep.s1_note,
            "s3_note": rep.s3_note,
        },
    }
    _emit(args, json.dumps(doc, indent=1) + "\n")
    return 0


def _cmd_theta_eval(args) -> int:
    tau = _parse_tau(args.tau, args.prec)
    z = _parse_z(args.z, args.prec) if args.z else None
    char = _parse_char(args.char, args.r) if args.char else None
    v = theta.theta(tau, z, char, args.prec)
    doc = {"value": [_fmt(v.value.real, args.prec), _fmt(v.value.imag, args.prec)],
           "err": nstr(v.err, 8)}
    _emit(args, json.dumps(doc, indent=1) + "\n")
    return 0


def _cmd_theta_verify_bounds(args) -> int:
    cfg = campaign.CampaignConfig(suite="norm-bounds", samples=args.samples,
                                  seed=args.seed, prec=args.prec, g=args.g,
                                  r=args.r)
    rep = campaign.run_campaign(cfg, workers=args.workers)
    lines = ["sample_id,lhs,rhs,margin,verdict"]
    for r in rep.rows:
        lines.append(f"{r.sample_id}/{r.check},{r.lhs},{r.rhs},{r.margin},{r.verdict}")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if rep.n_fail == 0 else 1


def _cmd_constants_table(args) -> int:
    tab = constants.table(args.g, args.r, args.d, args.c1, args.c2, args.prec)
    rows = []
    for name, val in tab.entries.items():
        rows.append({"name": name, "formula": tab.formulas.get(name, ""),
                     "value": _fmt(val.value, args.prec), "err": nstr(val.err, 6)})
    if args.format == "csv":
        lines = ["name,formula,value,err"]
        for r in rows:
            lines.append(f'{r["name"]},"{r["formula"]}",{r["value"]},{r["err"]}')
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, json.dumps({"g": args.g, "r": args.r, "constants": rows},
                               indent=1) + "\n")
    return 0


def _parse_curve(text: str) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise SystemExit("--curve expects a1,a2,a3,a4,a6")
    return [Fraction(p) for p in parts]


def _height_report_doc(curve, rep: heights.HeightReport, prec: int):
    return {
        "label": curve.label,
        "curve": [str(x) for x in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)],
        "lambda": str(rep.lam),
        "stable": rep.stable,
        "h_theta": {"value": _fmt(rep.h_theta.value, prec), "err": nstr(rep.h_theta.err, 6)},
        "h_faltings": {"value": _fmt(rep.h_faltings.value, prec), "err": nstr(rep.h_faltings.err, 6)},
        "tau_reduced": _dump_tau(rep.tau_reduced, prec),
        "window_value": {"value": _fmt(rep.window_value.value, prec),
                         "err": nstr(rep.window_value.err, 6)},
        "verdicts": {k: _verdict_doc(v, prec) for k, v in rep.verdicts.items()},
    }


def _cmd_heights_verify(args) -> int:
    a = _parse_curve(args.curve)
    curve = heights.EllipticCurveQ.from_coefficients(
        *a, minimal=args.minimal, semistable=args.semistable)
    rep = heights.window_check(curve, args.prec, allow_relative=args.allow_relative)
    _emit(args, json.dumps(_height_report_doc(curve, rep, args.prec), indent=1) + "\n")
    return 0 if rep.all_ok else 1

def _cmd_heights_corpus(args) -> int:
    curves = heights.load_corpus(args.file)
    lines = ["label,a1,a2,a3,a4,a6,lambda,h_theta,h_faltings,tau_im,"
             "window_value,window_lower,window_upper,bost_lower,hf_lower,matrix_lemma"]
    n_fail = 0
    for c in curves:
        rep = heights.window_check(c, args.prec)
        ml = heights.matrix_lemma_check(c, args.prec)
        verdicts = [rep.verdicts["window_lower"].verdict,
                    rep.verdicts["window_upper"].verdict,
                    rep.verdicts["bost_lower"].verdict,
                    rep.verdicts["hf_lower"].verdict,
                    ml.verdict]
        n_fail += sum(v == "fail" for v in verdicts)
        lines.append(",".join([
            c.label, str(c.a1), str(c.a2), str(c.a3), str(c.a4), str(c.a6),
            str(rep.lam), _fmt(rep.h_theta.value, args.prec),
            _fmt(rep.h_faltings.value, args.prec),
            _fmt(rep.tau_reduced.im[0][0], args.prec),
            _fmt(rep.window_value.value, args.prec), *verdicts]))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if n_fail == 0 else 1


def _cmd_lattice_delta(args) -> int:
    l1 = lattices.IntegerLattice.from_rows(_parse_rational_matrix(args.basis1))
    l2 = lattices.IntegerLattice.from_rows(_parse_rational_matrix(args.basis2))
    s, i, index = lattices.delta_exact(l1, l2)

    def dump(l: lattices.IntegerLattice):
        return [[str(Fraction(x, l.den)) for x in row] for row in l.num]

    doc = {"delta": repr(math.log(index)), "index": index,
           "sum_hnf": dump(s), "intersection_hnf": dump(i)}
    _emit(args, json.dumps(doc, indent=1) + "\n")
    return 0


def _cmd_campaign_run(args) -> int:
    cfg = campaign.CampaignConfig(
        suite=args.suite, samples=args.samples, seed=args.seed, prec=args.prec,
        g=args.g, r=args.r, steps=args.steps, n_max=args.n_max,
        corpus=args.corpus)
    rep = campaign.run_campaign(cfg, workers=args.workers)
    text = rep.to_json() if args.format == "json" else rep.to_csv()
    _emit(args, text)
    print(f"suite={cfg.suite} rows={rep.summary['rows']} pass={rep.summary['pass']} "
          f"fail={rep.summary['fail']} indeterminate={rep.summary['indeterminate']} "
          f"wall={rep.wall_time:.2f}s", file=sys.stderr)
    return 0 if rep.n_fail == 0 else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thetaheights",
        description="Certified theta evaluation, Siegel reduction, explicit "
                    "height-comparison constants, g=1 height verification, "
                    "and the exact lattice distance.")
    ap.add_argument("--prec", type=int, default=128, help="working precision in bits")
    ap.add_argument("--seed", type=int, default=0, help="campaign seed")
    ap.add_argument("--out", default=None, help="output path (default stdout)")
    ap.add_argument("--format", choices=("csv", "json"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    sg = sub.add_parser("siegel").add_subparsers(dest="sub", required=True)
    p = sg.add_parser("reduce", help="reduce tau toward the fundamental domain")
    p.add_argument("--tau", required=True)
    p.add_argument("--generators", default=None)
    p.set_defaults(fn=_cmd_siegel_reduce)

    th = sub.add_parser("theta").add_subparsers(dest="sub", required=True)
    p = th.add_parser("eval", help="certified theta value")
    p.add_argument("--tau", required=True)
    p.add_argument("--z", default=None)
    p.add_argument("--char", default=None, help="'a1/r,...;b1/r,...'")
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(fn=_cmd_theta_eval)
    p = th.add_parser("verify-bounds", help="sampled two-sided norm bounds")
    p.add_argument("--g", type=int, choices=(1, 2), required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, dest="sub_seed")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_theta_verify_bounds)

    co = sub.add_parser("constants").add_subparsers(dest="sub", required=True)
    p = co.add_parser("table", help="all explicit constants at (g, r)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.set_defaults(fn=_cmd_constants_table)

    he = sub.add_parser("heights").add_subparsers(dest="sub", required=True)
    p = he.add_parser("verify", help="window and lower-bound checks for one curve")
    p.add_argument("--curve", required=True, help="a1,a2,a3,a4,a6 (rationals)")
    p.add_argument("--minimal", action="store_true")
    p.add_argument("--semistable", action="store_true")
    p.add_argument("--allow-relative", action="store_true")
    p.set_defaults(fn=_cmd_heights_verify)
    p = he.add_parser("corpus", help="height report for every corpus curve")
    p.add_argument("--file", default=None)
    p.set_defaults(fn=_cmd_heights_corpus)

    la = sub.add_parser("lattice").add_subparsers(dest="sub", required=True)
    p = la.add_parser("delta", help="lattice distance, sum, intersection, index")
    p.add_argument("--basis1", required=True)
    p.add_argument("--basis2", required=True)
    p.set_defaults(fn=_cmd_lattice_delta)

    ca = sub.add_parser("campaign").add_subparsers(dest="sub", required=True)
    p = ca.add_parser("run", help="seeded verification campaign")
    p.add_argument("--suite", choices=campaign.SUITES, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, dest="sub_seed")
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--n-max", type=int, default=4, dest="n_max")
    p.add_argument("--corpus", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_campaign_run)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # a subcommand-level --seed wins over the global one
    if getattr(args, "sub_seed", None) is not None:
        args.seed = args.sub_seed
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
