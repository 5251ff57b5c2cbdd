import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mpf, fabs, workprec

from thetaheights import heights
from thetaheights.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_siegel_reduce(capsys):
    code, out = run(capsys, "siegel", "reduce", "--tau", '[[["0.7","0.4"]]]')
    assert code == 0
    doc = json.loads(out)
    assert fabs(mpf(doc["reduced"][0][0][0]) - mpf("0.2")) < 1e-15
    assert fabs(mpf(doc["reduced"][0][0][1]) - mpf("1.6")) < 1e-15
    assert doc["certificate"]["converged"]
    assert doc["certificate"]["s2_ok"]
    gamma = doc["gamma"]
    assert all(len(gamma[k]) == 1 for k in ("alpha", "beta", "lam", "mu"))


@pytest.mark.parametrize("gen,message", [
    ({"alpha": [[2, 0], [0, 1]], "beta": [[0, 0], [0, 0]],
      "lam": [[0, 0], [0, 0]], "mu": [[1, 0], [0, 1]]}, "not symplectic"),
    ({"alpha": [[1]], "beta": [[0]], "lam": [[0]], "mu": [[1]]}, "2 x 2"),
])
def test_siegel_reduce_rejects_bad_generators(capsys, tmp_path, gen, message):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([gen]))
    code = main(["siegel", "reduce", "--tau",
                 '[[["0.1","1.2"],["0.2","0.3"]],[["0.2","0.3"],["0.4","1.5"]]]',
                 "--generators", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


@pytest.mark.parametrize("gen,message", [
    ({"alpha": [[1, 0], [0, 1]]}, "no 'beta' block"),
    ({"alpha": [[1, 0], [0, 1]], "beta": [[0, 0], [0, 0]],
      "lam": [[0, 0], [0, 0]], "mu": [[1.5, 0], [0, 1]]}, "1.5 is not an integer"),
    ({"alpha": 1, "beta": [[0, 0], [0, 0]],
      "lam": [[0, 0], [0, 0]], "mu": [[1, 0], [0, 1]]}, "'alpha' is not a matrix"),
])
def test_siegel_reduce_rejects_malformed_generators(capsys, tmp_path, gen, message):
    # a missing block or a fractional entry is an input error, not a
    # traceback and not a silently truncated matrix
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([gen]))
    code = main(["siegel", "reduce", "--tau",
                 '[[["0.1","1.2"],["0.2","0.3"]],[["0.2","0.3"],["0.4","1.5"]]]',
                 "--generators", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_siegel_reduce_honours_generators_at_g1(capsys, tmp_path):
    # g = 1 runs the reduction loop of every g, so a supplied list is used:
    # with T(1) alone, which never raises det Im, 0.3 + 0.2i stays unreduced,
    # while the default list (S, T) inverts it
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([{"alpha": [[1]], "beta": [[1]], "lam": [[0]],
                                 "mu": [[1]]}]))
    tau = '[[["0.3","0.2"]]]'
    code, out = run(capsys, "siegel", "reduce", "--tau", tau, "--generators", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == {"alpha": [[1]], "beta": [[0]], "lam": [[0]], "mu": [[1]]}
    assert fabs(mpf(doc["reduced"][0][0][0]) - mpf("0.3")) < 1e-15
    assert fabs(mpf(doc["reduced"][0][0][1]) - mpf("0.2")) < 1e-15
    assert doc["certificate"]["converged"] and doc["certificate"]["s1_ok"]
    code, out = run(capsys, "siegel", "reduce", "--tau", tau)
    assert code == 0 and json.loads(out)["gamma"]["lam"] != [[0]]


def test_theta_eval_with_char(capsys):
    code, out = run(capsys, "theta", "eval", "--tau", '[[["0","1"]]]',
                    "--char", "1/2;1/2")
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["value"][0])) < 1e-25
    assert float(doc["err"]) < 1e-20


def test_theta_verify_bounds_csv(capsys):
    code, out = run(capsys, "theta", "verify-bounds", "--g", "1", "--r", "2",
                    "--samples", "2", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sample_id,lhs,rhs,margin,verdict"
    assert all(line.endswith(",pass") for line in lines[1:])
    assert len(lines) == 1 + 2 + 2 * 4


def test_constants_table_json(capsys):
    code, out = run(capsys, "constants", "table", "--g", "1", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    by_name = {e["name"]: e for e in doc["constants"]}
    assert fabs(mpf(by_name["m"]["value"]) + mpf("0.75353829937756792")) < 1e-15
    assert by_name["C1"]["formula"].startswith("(2g/pi)")


def test_heights_verify(capsys):
    code, out = run(capsys, "heights", "verify", "--curve", "1,1,1,-10,-10",
                    "--minimal", "--semistable")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == "9/25"
    assert doc["stable"] is True
    assert all(v["verdict"] == "pass" for v in doc["verdicts"].values())


def test_heights_verify_refuses_without_claims(capsys):
    code, _ = run(capsys, "heights", "verify", "--curve", "0,0,0,-1,0")
    assert code == 2


def test_lattice_delta(capsys):
    code, out = run(capsys, "lattice", "delta",
                    "--basis1", '[["2","0"],["0","1"]]',
                    "--basis2", '[["1","0"],["0","3"]]')
    assert code == 0
    doc = json.loads(out)
    assert doc["index"] == 6
    assert doc["sum_hnf"] == [["1", "0"], ["0", "1"]]
    assert doc["intersection_hnf"] == [["2", "0"], ["0", "3"]]


@pytest.mark.parametrize("basis", ['[[1,2],[3]]', '[[1],[3,4]]'])
def test_lattice_delta_rejects_ragged_basis(capsys, basis):
    code = main(["lattice", "delta", "--basis1", basis,
                 "--basis2", '[[1,0],[0,1]]'])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: rows of unequal length\n"


def test_campaign_exit_code_and_file(tmp_path, capsys):
    out_path = tmp_path / "rep.csv"
    code, _ = run(capsys, "--format", "csv", "--out", str(out_path),
                  "campaign", "run", "--suite", "lemmas", "--samples", "3",
                  "--seed", "1")
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("sample_id,check,inputs")
    assert ",fail" not in text


@pytest.mark.parametrize("command", [["theta", "eval"], ["siegel", "reduce"]])
def test_asymmetric_tau_is_exit_2(capsys, command):
    # tau12 = 0.1 + 0.2i but tau21 = 0.3 + 0.2i: an input error, not the
    # value of the upper entry in both places
    code = main(command + ["--tau",
                           '[[["0","1"],["0.1","0.2"]],[["0.3","0.2"],["0","2"]]]'])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: tau must be symmetric\n"


def test_bad_input_is_exit_2(capsys):
    code, _ = run(capsys, "heights", "verify", "--curve", "0,0,0,0,0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--prec", "0", "theta", "eval", "--tau", '[[["0.1","1.0"]]]'],
    ["--prec", "-3", "theta", "eval", "--tau", '[[["0.1","1.0"]]]'],
    ["campaign", "run", "--suite", "norm-bounds", "--samples", "2", "--workers", "-2"],
    ["theta", "verify-bounds", "--g", "1", "--samples", "2", "--workers", "0"],
])
def test_nonpositive_prec_or_workers_is_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("fmt, argv", [
    ("csv", ["siegel", "reduce", "--tau", '[[["0.7","0.4"]]]']),
    ("csv", ["theta", "eval", "--tau", '[[["0","1"]]]']),
    ("json", ["theta", "verify-bounds", "--g", "1", "--samples", "1"]),
    ("csv", ["heights", "verify", "--curve", "1,1,1,-10,-10", "--minimal", "--semistable"]),
    ("json", ["heights", "corpus"]),
    ("csv", ["lattice", "delta", "--basis1", '[["1"]]', "--basis2", '[["2"]]']),
], ids=["siegel-reduce", "theta-eval", "theta-verify-bounds", "heights-verify",
        "heights-corpus", "lattice-delta"])
def test_format_a_command_does_not_write_is_exit_2(capsys, fmt, argv):
    code = main(["--format", fmt, *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "writes only" in captured.err


def test_heights_corpus_rejects_uncertified_claims(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("label,a1,a2,a3,a4,a6,minimal,semistable\n"
                    "lemn,0,0,0,-1,0,true,true\n")
    assert main(["heights", "corpus", "--file", str(path)]) == 2
    assert "'lemn'" in capsys.readouterr().err


def test_heights_corpus_computes_the_periods_once_per_curve(tmp_path, capsys, monkeypatch):
    # one window_check per curve: one period analysis and one theta height
    # serve the window, the lower bounds and the matrix lemma
    calls = []
    lams = []
    periods_agm = heights.periods_agm
    theta_height = heights._theta_height

    def counted(curve, prec):
        calls.append(curve.label)
        return periods_agm(curve, prec)

    def counted_theta_height(lam):
        lams.append(lam)
        return theta_height(lam)
    monkeypatch.setattr(heights, "periods_agm", counted)
    monkeypatch.setattr(heights, "_theta_height", counted_theta_height)
    path = tmp_path / "two.csv"
    path.write_text("label,a1,a2,a3,a4,a6,minimal,semistable\n"
                    "c225,1,1,1,-5,2,true,true\n"
                    "c289,1,-1,1,-6,-4,true,true\n")
    code, out = run(capsys, "--format", "csv", "heights", "corpus", "--file", str(path))
    assert code == 0 and len(out.strip().splitlines()) == 3
    assert calls == ["c225", "c289"]
    assert lams == [Fraction(1, 16), Fraction(1, 17)]


@pytest.mark.parametrize("argv, digest", [
    (["heights", "corpus"],
     "b04deb4e532af5554ae6f34f2747140ffd343252eb4ac1c6a5d41f03edd8c389"),
    (["heights", "verify", "--curve", "1,1,1,-10,-10", "--minimal", "--semistable"],
     "92ef41e9fad6d2b3ec02053d1480d659322ff8a6f296b6f9ade43d5d05da9852"),
], ids=["corpus", "verify"])
def test_heights_output_is_pinned(capsys, argv, digest):
    # sha256 of the output bytes with no --format, taken when the heights
    # became closed forms in two certified AGMs: the printed values moved
    # within their former certified errors, and the errors shrank.  The
    # verify pin moved again with the ball arithmetic: the three printed
    # errors shrank (no ulp cushion per operation), values and margins held.
    # It moved once more, again only through the three errors, when h_theta
    # became one log of one integer enclosure (its error shrank) and h_F two
    # AGM logs and log(36 pi) (its error grew, and the window's with it).
    # Then the three errors shrank once more, when the products by 1/2 and
    # 1/4 became exact shifts and the AGM's upper end came from its one run
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["theta", "eval", "--tau", '[[["0.1","1.3"]]]', "--z", '["0.3","0.2"]',
     "--char", "1/2;0"],
    ["siegel", "reduce", "--tau", '[[["0.3","0.2"]]]'],
    ["heights", "verify", "--curve", "1,1,1,-10,-10", "--minimal", "--semistable"],
    ["constants", "table", "--g", "1", "--r", "2"],
    ["campaign", "run", "--suite", "window", "--samples", "2"],
], ids=["theta-eval", "siegel-reduce", "heights-verify", "constants-table",
        "campaign-window"])
def test_output_does_not_depend_on_the_global_precision(capsys, argv):
    # every number is printed from its own bits, never first rounded to
    # the caller's mp.prec
    outs = []
    for prec in (53, 300):
        with workprec(prec):
            assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_run_all_campaigns_help_from_a_checkout(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_all_campaigns.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(script), "--help"], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "--out-dir" in res.stdout
