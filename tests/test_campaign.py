import hashlib

import pytest

from thetaheights import constants
from thetaheights.campaign import (CampaignConfig, ConfigMismatchError, Row,
                                   compute_sample, replay, run_campaign)


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(suite="nope", samples=1, seed=0)
    with pytest.raises(ValueError):
        CampaignConfig(suite="lemmas", samples=0, seed=0)
    with pytest.raises(ValueError):
        CampaignConfig(suite="lemmas", samples=1, seed=0, prec=32)
    with pytest.raises(ValueError):
        CampaignConfig(suite="norm-bounds", samples=1, seed=0, g=3)
    with pytest.raises(ValueError):
        CampaignConfig(suite="norm-bounds", samples=1, seed=0, r=3)


@pytest.mark.parametrize("call", [
    lambda: CampaignConfig(suite="lemmas", samples=2.5, seed=1),
    lambda: CampaignConfig(suite="lemmas", samples=True, seed=1),
    lambda: CampaignConfig(suite="lemmas", samples=2, seed=2.5),
    lambda: CampaignConfig(suite="lemmas", samples=2, seed=1, prec=96.5),
    lambda: CampaignConfig(suite="norm-bounds", samples=2, seed=1, g=1.0),
    lambda: CampaignConfig(suite="norm-bounds", samples=2, seed=1, g=True),
    lambda: CampaignConfig(suite="duplication", samples=2, seed=1, steps=2.0),
    lambda: CampaignConfig(suite="delta-metric", samples=2, seed=1, n_max=2.0),
    lambda: constants.m_const(2, 1.5),
    lambda: constants.C_matrix(True),
], ids=["float samples", "bool samples", "float seed", "float prec", "float g", "bool g",
        "float steps", "float n_max", "float g constant", "bool g constant"])
def test_counts_and_genus_must_be_integers(call):
    # a float or a bool where an int is meant fails at once with a clear
    # error, not with a TypeError inside a run nor as a float in a report
    with pytest.raises(ValueError, match="integer"):
        call()


def test_rerun_is_bitwise_identical():
    cfg = CampaignConfig(suite="delta-metric", samples=25, seed=123, prec=96)
    a = run_campaign(cfg)
    b = run_campaign(cfg)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_worker_count_does_not_change_report():
    cfg = CampaignConfig(suite="norm-bounds", samples=4, seed=5, prec=96, g=1)
    a = run_campaign(cfg, workers=1)
    b = run_campaign(cfg, workers=2)
    assert a.to_csv() == b.to_csv()
    assert a.rows == b.rows


def test_norm_bounds_row_budget():
    cfg = CampaignConfig(suite="norm-bounds", samples=5, seed=1, prec=96, g=1)
    rep = run_campaign(cfg)
    checks = [r.check for r in rep.rows]
    assert checks.count("prop-i") == 10  # 5 raw-phase + 5 reduced-phase
    assert checks.count("prop-ii") == 5
    assert checks.count("combined-lower") == 5
    assert checks.count("combined-upper") == 5
    assert rep.n_fail == 0


def test_every_row_replays():
    cfg = CampaignConfig(suite="lemmas", samples=10, seed=77, prec=96)
    rep = run_campaign(cfg)
    for row in rep.rows:
        assert replay(cfg, row) == row


def test_replay_detects_corruption():
    cfg = CampaignConfig(suite="delta-metric", samples=3, seed=2, prec=96)
    rep = run_campaign(cfg)
    good = rep.rows[0]
    corrupted = Row(good.sample_id, good.check, good.inputs, good.lhs,
                    good.rhs, "999", good.verdict)
    with pytest.raises(ConfigMismatchError):
        replay(cfg, corrupted)
    alien = Row("tri:0", "no-such-check", "{}", "-", "-", "0", "pass")
    with pytest.raises(ConfigMismatchError):
        replay(cfg, alien)


def test_window_campaign_uses_corpus():
    cfg = CampaignConfig(suite="window", samples=3, seed=0, prec=96)
    rep = run_campaign(cfg)
    assert rep.summary["rows"] == 12  # 4 verdicts per curve
    assert rep.n_fail == 0


def test_summary_counts_match_rows():
    cfg = CampaignConfig(suite="duplication", samples=3, seed=4, prec=96,
                         g=1, steps=3)
    rep = run_campaign(cfg)
    s = rep.summary
    assert s["rows"] == len(rep.rows)
    assert s["pass"] + s["fail"] + s["indeterminate"] == s["rows"]
    assert rep.n_fail == 0


def test_wall_time_not_serialized():
    cfg = CampaignConfig(suite="lemmas", samples=2, seed=0, prec=96)
    rep = run_campaign(cfg)
    assert rep.wall_time > 0
    assert "wall" not in rep.to_json()
    assert "wall" not in rep.to_csv()


def test_compute_sample_is_pure():
    cfg = CampaignConfig(suite="delta-metric", samples=1, seed=11, prec=96)
    assert compute_sample(cfg, "tri:0") == compute_sample(cfg, "tri:0")


@pytest.mark.parametrize("g, r, samples, digest, verdicts", [
    (1, 2, 100, "5516e9f5b62bff0462749aea07e9dacca06fe63380eab7eb12780bfbcd1d6301",
     "572a606e7320402c19658851d8e7ddd89a5b6915e696ff454124024444db2fe7"),
    (2, 2, 24, "8a36af3e7aab5a0908591a2db57768c773007249222dda4317833f4ef7dd91cf",
     "738ff82f26a493cbdce46b623b6d9b4ce4e1d14158360a7392bdcc4400387b2c"),
    (2, 4, 4, "1adbe8ece94299c41ad95ff9cd9a8beeb762df0e8a5703c9cde942808940611a",
     "41074ab5888c32713ed451f413793a7a25f80a5e5c0a86b9e8362e065f3f7efc"),
], ids=["g1-r2", "g2-r2", "g2-r4"])
def test_norm_bounds_reports_are_pinned(g, r, samples, digest, verdicts):
    # digest: sha256 of to_csv() + to_json(), taken once the prop-i and
    # prop-ii rows printed their det-free lhs, rhs and margin (det Im tau
    # cancelled from both sides); at g = 1 taken again once the walk kept
    # only the terms inside its ellipsoid (six margins moved in their last
    # printed digit).  verdicts: sha256 of the (sample id,
    # check, verdict) projection, which no change of how a check is formed
    # may move
    cfg = CampaignConfig(suite="norm-bounds", samples=samples, seed=56,
                         prec=96, g=g, r=r)
    rep = run_campaign(cfg)
    projection = "".join(f"{row.sample_id},{row.check},{row.verdict}\n" for row in rep.rows)
    assert hashlib.sha256(projection.encode()).hexdigest() == verdicts
    assert hashlib.sha256((rep.to_csv() + rep.to_json()).encode()).hexdigest() == digest


# (sample id, check) of every indeterminate row of the duplication audit at
# seed 56, prec 96, steps 6, taken while each top characteristic had its own
# box walk; all of them are monotonicity steps whose two enclosures overlap
DUPLICATION_INDETERMINATE = {
    1: {(1, 4), (1, 5), (3, 5), (4, 5), (5, 4), (5, 5), (6, 5), (8, 4),
        (8, 5), (10, 5), (11, 4), (11, 5), (14, 5), (15, 4), (15, 5),
        (16, 4), (16, 5), (19, 5), (20, 5), (21, 5), (22, 5)},
    2: {(3, 5), (4, 5), (5, 5), (6, 5)},
}


@pytest.mark.parametrize("g, samples", [(1, 24), (2, 8)])
def test_duplication_audit_never_loses_a_pass(g, samples):
    # a change of the theta engine may turn an indeterminate row into a
    # pass, but no pass may become indeterminate and nothing may fail
    cfg = CampaignConfig(suite="duplication", samples=samples, seed=56,
                         prec=96, g=g, steps=6)
    pinned = {(f"dup:{sid}", f"monotone-{k}")
              for sid, k in DUPLICATION_INDETERMINATE[g]}
    rows = run_campaign(cfg).rows
    assert len(rows) == samples * 7
    for row in rows:
        if (row.sample_id, row.check) in pinned:
            assert row.verdict in ("pass", "indeterminate"), row
        else:
            assert row.verdict == "pass", row


def _counted_tilde_c(monkeypatch):
    from thetaheights import constants
    calls = []
    tilde_c = constants.tilde_c

    def counted(c, prec=128):
        calls.append(c)
        return tilde_c(c, prec)
    monkeypatch.setattr(constants, "tilde_c", counted)
    return calls


def test_tilde_c_rows_inside_the_guard_are_decided_certified(monkeypatch):
    # |a - b| equals the double rhs up to one rounding, far inside the
    # 2^-40 guard: the certified tilde_c must decide the row, with the
    # sign of the exact margin
    import math
    from mpmath import log, mpf, workprec
    from thetaheights import campaign, constants
    from thetaheights.certified import FAIL, INDETERMINATE, PASS
    a, c = 1.0, 2.0
    rhs = c * math.log(6 + 2 * c * math.log(2 * c) - 2 * c) / math.log(3) * math.log(3.0)
    b = a + rhs
    with workprec(300):
        exact_rhs = constants.tilde_c(2, 280).value * log(3)
        expected = PASS if mpf(b) - mpf(a) <= exact_rhs else FAIL
    calls = _counted_tilde_c(monkeypatch)
    row = campaign._tilde_row("tilde:x", a, b, c, 96)
    assert len(calls) == 1
    assert row.verdict == expected != INDETERMINATE
    # a row far from a tie stays in doubles
    far = campaign._tilde_row("tilde:y", 1.0, 1.5, 2.0, 96)
    assert far.verdict == PASS and len(calls) == 1
