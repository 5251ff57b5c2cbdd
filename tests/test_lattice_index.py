"""The index identity against its oracle, and the integer dual/intersection
against their Fraction definitions."""
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thetaheights import lattices, sampling
from thetaheights.campaign import CampaignConfig, compute_sample, run_campaign
from thetaheights.certified import FAIL, PASS
from thetaheights.exactla import inverse, matvec
from thetaheights.lattices import (IntegerLattice, LatticeError, delta_exact,
                                   dual, index, intersect, lattice_sum,
                                   quotient_card)


def frac_dual(l):
    """(B^-1)^T with an exact Fraction inverse."""
    return IntegerLattice.from_rows(tuple(zip(*inverse(l.basis_fractions()))))


def frac_intersect(l1, l2):
    return frac_dual(lattice_sum(frac_dual(l1), frac_dual(l2)))


def seeded_lattices(tag, n, count):
    """Integer lattices and, every other one, a dual (denominator > 1)."""
    rng = sampling.substream(17, f"{tag}:{n}")
    out = []
    for k in range(count):
        l = sampling.random_lattice(rng, n)
        out.append(frac_dual(l) if k % 2 else l)
    return out


rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
pair = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.lists(st.lists(rational, min_size=n, max_size=n),
                                   min_size=n, max_size=n)] * 2))


@settings(max_examples=150, deadline=None)
@given(pair)
def test_index_identity_matches_oracle(mats):
    try:
        l1, l2 = (IntegerLattice.from_rows(m) for m in mats)
    except LatticeError:
        return
    assert index(l1, l2) == delta_exact(l1, l2)[2]
    assert index(l2, l1) == delta_exact(l2, l1)[2]


def test_index_identity_matches_oracle_n5_n6():
    for n in (5, 6):
        ls = seeded_lattices("index", n, 12)
        for l1, l2 in zip(ls, ls[1:]):
            assert index(l1, l2) == delta_exact(l1, l2)[2]


def test_integer_dual_and_intersect_match_fraction_definitions():
    for n in range(1, 7):
        ls = seeded_lattices("dual", n, 8)
        for l1, l2 in zip(ls, ls[1:]):
            assert dual(l1) == frac_dual(l1)
            assert intersect(l1, l2) == frac_intersect(l1, l2)
            # membership by integer substitution vs an exact Fraction solve
            binv = inverse(l1.basis_fractions())
            for col in zip(*l2.basis_fractions()):
                coords = matvec(binv, col)
                assert l1.contains(col) == all(q.denominator == 1 for q in coords)


def test_dimension_mismatch_is_rejected():
    plane = IntegerLattice.from_rows([[1, 0], [0, 1]])
    line = IntegerLattice.from_rows([[2]])
    for call in (lambda: plane.contains([1]), lambda: plane.contains([1, 0, 0]),
                 lambda: plane.contains_lattice(line),
                 lambda: quotient_card(line, plane), lambda: index(plane, line)):
        with pytest.raises(LatticeError):
            call()


def test_dual_oracle_row_fails_on_a_mismatch(monkeypatch):
    cfg = CampaignConfig(suite="delta-metric", samples=1, seed=11, prec=96)
    row = {r.check: r for r in compute_sample(cfg, "tri:0")}["dual-oracle"]
    assert row.verdict == PASS and row.lhs == row.rhs

    def off_by_one(l1, l2):
        s, i, card = delta_exact(l1, l2)
        return s, i, card + 1

    monkeypatch.setattr(lattices, "delta_exact", off_by_one)
    row = {r.check: r for r in compute_sample(cfg, "tri:0")}["dual-oracle"]
    assert row.verdict == FAIL and int(row.rhs) == int(row.lhs) + 1


def test_delta_metric_report_is_pinned():
    # sha256 of to_csv() + to_json(), taken with the intersection/SNF
    # index before the determinant identity replaced it
    rep = run_campaign(CampaignConfig(suite="delta-metric", samples=500,
                                      seed=1010, n_max=4))
    digest = hashlib.sha256((rep.to_csv() + rep.to_json()).encode()).hexdigest()
    assert digest == ("e5a443fe4c818f982ae35a050c64b0f46eea770f"
                      "9b62f78a895e914d7f8b6558")
