import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import hnf_columns_min_scan
from thetaheights import sampling
from thetaheights.lattices import (IntegerLattice, InvariantBreach,
                                   LatticeError, delta, delta_exact, dual,
                                   hnf_columns, intersect, lattice_sum,
                                   quotient_card, scaling_invariance_check,
                                   snf_divisors)


def L(*rows):
    return IntegerLattice.from_rows(list(rows))


def test_hnf_identity():
    assert L([1, 0], [0, 1]).num == ((1, 0), (0, 1))


def test_hnf_canonical_small():
    l = L([2, 1], [0, 1])
    # lower triangular, positive pivots, left entries reduced mod pivot
    assert l.num[0][1] == 0 and l.num[1][1] > 0
    assert 0 <= l.num[1][0] < l.num[1][1] or l.num[1][1] == 1


def test_hnf_column_permutation_invariant():
    assert L([2, 1], [0, 1]) == L([1, 2], [1, 0])


def test_hnf_rational_and_content():
    l = L([Fraction(1, 2), 0], [0, 1])
    assert l.den == 2 and l.num == ((1, 0), (0, 2))
    assert l.det() == Fraction(1, 2)
    scaled = L([2, 0], [0, 2])
    assert scaled.den == 1 and scaled.num == ((2, 0), (0, 2))


def test_singular_rejected():
    with pytest.raises(LatticeError):
        L([1, 2], [2, 4])


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [3, 4]]])
def test_ragged_rows_rejected(rows):
    with pytest.raises(LatticeError, match="rows of unequal length"):
        IntegerLattice.from_rows(rows)


@st.composite
def hnf_inputs(draw):
    """n x m integer matrices, n <= 6 and n - 1 <= m <= 2n, with uniform
    entries up to 10^6 in size; a quarter of them made rank deficient by
    replacing the last row with a combination of the others."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(max(1, n - 1), 2 * n))
    bound = draw(st.sampled_from([2, 10, 10 ** 6]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
    if draw(st.integers(0, 3)) == 0:
        coeffs = [rng.randint(-3, 3) for _ in rows[:-1]]
        rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows))
                    for j in range(m)]
    return rows


def _outcome(hnf, rows):
    try:
        return hnf(rows)
    except LatticeError:
        return LatticeError


@settings(max_examples=400, deadline=None)
@given(hnf_inputs())
def test_hnf_matches_min_scan_oracle(rows):
    # sampling.random_lattice rejects on LatticeError, so the sampled
    # lattices (and every delta-metric digest) need the same errors too
    assert _outcome(hnf_columns, rows) == _outcome(hnf_columns_min_scan, rows)


def test_scaled_is_the_hnf_of_the_scaled_basis():
    rng = sampling.substream(21, "scaled")
    for _ in range(20):
        n = rng.randint(1, 4)
        l = dual(sampling.random_lattice(rng, n))
        for k in (1, 2, 6, 35):
            assert l.scaled(k) == IntegerLattice.from_rows(
                [[Fraction(k * x, l.den) for x in row] for row in l.num])


@pytest.mark.parametrize("u, message", [
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), "2 x 2 integer matrix"),
    (((1,),), "2 x 2 integer matrix"),
    (((1, 0), (0, Fraction(1, 2))), "2 x 2 integer matrix"),
    (((2, 0), (0, 1)), "not unimodular"),
])
def test_transformed_rejects_a_bad_u(u, message):
    with pytest.raises(LatticeError, match=message):
        L([2, 1], [0, 3]).transformed(u)


def test_sum_idempotent_and_gcd():
    a = L([2, 0], [0, 2])
    assert lattice_sum(a, a) == a
    b = L([3, 0], [0, 3])
    assert lattice_sum(a, b) == L([1, 0], [0, 1])


def test_sum_absorbs_sublattice():
    sub = L([2, 0], [0, 1])
    assert lattice_sum(sub, L([1, 0], [0, 1])) == L([1, 0], [0, 1])


def test_intersect_idempotent_lcm_sublattice():
    a = L([2])
    b = L([3])
    assert intersect(a, a) == a
    assert intersect(a, b) == L([6])
    sub = L([2, 0], [0, 3])
    assert intersect(sub, L([1, 0], [0, 1])) == sub


def test_quotient_card_examples():
    z2 = L([1, 0], [0, 1])
    assert quotient_card(z2, z2) == 1
    assert quotient_card(L([2, 0], [0, 3]), z2) == 6
    with pytest.raises(LatticeError):
        quotient_card(z2, L([2, 0], [0, 3]))


def test_quotient_card_unimodular_conjugated_diagonal():
    rng = sampling.substream(3, "diag")
    for _ in range(20):
        n = rng.randint(1, 4)
        diag = [rng.randint(1, 9) for _ in range(n)]
        u = sampling.random_unimodular(rng, n)
        rows = [[u[i][j] * diag[j] for j in range(n)] for i in range(n)]
        sup = IntegerLattice.from_rows([[u[i][j] for j in range(n)] for i in range(n)])
        sub = IntegerLattice.from_rows(rows)
        prod = 1
        for d in diag:
            prod *= d
        assert quotient_card(sub, sup) == prod


def test_snf_divisor_chain():
    assert snf_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert snf_divisors([[4, 2], [2, 4]]) == [2, 6]
    divs = snf_divisors([[6, 4, 1], [2, 8, 9], [5, 5, 5]])
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0


def test_delta_examples():
    z2 = L([1, 0], [0, 1])
    sub = L([2, 0], [0, 3])
    assert delta(z2, z2) == 0.0
    assert abs(delta(z2, sub) - math.log(6)) < 1e-14
    s, i, idx = delta_exact(L([2, 0], [0, 1]), L([1, 0], [0, 3]))
    assert idx == 6 and s == z2 and i == L([2, 0], [0, 3])


def test_delta_zero_means_identical_hnf():
    a = L([2, 1], [0, 1])
    b = L([1, 2], [1, 0])
    _, _, idx = delta_exact(a, b)
    assert idx == 1 and a == b


def test_monotone_inclusions_and_det_product():
    rng = sampling.substream(5, "mono")
    for _ in range(25):
        n = rng.randint(1, 4)
        l1 = sampling.random_lattice(rng, n)
        l2 = sampling.random_lattice(rng, n)
        s = lattice_sum(l1, l2)
        i = intersect(l1, l2)
        assert s.contains_lattice(l1)
        assert l1.contains_lattice(i)
        assert abs(s.det() * i.det()) == abs(l1.det() * l2.det())


small_mat = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(max_examples=120, deadline=None)
@given(small_mat, small_mat, small_mat)
def test_metric_axioms(m1, m2, m3):
    n = len(m1)
    if len(m2) != n or len(m3) != n:
        return
    try:
        l1, l2, l3 = (IntegerLattice.from_rows(m) for m in (m1, m2, m3))
    except LatticeError:
        return
    _, _, d12 = delta_exact(l1, l2)
    _, _, d21 = delta_exact(l2, l1)
    _, _, d13 = delta_exact(l1, l3)
    _, _, d23 = delta_exact(l2, l3)
    assert d12 == d21
    assert (d12 == 1) == (l1 == l2)
    # triangle inequality, multiplicatively on exact indices
    assert d13 <= d12 * d23


def test_scaling_and_unimodular_invariance():
    rng = sampling.substream(9, "scale")
    for _ in range(15):
        n = rng.randint(1, 4)
        l1 = sampling.random_lattice(rng, n)
        l2 = sampling.random_lattice(rng, n)
        u = sampling.random_unimodular(rng, n)
        rep = scaling_invariance_check(l1, l2, k=5, u=u)
        assert rep.ok


def test_dual_is_involutive():
    rng = sampling.substream(13, "dual")
    for _ in range(10):
        l = sampling.random_lattice(rng, rng.randint(1, 4))
        assert dual(dual(l)) == l
