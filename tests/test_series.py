import random

import pytest

from ggpart import (
    BivariateSeries,
    BressoudParams,
    DivergentProductError,
    TruncatedSeries,
    bressoud_multisum,
    bressoud_product,
    gg_companion_bivariate,
    gg_mark,
    kursungoz_cell,
    pochhammer,
    row_counts,
    verify,
)
from ggpart.membership import all_partitions, enumerate_E

from helpers import e_cell


def test_pochhammer_examples():
    # (1+q)(1+q^3)(1+q^5)... counts partitions into distinct odd parts
    s = pochhammer(+1, 1, 2, None, 6)
    oracle = [
        sum(1 for p in all_partitions(n) if all(v % 2 for v in p) and len(set(p)) == len(p))
        for n in range(7)
    ]
    assert list(s.coeffs) == oracle == [1, 1, 0, 1, 1, 1, 1]
    assert pochhammer(-1, 2, 2, 2, 6).coeffs == (1, 0, -1, 0, -1, 0, 1)
    assert pochhammer(-1, 3, 4, 0, 5) == TruncatedSeries.one(5)


def test_pochhammer_degenerate_and_errors():
    assert pochhammer(-1, 0, 2, 1, 4).coeffs == (0, 0, 0, 0, 0)
    assert pochhammer(+1, 0, 3, None, 4).coeffs[0] == 2
    with pytest.raises(DivergentProductError):
        pochhammer(+1, 1, 0, None, 8)
    with pytest.raises(DivergentProductError):
        pochhammer(+1, -2, 2, None, 8)
    with pytest.raises(ValueError):
        pochhammer(+1, -2, 2, 3, 8)


def test_ring_laws_randomized():
    rng = random.Random(7)
    qmax = 64
    for _ in range(25):
        a, b, c = (
            TruncatedSeries([rng.randint(-9, 9) for _ in range(qmax + 1)], qmax)
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)
        assert a * TruncatedSeries.one(qmax) == a
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_reciprocal():
    rng = random.Random(11)
    for _ in range(10):
        coeffs = [1] + [rng.randint(-5, 5) for _ in range(40)]
        s = TruncatedSeries(coeffs, 40)
        assert s * s.reciprocal() == TruncatedSeries.one(40)
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1], 5).reciprocal()


PARAM_SETS = [
    BressoudParams((1,), 2, 3, 3),
    BressoudParams((1,), 2, 4, 3),
    BressoudParams((1,), 2, 4, 4),
    BressoudParams((1, 2), 3, 3, 3),
]


@pytest.mark.parametrize("params", PARAM_SETS, ids=str)
def test_multisum_equals_product(params):
    assert bressoud_multisum(params, 28) == bressoud_product(params, 28)


def test_multisum_degenerate_single_index():
    params = BressoudParams((), 2, 2, 2)
    assert bressoud_multisum(params, 16)[0] == 1
    assert verify.conjecture(params, 16).ok


@pytest.mark.parametrize("params", PARAM_SETS[:2] + PARAM_SETS[3:], ids=str)
def test_series_match_enumeration(params):
    assert verify.product(params, 22).ok


def test_product_truncation_trivial():
    assert bressoud_product(BressoudParams((1,), 2, 3, 3), 0).coeffs == (1,)


def test_companion_bivariate_small():
    assert gg_companion_bivariate(18).coefficient(0, 0) == 1
    res = verify.companion(18)
    assert res.ok and res.checked == 19, res.first


def test_bivariate_collapse_commutes():
    biv = gg_companion_bivariate(20)
    prod = bressoud_product(BressoudParams((1,), 2, 3, 3), 20)
    assert biv.at_x1() == prod
    a = BivariateSeries([{0: 1}, {1: 2}], 8)
    b = BivariateSeries([{0: 1}, {0: -1, 1: 1}], 8)
    assert (a * b).at_x1() == a.at_x1() * b.at_x1()
    assert (a + b).at_x1() == a.at_x1() + b.at_x1()


def test_cell_trivial_and_example():
    assert kursungoz_cell((0, 0), 3, 10) == TruncatedSeries.one(10)
    cell = kursungoz_cell((1, 0), 3, 12)
    enum = [len(e_cell((1, 0), 3, n)) for n in range(13)]
    assert list(cell.coeffs) == enum == [0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    with_x = kursungoz_cell((2, 1), 3, 16, track_x=True)
    assert with_x.at_x1() == kursungoz_cell((2, 1), 3, 16)
    assert all(set(c) <= {3} for c in with_x.coeffs)  # x-degree is the part count


def test_cells_sum_to_even_family_gf():
    qmax = 24
    total = TruncatedSeries.zero(qmax)
    n1 = 0
    while 2 * n1 * n1 <= qmax:
        for n2 in range(0, n1 + 1):
            total = total + kursungoz_cell((n1, n2), 3, qmax)
        n1 += 1
    counts = [len(enumerate_E(3, 3, n)) for n in range(qmax + 1)]
    assert list(total.coeffs) == counts


def test_cell_weighted_enumeration_with_x():
    qmax = 20
    for counts in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        cell = kursungoz_cell(counts, 3, qmax, track_x=True)
        for n in range(qmax + 1):
            members = e_cell(counts, 3, n)
            want: dict[int, int] = {}
            for p in members:
                want[len(p)] = want.get(len(p), 0) + 1
            assert want == dict(cell.coeffs[n]), (counts, n)


def test_row_counts_helper():
    mp = gg_mark((8, 6, 4, 2, 2))
    assert row_counts(mp, 3) == (mp.N(1), mp.N(2), mp.N(3))
