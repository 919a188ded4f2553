from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggpart import (
    BivariateSeries,
    BressoudParams,
    TruncatedSeries,
    all_partitions,
    bressoud_multisum,
    bressoud_product,
    enumerate_B,
    enumerate_C,
    enumerate_F33,
    enumerate_I,
    gg_companion_bivariate,
    gg_mark,
    kursungoz_cell,
    row_counts,
    verify,
)
from ggpart.membership import enumerate_E
from ggpart.series import _div_one_minus, _div_one_plus, _mul_one_plus

from helpers import (
    Index,
    e_cell,
    loop_div_one_minus,
    loop_mul_one_plus,
)


@given(st.lists(st.integers(-10**6, 10**6), max_size=70), st.sampled_from([1, -1]))
@example([3, -1, 4, 1, -5, 9, 2, -6, 5, 3] * 5, 1)  # len 50: e=7 steps by residue, e=8 by block
@example([2, 7, -1, 8, 2, -8, 1, 8, 2] * 7 + [1, 8, 4, 5, 9, -4], -1)  # len 69: 8*8 = len - 5, 9*9 = len + 12
@settings(max_examples=150, deadline=None)
def test_kernels_match_plain_loops(c, sign):
    for e in range(1, len(c) + 3):
        for fast, slow, args in (
            (_mul_one_plus, loop_mul_one_plus, (e, sign)),
            (_div_one_minus, loop_div_one_minus, (e,)),
        ):
            got, want = c[:], c[:]
            fast(got, *args)
            slow(want, *args)
            assert got == want, (fast.__name__, e)
        back = c[:]
        _mul_one_plus(back, e, -1)
        _div_one_minus(back, e)
        assert back == c
        back = c[:]
        _mul_one_plus(back, e)
        _div_one_plus(back, e)
        assert back == c


def test_kernels_reject_a_nonpositive_divisor():
    for e in (0, -2):
        with pytest.raises(ValueError):
            _div_one_minus([1, 2, 3], e)


PARAM_SETS = [
    BressoudParams((1,), 2, 3, 3),
    BressoudParams((1,), 2, 4, 3),
    BressoudParams((1,), 2, 4, 4),
    BressoudParams((1, 2), 3, 3, 3),
]


@pytest.mark.parametrize("params", PARAM_SETS, ids=str)
def test_multisum_equals_product(params):
    assert bressoud_multisum(params, 28) == bressoud_product(params, 28)


def _grid():
    """Every symmetric alpha set for eta in 1..4 (lambda 0 to 3), k in 2..6
    and r from max(lambda, 1) to k: 157 parameter sets."""
    for eta in range(1, 5):
        for lam in range(4):
            for alphas in combinations(range(1, eta), lam):
                if any(a != eta - alphas[lam - 1 - i] for i, a in enumerate(alphas)):
                    continue
                for k in range(max(2, lam + 1), 7):
                    for r in range(max(lam, 1), k + 1):
                        yield BressoudParams(alphas, eta, k, r)


GRID = list(_grid())


def test_grid_reaches_every_step():
    assert len(GRID) == 157
    assert {p.lam for p in GRID} == {0, 1, 2, 3}  # lambda >= 2 divides by (1 + q^e)
    for params in (
        BressoudParams((1, 2), 3, 4, 2),
        BressoudParams((1, 3), 4, 5, 4),
        BressoudParams((1, 2, 3), 4, 5, 3),
    ):
        assert params in GRID


def test_multisum_equals_product_deep():
    for params in GRID:
        assert bressoud_multisum(params, 200) == bressoud_product(params, 200), params


def test_companion_at_every_row_cut():
    # q^0..q^40 crosses each perfect square, where the walk cuts its x-rows:
    # each truncation is the head of the deepest one
    deep = gg_companion_bivariate(40).coeffs
    for q in range(41):
        coeffs = gg_companion_bivariate(q).coeffs
        assert coeffs == deep[: q + 1], q
        assert all(list(c) == sorted(c) for c in coeffs), q  # ascending x-degree


def test_multisum_degenerate_single_index():
    params = BressoudParams((), 2, 2, 2)
    assert bressoud_multisum(params, 16)[0] == 1
    assert verify.conjecture(params, 16).ok
    # the walk needs an index N_1 and no more alphas than indexes
    with pytest.raises(ValueError, match=r"^multi-sum needs k >= 2, got k=1$"):
        bressoud_multisum(BressoudParams((), 2, 1, 1), 8)
    with pytest.raises(ValueError, match=r"^needs lambda <= k-1, got lambda=2, k=2$"):
        bressoud_multisum(BressoudParams((1, 2), 3, 2, 2), 8)


@pytest.mark.parametrize("params", PARAM_SETS[:2] + PARAM_SETS[3:], ids=str)
def test_series_match_enumeration(params):
    assert verify.product(params, 22).ok


def test_product_truncation_trivial():
    assert bressoud_product(BressoudParams((1,), 2, 3, 3), 0).coeffs == (1,)


GG33 = BressoudParams((1,), 2, 3, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bressoud_product(GG33, -1),
        lambda: bressoud_multisum(GG33, -1),
        lambda: gg_companion_bivariate(-1),
        lambda: kursungoz_cell((1, 0), 3, -1),
        lambda: verify.conjecture(GG33, -1),
        lambda: verify.product(GG33, -1),
        lambda: verify.sum_product(GG33, -1),
        lambda: verify.companion(-1),
        lambda: verify.cell(4, 3, -1),
        lambda: verify.members_by_weight(3, 3, -1),
        lambda: TruncatedSeries([1, 2, 3], -1),
        lambda: BivariateSeries([{0: 1}], -1),
    ],
    ids=[
        "bressoud_product", "bressoud_multisum", "gg_companion_bivariate", "kursungoz_cell",
        "verify.conjecture", "verify.product", "verify.sum_product", "verify.companion",
        "verify.cell qmax", "verify.members_by_weight",
        "TruncatedSeries", "BivariateSeries",
    ],
)
def test_negative_bounds_rejected(call):
    with pytest.raises(ValueError, match="must be >= 0, got -1"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: bressoud_product(GG33, 4.5),
        lambda: bressoud_multisum(GG33, 4.5),
        lambda: gg_companion_bivariate(4.5),
        lambda: kursungoz_cell((1, 0), 3, 4.5),
    ],
    ids=["bressoud_product", "bressoud_multisum", "gg_companion_bivariate", "kursungoz_cell"],
)
def test_non_integer_bounds_rejected(call):
    # a float bound used to fail deep inside with a bare TypeError
    with pytest.raises(ValueError, match=r"^qmax must be an integer, got 4\.5$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda b: TruncatedSeries([1, 2, 3], b(4)),
        lambda b: (lambda s: (s.qmax, s.coeffs))(BivariateSeries([{0: 1}], b(3))),
        lambda b: bressoud_product(GG33, b(12)),
        lambda b: bressoud_multisum(GG33, b(12)),
        lambda b: gg_companion_bivariate(b(12)).coeffs,
        lambda b: kursungoz_cell((1, 0), 3, b(12)),
        lambda b: enumerate_B(GG33, b(8)),
        lambda b: enumerate_C(3, 3, b(8)),
        lambda b: enumerate_I(b(1), b(12)),
        lambda b: enumerate_F33(b(8)),
        lambda b: list(all_partitions(b(6))),
        lambda b: verify.cell(4, 3, b(12)),
        lambda b: verify.members_by_weight(3, 3, b(8)),
        lambda b: verify.product(GG33, b(12)),
        lambda b: verify.conjecture(GG33, b(12)),
        lambda b: verify.companion(b(12)),
    ],
    ids=[
        "TruncatedSeries", "BivariateSeries", "bressoud_product", "bressoud_multisum",
        "gg_companion_bivariate", "kursungoz_cell", "enumerate_B", "enumerate_C", "enumerate_I",
        "enumerate_F33", "all_partitions", "verify.cell",
        "verify.members_by_weight", "verify.product", "verify.conjecture", "verify.companion",
    ],
)
def test_index_bounds_read_as_ints(call):
    # an __index__ bound used to pass the check, then fail on + or < with a bare TypeError
    assert call(Index) == call(int)


def test_non_integer_coefficients_rejected():
    # int() used to read [1.5, 2.7] as (1, 2)
    with pytest.raises(ValueError, match=r"^coefficient must be an integer, got 1\.5$"):
        TruncatedSeries([1.5, 2.7], 1)
    assert TruncatedSeries([True, 2], 2).coeffs == (1, 2, 0)


@pytest.mark.parametrize(
    "call",
    [lambda: kursungoz_cell((), 1, 5), lambda: verify.cell(1, 1, 5)],
    ids=["kursungoz_cell", "verify.cell"],
)
def test_cell_needs_k_at_least_2(call):
    with pytest.raises(ValueError, match="needs k >= 2"):
        call()


def test_companion_bivariate_small():
    assert gg_companion_bivariate(18).coeffs[0] == {0: 1}
    res = verify.companion(18)
    assert res.ok and res.checked == 19, res.first


def test_cell_refuses_non_integer_counts():
    # int() would give the (2, 1) cell for (2.7, 1)
    with pytest.raises(ValueError, match=r"^row count must be an integer, got 2\.7$"):
        kursungoz_cell((2.7, 1), 3, 20)
    assert kursungoz_cell([Index(2), 1], 3, 20) == kursungoz_cell((2, 1), 3, 20)


def test_result_value():
    res = verify.sum_product(BressoudParams((1,), 2, 3, 3), 5)
    assert repr(res) == "Result(checked=6, failures=0, first=None)" and res.ok
    same = verify.Result(6, 0, None)
    assert res == same and hash(res) == hash(same) and {res: 1}[same] == 1
    with pytest.raises(AttributeError):
        res.failures = 1
    failed = verify.Result(3, 1, (2, 5, 6))
    assert not failed.ok and failed.first == (2, 5, 6) and failed != res


def test_bivariate_collapse_commutes():
    biv = gg_companion_bivariate(250)
    prod = bressoud_product(BressoudParams((1,), 2, 3, 3), 250)
    assert biv.at_x1() == prod


def test_cell_trivial_and_example():
    assert kursungoz_cell((0, 0), 3, 10) == TruncatedSeries([1], 10)
    cell = kursungoz_cell((1, 0), 3, 12)
    enum = [len(e_cell((1, 0), 3, n)) for n in range(13)]
    assert list(cell.coeffs) == enum == [0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    members = [e_cell((2, 1), 3, n) for n in range(17)]
    assert list(kursungoz_cell((2, 1), 3, 16).coeffs) == [len(ms) for ms in members]
    assert all(len(p) == 3 for ms in members for p in ms)  # x-degree is the part count


def test_cells_sum_to_even_family_gf():
    qmax = 24
    total = [0] * (qmax + 1)
    n1 = 0
    while 2 * n1 * n1 <= qmax:
        for n2 in range(0, n1 + 1):
            cell = kursungoz_cell((n1, n2), 3, qmax)
            total = [a + b for a, b in zip(total, cell.coeffs)]
        n1 += 1
    counts = [len(enumerate_E(3, 3, n)) for n in range(qmax + 1)]
    assert total == counts


def test_cell_weighted_enumeration_with_x():
    qmax = 20
    for counts in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        cell = kursungoz_cell(counts, 3, qmax)
        for n in range(qmax + 1):
            members = e_cell(counts, 3, n)
            assert cell[n] == len(members), (counts, n)
            assert all(len(p) == sum(counts) for p in members), (counts, n)


def test_row_counts_helper():
    mp = gg_mark((8, 6, 4, 2, 2))
    assert row_counts(mp, 3) == (mp.N(1), mp.N(2), mp.N(3))
