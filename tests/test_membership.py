import copy
import pickle

import pytest

from ggpart import (
    BressoudParams,
    bressoud_product,
    enumerate_B,
    enumerate_C,
    enumerate_E,
    enumerate_F33,
    enumerate_I,
    gg_companion_bivariate,
    gg_mark,
    is_bressoud_B,
    is_in_C,
    row_counts,
)
from ggpart.membership import all_partitions

from helpers import (
    Index,
    e_cell,
    loop_mul_one_plus,
)

GG33 = BressoudParams((1,), 2, 3, 3)


@pytest.mark.parametrize(
    "parts, ok",
    [((4, 2, 1), True), ((2, 2, 2), False), ((), True), ((3, 3), False), ((2, 2), True)],
)
def test_defining_conditions(parts, ok):
    assert is_bressoud_B(parts, GG33) is ok


@pytest.mark.parametrize(
    "alphas, eta, k, r",
    [((2,), 2, 3, 3), ((1, 3), 3, 3, 3), ((1,), 2, 2, 3), ((), 0, 1, 0)],
)
def test_bad_params_rejected(alphas, eta, k, r):
    with pytest.raises(ValueError):
        BressoudParams(alphas, eta, k, r)


def test_r_zero_rejected():
    # "at most r-1 parts <= eta" admits nothing at r = 0, not even ()
    with pytest.raises(ValueError, match=r"need k >= r >= max\(lambda, 1\), got k=3 r=0 lambda=0"):
        BressoudParams((), 2, 3, 0)


def test_params_value():
    params = BressoudParams([Index(1)], 2, 3, 3)
    assert repr(params) == "BressoudParams(alphas=(1,), eta=2, k=3, r=3)"
    assert params.alphas == (1,) and type(params.alphas[0]) is int
    assert params == GG33 and hash(params) == hash(GG33) and {params: 1}[GG33] == 1
    assert params != BressoudParams((1,), 2, 4, 3)
    with pytest.raises(AttributeError):
        params.k = 0
    with pytest.raises(AttributeError):
        del params.k
    with pytest.raises(AttributeError):
        params.extra = 1
    # no path builds one past the checks
    for rebuilt in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert rebuilt == params and repr(rebuilt) == repr(params)
    assert params._replace(k=4) == BressoudParams((1,), 2, 4, 3)
    with pytest.raises(ValueError, match=r"got k=0 r=3 lambda=1"):
        params._replace(k=0)
    with pytest.raises(ValueError, match=r"^k must be an integer, got 3\.5$"):
        params._replace(k=3.5)
    with pytest.raises(ValueError, match=r"^alphas must be strictly increasing: \(2, 1\)$"):
        BressoudParams._make([(2, 1), 3, 3, 3])


@pytest.mark.parametrize(
    "args, message",
    [
        (((), 0, 1, 0), "eta must be positive, got 0"),
        (((2,), 2, 3, 3), "alphas must lie strictly between 0 and eta: (2,)"),
        (((2, 1), 3, 3, 3), "alphas must be strictly increasing: (2, 1)"),
        (((1,), 3, 3, 3), "alphas must satisfy a_i = eta - a_(lambda+1-i): (1,) with eta=3"),
        (((1,), 2, 2, 3), "need k >= r >= max(lambda, 1), got k=2 r=3 lambda=1"),
        (((1, 2), 3, 3, 1), "need k >= r >= max(lambda, 1), got k=3 r=1 lambda=2"),
        # int() would truncate 1.5 to 1 and keep 3.0 as k
        (((1.5,), 2, 3, 3), "alpha must be an integer, got 1.5"),
        (((1,), 2.0, 3, 3), "eta must be an integer, got 2.0"),
        (((1,), 2, 3.0, 3), "k must be an integer, got 3.0"),
        (((1,), 2, 3, "3"), "r must be an integer, got '3'"),
    ],
)
def test_params_error_texts(args, message):
    with pytest.raises(ValueError) as err:
        BressoudParams(*args)
    assert str(err.value) == message


def test_params_read_index_values():
    params = BressoudParams((Index(1),), Index(2), Index(3), Index(3))
    assert params == GG33 and all(type(v) is int for v in (params.eta, params.k, params.r))


def test_pi1_membership():
    pi1 = (38, 38, 36, 34, 32, 30, 26, 26, 22, 22, 22, 18, 16, 16, 14, 12, 12, 10, 9, 6, 6, 6, 2, 1)
    assert is_in_C(pi1, 4, 3)
    assert not is_in_C(pi1, 3, 3)  # three rows need k >= 4
    assert is_in_C((), 3, 3)


def test_all_partitions_order_and_depth():
    assert list(all_partitions(5)) == [
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)
    ]
    assert list(all_partitions(7, max_part=3))[:3] == [(3, 3, 1), (3, 2, 2), (3, 2, 1, 1)]
    assert list(all_partitions(1200, max_part=1)) == [(1,) * 1200]


def test_characterizations_agree_exhaustive():
    for n in range(0, 31):
        for p in all_partitions(n):
            mp = gg_mark(p)
            for (k, r) in ((3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (5, 5)):
                assert is_in_C(mp, k, r) == is_bressoud_B(p, BressoudParams((1,), 2, k, r))


def test_enumerators_complete_and_duplicate_free():
    for n in range(0, 27):
        naive = [p for p in all_partitions(n) if is_bressoud_B(p, GG33)]
        fast = enumerate_C(3, 3, n)
        assert len(fast) == len(set(fast))
        assert sorted(fast) == sorted(naive)


def test_counts_small_oracle():
    # frozen from the direct all-partitions filter
    assert [len(enumerate_C(3, 3, n)) for n in range(11)] == [1, 1, 1, 2, 3, 3, 4, 5, 7, 9, 10]
    assert enumerate_C(3, 3, 0) == [()]


def test_general_eta_enumeration():
    params = BressoudParams((1, 2), 3, 3, 3)
    for n in range(0, 21):
        naive = [p for p in all_partitions(n) if is_bressoud_B(p, params)]
        assert sorted(enumerate_B(params, n)) == sorted(naive)


def test_enumerate_B_equals_definition():
    # same list in the same descending-lex order; eta 1..4, lambda 0..2, k 1..5
    grid = [
        BressoudParams((), 1, 1, 1),  # k = 1: only the empty partition
        BressoudParams((), 1, 3, 2),
        BressoudParams((), 1, 2, 1),
        BressoudParams((1,), 2, 2, 2),
        BressoudParams((), 2, 5, 3),
        BressoudParams((1, 2), 3, 4, 2),
        BressoudParams((), 3, 2, 2),
        BressoudParams((2,), 4, 3, 3),
        BressoudParams((1, 3), 4, 5, 4),
    ]
    for n in range(0, 25):
        every = list(all_partitions(n))
        for params in grid:
            assert enumerate_B(params, n) == [p for p in every if is_bressoud_B(p, params)], (params, n)


@pytest.mark.parametrize(
    "params, n, want",
    [
        (GG33, 0, [()]),  # the empty partition, with no call at all
        (BressoudParams((), 2, 1, 1), 0, [()]),
        (BressoudParams((), 2, 1, 1), 6, []),  # k = 1 admits no part
        (BressoudParams((), 2, 3, 1), 12, [(12,), (8, 4), (6, 6)]),  # r = 1: no part <= eta
        (BressoudParams((1, 6), 7, 3, 3), 6, [(6,)]),  # eta > n
        (BressoudParams((), 7, 3, 1), 5, []),  # eta > n with the floor eta+1 past n at the top
        (BressoudParams((1,), 2, 3, 1), 5, [(5,)]),  # r = 1 with odd parts
        # after r-1 = 1 small part the floor eta+1 = 5 is above what is left
        (BressoudParams((1, 3), 4, 3, 2), 4, [(4,)]),
        (BressoudParams((1, 3), 4, 3, 2), 8, [(8,), (7, 1), (5, 3)]),  # not (4, 4)
    ],
)
def test_enumerate_B_edge_bounds(params, n, want):
    assert enumerate_B(params, n) == want
    assert all(is_bressoud_B(p, params) for p in want)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_B(GG33, -1),
        lambda: enumerate_C(3, 3, -2),
        lambda: enumerate_I(-1, 1),
        lambda: enumerate_I(0, -1),
        lambda: enumerate_F33(-1),
        lambda: list(all_partitions(-1)),
    ],
    ids=[
        "enumerate_B", "enumerate_C", "enumerate_I floor", "enumerate_I max_weight", "enumerate_F33",
        "all_partitions",
    ],
)
def test_negative_bounds_rejected(call):
    with pytest.raises(ValueError, match="must be >= 0, got -"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: enumerate_B(GG33, 4.5), "n"),
        (lambda: list(all_partitions(4.5)), "n"),
        (lambda: enumerate_I(0.5, 4), "floor"),
        (lambda: enumerate_I(0, 4.5), "max_weight"),
    ],
    ids=["enumerate_B", "all_partitions", "enumerate_I floor", "enumerate_I max_weight"],
)
def test_non_integer_bounds_rejected(call, name):
    # a float bound used to fail deep inside with a bare TypeError
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got \d\.5$"):
        call()


def test_e_is_even_sublist():
    for n in range(0, 25):
        evens = [p for p in enumerate_C(4, 3, n) if all(v % 2 == 0 for v in p)]
        assert sorted(enumerate_E(4, 3, n)) == sorted(evens)


def test_cells_partition_the_even_family():
    for k, r in ((3, 3), (4, 3)):
        for n in range(0, 27):
            whole = enumerate_E(k, r, n)
            seen: dict[tuple, list] = {}
            for p in whole:
                seen.setdefault(row_counts(gg_mark(p), k - 1), []).append(p)
            rebuilt = []
            for counts, members in seen.items():
                cell = e_cell(counts, r, n)
                assert sorted(cell) == sorted(members)
                rebuilt.extend(cell)
            assert sorted(rebuilt) == sorted(whole)


def test_distinct_odd_enumeration():
    assert enumerate_I(0, 4) == [(), (1,), (3,), (3, 1)]
    assert enumerate_I(2, 4) == [()]
    for z in enumerate_I(1, 20):
        assert all(v % 2 == 1 and v >= 3 for v in z)
        assert len(set(z)) == len(z)


def test_pair_set_basics():
    assert enumerate_F33(0) == [((), ())]
    for p, z in enumerate_F33(9):
        assert sum(p) + sum(z) == 9
        n2 = gg_mark(p).N(2)
        assert all(v >= 2 * n2 + 1 for v in z)


def test_distinct_odd_counts_match_product():
    # prod (1 + q^(2i+1)) over 2i+1 >= 2*floor+1, truncated at q^20
    for floor in (0, 1, 2):
        s = [1] + [0] * 20
        for e in range(2 * floor + 1, 21, 2):
            loop_mul_one_plus(s, e)
        for n in range(21):
            assert s[n] == sum(sum(z) == n for z in enumerate_I(floor, n)), (floor, n)


def test_pair_counts_match_bivariate_sum():
    companion = gg_companion_bivariate(30).at_x1()
    counts = [len(enumerate_F33(n)) for n in range(31)]
    assert list(companion.coeffs) == counts
    assert counts == list(bressoud_product(GG33, 30).coeffs)
