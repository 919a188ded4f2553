import pytest

from ggpart import (
    GGError,
    MarkedPartition,
    classify_eq,
    classify_lt,
    classify_sim,
    cluster_indexes,
    find_m_eq33,
    find_pt_eq,
    find_pt_lt,
    gg_mark,
    insertion_types,
    is_in_C,
    reduction_types,
    starting_profile,
)
from ggpart import classify, debug, membership
from ggpart.fixtures import fixture_marked

from helpers import c_members, pt_grid

PI1 = fixture_marked("pi1")
PI2 = fixture_marked("pi2")
PI3 = fixture_marked("pi3")
MU = fixture_marked("mu")


def test_starting_profile_running_example():
    prof = starting_profile(PI1)
    assert prof.threshold == 7
    assert prof.types == ("s2", "s2", "s3", "s3", "s1", "s1", "s0", "s-1", "s-1")
    assert prof.anchors[:7] == (38, 34, 26, 22, 16, 12, 9)


def test_starting_profile_trivial():
    prof = starting_profile(gg_mark(()))
    assert prof.threshold == 0 and prof.types == ()
    prof = starting_profile(gg_mark((4,)))  # N2 = 0
    assert prof.types == ()


@pytest.mark.parametrize(
    "p, want", [(6, (5, 3, 1)), (5, (5, 3, 1)), (3, (3, 1)), (1, (1,))]
)
def test_cluster_indexes(p, want):
    assert cluster_indexes(PI1, p) == want


LT_MEMBERSHIPS = {
    (6, 5): 6,
    (5, 7): 6,
    (4, 9): 5,
    (4, 10): 12,
    (3, 12): 12,
    (2, 14): 7,
    (2, 15): 8,
    (1, 17): 8,
    (0, 19): 1,
}


def test_lt_classification_running_example():
    for (p, t), j in LT_MEMBERSHIPS.items():
        label = classify_lt(PI1, 4, 3, p, t)
        assert label is not None and label.j == j, (p, t)
    for p, t in [(6, 6), (5, 8), (3, 11), (2, 13), (1, 16), (0, 18)]:
        assert classify_lt(PI1, 4, 3, p, t) is None, (p, t)


def test_lt_requires_admissible_kr():
    with pytest.raises(ValueError):
        classify_lt(PI1, 3, 2, 6, 5)


@pytest.mark.parametrize(
    "p, t, want",
    [(6, 5, 18), (5, 7, 18), (3, 12, 38), (4, 9, 2 * 9 + 2), (0, 19, 2 * 19 + 2)],
)
def test_insertion_index(p, t, want):
    assert classify_lt(PI1, 4, 3, p, t).index == want


def test_insertion_threshold():
    assert classify_lt(PI1, 4, 3, 6, 5).l == 4
    assert classify_lt(gg_mark(()), 3, 3, 0, 0).l == 0


def test_eq_classification_examples():
    label = classify_eq(PI1, 4, 3, 6, 4)
    assert label is not None and label.j == 12
    assert label.index == 26
    label = classify_eq(PI2, 4, 3, 6, 5)
    assert label is not None and label.j == 6
    assert label.index == 18
    assert classify_eq(PI1, 4, 3, 6, 5) is None  # largest odd part is 9, not 11


def test_reduction_groups_worked_example():
    groups = reduction_types(PI3, classify_lt(PI3, 4, 3, 9, 0).l)
    assert groups.groups == ((1, 2, "A2"), (3, 3, "A1"), (4, 5, "A3"), (6, 6, "B"), (7, 9, "C"))
    assert groups.label_of(8) == "C"


def test_insertion_groups_worked_example():
    groups = insertion_types(PI1, classify_lt(PI1, 4, 3, 6, 5).l)
    assert groups.groups == ((4, 4, "A1"), (3, 3, "C"), (1, 2, "A3"))


def test_group_steps_of_four():
    for n in range(0, 25):
        for mp in c_members(4, 3, 24)[n]:
            for p, t in pt_grid(mp, 14):
                label = classify_lt(mp, 4, 3, p, t)
                if label is None or label.l == 0:
                    continue
                for kinds in (reduction_types, insertion_types):
                    for lo, hi, _ in kinds(mp, label.l).groups:
                        vals = [mp.row(2, i) for i in range(lo, hi + 1)]
                        assert all(a - b == 4 for a, b in zip(vals, vals[1:]))


def test_sim_classification_examples():
    label = classify_sim(PI3, 4, 3, 9, 0)
    assert label is not None and label.j == 4
    label = classify_sim(MU, 4, 3, 6, 5)
    assert label is not None and label.j == 6
    # pi1 itself is not a tilde member at (6,5): its threshold part has type A1?
    own = classify_sim(PI1, 4, 3, 6, 5)
    assert own is None


def test_sim_containments():
    # tilde subsets 1..5 land inside the stated lt subsets
    allowed = {1: {1}, 2: {1, 2}, 3: {1, 3}, 4: {1, 2}, 5: {4, 5}}
    for n in range(0, 25):
        for mp in c_members(3, 3, 24)[n] + c_members(4, 3, 24)[n]:
            for p, t in pt_grid(mp, 14):
                sim = classify_sim(mp, 4, 3, p, t)
                if sim is None or sim.j > 5:
                    continue
                lt = classify_lt(mp, 4, 3, p, t)
                assert lt.j in allowed[sim.j], (mp.parts, p, t, sim.j, lt.j)


def test_threshold_part_type_table():
    # insertion type of the part at the threshold, by lt subset
    table = {1: {"A3", "C"}, 2: {"A1", "A2", "B"}, 3: {"A1"}, 4: {"C"}, 5: {"A1"}}
    for n in range(0, 23):
        for mp in c_members(4, 3, 22)[n]:
            for p, t in pt_grid(mp, 12):
                label = classify_lt(mp, 4, 3, p, t)
                if label is None:
                    continue
                l, idx = label.l, label.index
                if l == 0:
                    continue
                got = insertion_types(mp, l).label_of(l)
                if label.j <= 5 and mp.row(2, l) in (idx + 2, idx + 4):
                    assert got in table[label.j], (mp.parts, p, t, label.j, got)
                elif label.j >= 6 and mp.row(2, l) == idx + 4:
                    assert got in {"A1", "C"}, (mp.parts, p, t, label.j, got)


def test_find_pt_unique_running_example():
    assert find_pt_lt(PI1, 4, 3, 11) == (6, 5)
    assert find_pt_lt(PI1, 4, 3, 12) == (5, 7)
    assert find_pt_eq(PI1, 4, 3, 10) == (6, 4)
    assert find_pt_eq(PI1, 4, 3, 9) is None


def test_find_pt_uniqueness_sweep():
    for n in range(0, 25):
        for mp in c_members(3, 3, 24)[n]:
            for m in range(0, 13):
                find_pt_lt(mp, 3, 3, m)  # raises UniquenessError on a double hit
                find_pt_eq(mp, 3, 3, m)


def test_find_m_examples():
    assert find_m_eq33(gg_mark((8, 4, 2))) is None
    assert find_m_eq33(gg_mark((1,))) == 0
    for n in range(0, 23):
        for mp in c_members(3, 3, 22)[n]:
            m = find_m_eq33(mp)
            if m is None:
                assert all(v % 2 == 0 for v in mp.parts)
            else:
                assert find_pt_eq(mp, 3, 3, m) is not None


def _fresh(parts):
    """A newly built marking, so no memoised answer hides the check."""
    return MarkedPartition(gg_mark(parts).entries)


def test_debug_cross_checks_raise_not_assert(monkeypatch):
    # `python -O` strips asserts; these checks must raise a GGError instead
    monkeypatch.setattr(debug, "_enabled", True)
    with monkeypatch.context() as m:
        real = membership._is_in_C
        m.setattr(membership, "_is_in_C", lambda mp, k, r: not real(mp, k, r))
        with pytest.raises(GGError):
            is_in_C(_fresh((6, 4, 2)), 3, 3)
    with monkeypatch.context() as m:
        m.setattr(classify, "_has1", lambda mp, value: True)
        with pytest.raises(GGError):
            starting_profile(_fresh((4, 4)))
    with monkeypatch.context() as m:
        m.setattr(classify, "_member_eq", lambda *args: False)
        with pytest.raises(GGError):
            find_m_eq33(gg_mark((1,)))
