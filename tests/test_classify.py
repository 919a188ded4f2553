import hashlib
import importlib
import random

import pytest

from ggpart import (
    ClassificationError,
    GGError,
    MarkedPartition,
    StartingProfile,
    SubsetLabel,
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
from ggpart import classify
from ggpart.fixtures import fixture_marked
from ggpart.membership import all_partitions

from helpers import (
    Index,
    c_members,
    pt_grid,
    row_at,
)

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
    "mp, p, want",
    [
        pytest.param(PI1, 6, (5, 3, 1), id="6-want0"),
        pytest.param(PI1, 5, (5, 3, 1), id="5-want1"),
        pytest.param(PI1, 3, (3, 1), id="3-want2"),
        pytest.param(PI1, 1, (1,), id="1-want3"),
        pytest.param(gg_mark((10, 6, 4, 2)), 2, ValueError, id="p-past-N2"),
        pytest.param(gg_mark((4,)), 1, ValueError, id="N2-zero"),
    ],
)
def test_cluster_indexes(mp, p, want):
    if want is ValueError:
        with pytest.raises(ValueError, match="1 <= p <= N2"):
            cluster_indexes(mp, p)
    else:
        assert cluster_indexes(mp, p) == want


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


def test_subset_label_value():
    label = classify_lt(gg_mark((10, 8, 4)), 3, 3, 1, 2)  # the README's library example
    assert repr(label) == "SubsetLabel(family='lt', j=2, p=1, t=2, index=6, l=1)"
    with pytest.raises(AttributeError):
        label.j = 3
    same = SubsetLabel("lt", 2, 1, 2, 6, 1)
    assert label == same and hash(label) == hash(same) and {label: 1}[same] == 1


def test_starting_profile_value():
    prof = starting_profile(gg_mark((10, 8, 4)))
    assert repr(prof) == "StartingProfile(threshold=1, types=('s1',), anchors=(8,))"
    assert prof.type_at(1) == "s1"
    with pytest.raises(AttributeError):
        prof.threshold = 0
    same = StartingProfile(1, ("s1",), (8,))
    assert prof == same and hash(prof) == hash(same) and {prof: 1}[same] == 1
    assert starting_profile(PI1).type_at(8) == "s-1"


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
    runs = reduction_types(PI3, classify_lt(PI3, 4, 3, 9, 0).l)
    assert runs == ((1, 2, "A2"), (3, 3, "A1"), (4, 5, "A3"), (6, 6, "B"), (7, 9, "C"))
    assert [lab for lo, hi, lab in runs if lo <= 8 <= hi] == ["C"]


def test_insertion_groups_worked_example():
    runs = insertion_types(PI1, classify_lt(PI1, 4, 3, 6, 5).l)
    assert runs == ((4, 4, "A1"), (3, 3, "C"), (1, 2, "A3"))


def test_group_steps_of_four():
    for n in range(0, 25):
        for mp in c_members(4, 3, 24)[n]:
            for p, t in pt_grid(mp, 14):
                label = classify_lt(mp, 4, 3, p, t)
                if label is None or label.l == 0:
                    continue
                for kinds in (reduction_types, insertion_types):
                    for lo, hi, _ in kinds(mp, label.l):
                        vals = [row_at(mp, 2, i) for i in range(lo, hi + 1)]
                        assert all(a - b == 4 for a, b in zip(vals, vals[1:]))


def test_sim_classification_examples():
    label = classify_sim(PI3, 4, 3, 9, 0)
    assert label is not None and label.j == 4
    label = classify_sim(MU, 4, 3, 6, 5)
    assert label is not None and label.j == 6
    # pi1 itself is not a tilde member at (6,5): its threshold part has type A1?
    own = classify_sim(PI1, 4, 3, 6, 5)
    assert own is None


def test_clause_conditions_past_the_sweeps():
    # members no sweep of the suite probes at these (p, t), each reading one
    # clause condition that would otherwise go unchecked
    assert classify_sim(gg_mark((8, 8, 2, 2)), 3, 3, 2, 0) is None  # l = 1, row2[0] = index + 4, C
    assert classify_sim(gg_mark((14, 14)), 3, 3, 1, 4).j == 2  # tilde 2 reads 2t+2, weight 28
    assert classify_sim(gg_mark((10, 8, 8, 4)), 4, 3, 1, 1).j == 3  # tilde 3 reads 2t+2, weight 30
    label = classify_eq(gg_mark((10, 8, 8, 4, 2, 1)), 4, 3, 2, 0)  # weight 33
    assert (label.j, label.index) == (9, 4)  # the side (8) has a part two above: eq 9, not 11
    # "B" needs every part of an s2 run twice: the single 6 splits (6, 2) into two runs
    assert insertion_types(gg_mark((8, 6, 4, 2, 2, 1)), 2) == ((2, 2, "B"), (1, 1, "A3"))
    # an s0 index has no reduction type, even with two copies two above it
    with pytest.raises(ClassificationError, match=r"^no reduction run starts at index 2 of \(6, 4, 4, 2, 1\)$"):
        reduction_types(gg_mark((6, 4, 4, 2, 1)), 2)


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
                got = insertion_types(mp, l)[0][2]  # the first run ends at l
                if label.j <= 5 and row_at(mp, 2, l) in (idx + 2, idx + 4):
                    assert got in table[label.j], (mp.parts, p, t, label.j, got)
                elif label.j >= 6 and row_at(mp, 2, l) == idx + 4:
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


def test_find_m_rejects_a_non_member():
    # (3, 3) is not in C(3, 3), so no p places it in the eq family at t = 1
    with pytest.raises(ClassificationError):
        find_m_eq33(gg_mark((3, 3)))


@pytest.mark.parametrize(
    "probe, parts", [(classify_lt, (4,)), (classify_sim, (4,)), (classify_eq, (5,))], ids=["lt", "sim", "eq"]
)
def test_probes_name_a_string_level(probe, parts):
    # a string level used to fail the first comparison with a bare TypeError,
    # and so did an integer-like one; each partition is a member at (3, 3, 0, 2),
    # so every level gets read
    mp = gg_mark(parts)
    want = probe(mp, 3, 3, 0, 2)
    assert want is not None
    for i, name in enumerate("krpt"):
        levels = [3, 3, 0, 2]
        levels[i] = str(levels[i])
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got '{levels[i]}'$"):
            probe(mp, *levels)
        levels[i] = Index(int(levels[i]))
        assert probe(mp, *levels) == want
    assert probe(mp, *map(Index, (3, 3, 0, 2))) == want


def test_pt_searches_take_integer_like_levels():
    # find_pt_lt/find_pt_eq used to raise a bare TypeError at an `__index__`-only
    # level, and at a string k or r
    for find, mp in ((find_pt_lt, gg_mark((4,))), (find_pt_eq, gg_mark((5,)))):
        assert find(mp, 3, 3, 2) == (0, 2)
        assert find(mp, Index(3), Index(3), Index(2)) == (0, 2)
        for i, name in enumerate("kr"):
            levels = [3, 3, 2]
            levels[i] = "3"
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got '3'$"):
                find(mp, *levels)


@pytest.mark.parametrize(
    "typing, name", [(cluster_indexes, "p"), (reduction_types, "l"), (insertion_types, "l")],
    ids=["cluster", "reduction", "insertion"],
)
def test_typings_name_a_bad_level(typing, name):
    # a string level used to fail the first comparison with a bare TypeError,
    # and so did an integer-like one; the reduction typing read 2.5 as 2, and the
    # cluster reader called it out of range
    mp = gg_mark((8, 6, 4, 2, 2, 1))
    want = typing(mp, 2)
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got '2'$"):
        typing(mp, "2")
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got 2\.5$"):
        typing(mp, 2.5)
    assert typing(mp, Index(2)) == want


# -- reference membership predicates -------------------------------------
#
# Reference copies of the lt/eq membership predicates in definitional order:
# is_in_C, then a scan of the odd parts, then the row-2 bracket through the
# sentinel reader row_at(mp, 2, .).  The library tests the bracket first; these
# copies check that the order of the clauses changes no answer.


def _ref_r2(mp, j):
    return row_at(mp, 2, j)


def _ref_member_lt(mp, k, r, p, t):
    if p < 0 or t < 0:
        return False
    if not is_in_C(mp, k, r):
        return False
    if any(v % 2 == 1 and v >= 2 * t + 1 for v in mp.parts):
        return False
    if not (_ref_r2(mp, p + 1) < 2 * t + 1 < _ref_r2(mp, p)):
        return False
    prof = starting_profile(mp)
    if _ref_r2(mp, p) == 2 * t + 2 and prof.type_at(p) not in ("s2", "s3"):
        return False
    if _ref_r2(mp, p + 1) == 2 * t and prof.type_at(p + 1) not in ("s0", "s1"):
        return False
    return True


def _ref_member_eq(mp, k, r, p, t):
    if p < 0 or t < 0:
        return False
    if not is_in_C(mp, k, r):
        return False
    odds = [v for v in mp.parts if v % 2 == 1]
    if not odds or max(odds) != 2 * t + 1:
        return False
    if min(mp.marks_of(2 * t + 1)) > 2:
        return False
    if not (_ref_r2(mp, p) >= 2 * t + 2 and _ref_r2(mp, p + 1) <= 2 * t + 2):
        return False
    prof = starting_profile(mp)
    two_marked = mp.has(2 * t + 2, 2)
    if two_marked:
        q = mp.row_values(2).index(2 * t + 2) + 1
        ty = prof.type_at(q)
        if ty == "s0":
            if _ref_r2(mp, p + 1) != 2 * t + 2:
                return False
            base = _ref_r2(mp, p + 1)
            if not any(
                _ref_r2(mp, i) == base + 4 * (p - i + 1) and mp.count(_ref_r2(mp, i)) == 1
                for i in range(1, p + 2)
            ):
                return False
        elif ty == "s2":
            if _ref_r2(mp, p) != 2 * t + 2:
                return False
    if mp.has_part(2 * t + 2) and not two_marked:
        if _ref_r2(mp, p) != 2 * t + 4 or prof.type_at(p) != "s3":
            return False
        base = _ref_r2(mp, p)
        if not any(
            _ref_r2(mp, i) == base + 4 * (p - i) and not mp.has_part(_ref_r2(mp, i) + 2)
            for i in range(1, p + 1)
        ):
            return False
    return True


def _probe_grid(mp):
    """Every (p, t) around the membership region, negatives included."""
    t_hi = max(mp.parts, default=0) // 2 + 3
    return [(p, t) for p in range(-1, mp.N(2) + 3) for t in range(-1, t_hi + 1)]


def _ref_find(member, mp, k, r, m):
    hits = [(p, m - p) for p in range(0, m + 1) if member(mp, k, r, p, m - p)]
    assert len(hits) <= 1, (mp.parts, m, hits)
    return hits[0] if hits else None


@pytest.mark.parametrize("k, r", [(3, 3), (4, 3), (4, 4), (5, 3)])
def test_membership_matches_definition(k, r):
    members = c_members(k, r, 22)
    for n in range(0, 23):
        for mp in members[n]:
            eq_hits = []
            for p, t in _probe_grid(mp):
                lt = _ref_member_lt(mp, k, r, p, t)
                eq = _ref_member_eq(mp, k, r, p, t)
                assert (classify_lt(mp, k, r, p, t) is not None) == lt, (mp.parts, p, t)
                assert (classify_eq(mp, k, r, p, t) is not None) == eq, (mp.parts, p, t)
                if eq:
                    eq_hits.append(p + t)
            for m in range(0, 21):
                assert find_pt_lt(mp, k, r, m) == _ref_find(_ref_member_lt, mp, k, r, m)
                assert find_pt_eq(mp, k, r, m) == _ref_find(_ref_member_eq, mp, k, r, m)
            if (k, r) == (3, 3):
                assert eq_hits == ([find_m_eq33(mp)] if mp.largest_odd else []), mp.parts


def test_rejected_probe_does_no_membership_work(monkeypatch):
    # a probe outside the row-2 bracket must stop before is_in_C and the profile
    calls = {"is_in_C": 0, "starting_profile": 0}
    for name in calls:
        real = getattr(classify, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(classify, name, counted)
    probes = 0
    for p, t in _probe_grid(PI1):
        if p < 0 or not _ref_r2(PI1, p + 1) < 2 * t + 1 < _ref_r2(PI1, p):
            assert classify_lt(PI1, 4, 3, p, t) is None
            probes += 1
        if p < 0 or not _ref_r2(PI1, p + 1) <= 2 * t + 2 <= _ref_r2(PI1, p):
            assert classify_eq(PI1, 4, 3, p, t) is None
            probes += 1
    assert probes > 0 and calls == {"is_in_C": 0, "starting_profile": 0}


def test_classifier_never_touches_a_sentinel():
    # the classifier reads row 2 as ints, and ggpart has no sentinel type left
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("ggpart.extint")
    at_zero = set()
    for k, r in [(3, 3), (4, 3)]:
        for members in c_members(k, r, 16).values():
            for mp in members:
                for p, t in _probe_grid(mp):
                    for family in (classify_lt, classify_sim, classify_eq):
                        label = family(mp, k, r, p, t)
                        if label is not None and p == 0:
                            assert (label.j, label.index, label.l) == (1, 2 * t + 2, 0)
                            at_zero.add(label.family)
                for m in range(0, 15):
                    find_pt_lt(mp, k, r, m)
                    find_pt_eq(mp, k, r, m)
                if (k, r) == (3, 3):
                    find_m_eq33(mp)
    assert at_zero == {"lt", "sim", "eq"}


def test_label_slots_never_return_a_stale_label():
    # one object takes every probe in a seeded shuffled order, each probe under
    # the three (k, r) back to back; a new object answers each call afresh
    krs = [(3, 3), (4, 3), (4, 4)]
    families = (classify_lt, classify_sim, classify_eq)
    rng = random.Random(20260)
    members = {mp.parts for kr in krs for ms in c_members(*kr, 16).values() for mp in ms}
    for parts in sorted(members):
        pairs = [(v, False) for v in parts]
        mp = MarkedPartition(pairs)
        probes = [(f, p, t) for f in families for p, t in _probe_grid(mp)]
        rng.shuffle(probes)
        for family, p, t in probes:
            for k, r in krs if rng.random() < 0.5 else krs[::-1]:
                want = family(MarkedPartition(pairs), k, r, p, t)
                assert family(mp, k, r, p, t) == want, (parts, family.__name__, k, r, p, t)


def _fresh(parts):
    """A newly built marking, so no memoised answer hides the check."""
    return MarkedPartition([(v, False) for v in parts])


def test_starting_type_overlap_raises(monkeypatch):
    monkeypatch.setattr(classify, "_has1", lambda mp, value: True)
    with pytest.raises(ClassificationError):
        starting_profile(_fresh((4, 4)))


def test_starting_type_with_no_case_raises(monkeypatch):
    monkeypatch.setattr(classify, "_has1", lambda mp, value: False)
    with pytest.raises(ClassificationError, match=r"matched starting types \[\]"):
        starting_profile(_fresh((4, 4)))


def test_find_m_with_no_eq_level_raises_not_assert(monkeypatch):
    # `python -O` strips asserts; this check must raise a GGError instead
    monkeypatch.setattr(classify, "_member_eq", lambda *args: False)
    with pytest.raises(GGError):
        find_m_eq33(gg_mark((1,)))


# -- a pin on the classifier -----------------------------------------------
# Every classify/find result over the probe grid of fresh C(k, r) members to
# weight 18, raised errors included, hashed into one digest.  The digest was
# taken before the classifier's first-classification path was rewritten, so a
# rewrite that changes any answer or error text fails here.

PIN_KRS = ((3, 3), (4, 3), (4, 4), (5, 3))
PIN_DIGEST = "1d7160382dd42f6c19b29ea20dded44506e24f2255d39e75f191279eeaf524ef"


def _outcome(f, *args):
    """The repr of f's result, or the type and text of the error it raised."""
    try:
        return repr(f(*args))
    except (GGError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _pin_lines():
    for k, r in PIN_KRS:
        for members in c_members(k, r, 18).values():
            for parts in (mp.parts for mp in members):
                mp = _fresh(parts)
                grid = _probe_grid(mp)
                for p, t in grid:
                    for family in (classify_lt, classify_sim, classify_eq):
                        yield _outcome(family, mp, k, r, p, t)
                for m in range(-1, grid[-1][0] + grid[-1][1] + 1):
                    yield _outcome(find_pt_lt, mp, k, r, m)
                    yield _outcome(find_pt_eq, mp, k, r, m)
                yield _outcome(find_m_eq33, mp)


def test_classifier_results_are_pinned():
    digest = hashlib.sha256("\n".join(_pin_lines()).encode()).hexdigest()
    assert digest == PIN_DIGEST


def test_eq_probe_off_the_largest_odd_part_skips_membership(monkeypatch):
    calls = []
    real = classify._member_eq
    monkeypatch.setattr(classify, "_member_eq", lambda *args: calls.append(args) or real(*args))
    probes = 0
    for members in c_members(3, 3, 14).values():
        for mp in members:
            for p, t in _probe_grid(mp):
                if mp.largest_odd != 2 * t + 1:
                    assert classify_eq(mp, 3, 3, p, t) is None
                    probes += 1
    assert probes > 0 and calls == []


def _ref_starting_profile(mp):
    """The case-table pass that `starting_profile` replaced: each index's
    four cases as (ok, type, anchor) rows, the hits collected in a list."""
    row = mp.row2
    threshold = classify._threshold(mp, mp.largest_odd)
    types = [classify.S_MINUS1] * len(row)
    anchors = [None] * len(row)
    prev_anchor = None
    for b in range(1, threshold + 1):
        v = row[b - 1]
        if b == 1:
            low_ok = not mp.has_part(v + 2)
        else:
            low_ok = (not classify._has1(mp, v + 2)) or prev_anchor == v + 2
        cases = (
            (classify._has1(mp, v - 1) and low_ok, classify.S0, v - 1),
            (classify._has1(mp, v - 2) and low_ok, classify.S1, v - 2),
            (classify._has1(mp, v + 2) and (b == 1 or prev_anchor != v + 2), classify.S2, v + 2),
            (classify._has1(mp, v), classify.S3, v),
        )
        hits = [(ty, a) for ok, ty, a in cases if ok]
        if len(hits) != 1:
            raise ClassificationError(
                f"index {b} of {mp.parts} matched starting types {[ty for ty, _ in hits]}"
            )
        types[b - 1], anchors[b - 1] = hits[0]
        prev_anchor = anchors[b - 1]
    return StartingProfile(threshold, tuple(types), tuple(anchors))


@pytest.mark.parametrize("has1", ["greedy", "always", "never"])
def test_starting_profile_matches_the_case_table(monkeypatch, has1):
    # every partition to weight 16 and the C(k, r) members to weight 18, each
    # freshly marked; the patched 1-mark tests drive the pass into its errors
    if has1 != "greedy":
        monkeypatch.setattr(classify, "_has1", lambda mp, value, _v=has1 == "always": _v)
    inputs = {p for n in range(17) for p in all_partitions(n)}
    inputs |= {mp.parts for k, r in PIN_KRS for ms in c_members(k, r, 18).values() for mp in ms}
    errors = 0
    for parts in sorted(inputs):
        want = _outcome(_ref_starting_profile, _fresh(parts))
        assert _outcome(starting_profile, _fresh(parts)) == want, parts
        errors += want.startswith("ClassificationError")
    assert (errors > 0) == (has1 != "greedy")
