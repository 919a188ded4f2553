import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggpart import (
    GGError,
    InvalidSpecialPartition,
    MarkedPartition,
    MissingEntryError,
    gg_mark,
    gg_mark_special,
    marked_to_dict,
    render_grid,
)
from ggpart.fixtures import fixture_marked, fixture_names, fixture_overline, fixture_rows
from ggpart import marking
from ggpart.marking import _gg_mark_cached
from ggpart.membership import all_partitions

from helpers import Index, bytes_per_partition, c_members, us_per_partition

PI1_PARTS = (38, 38, 36, 34, 32, 30, 26, 26, 22, 22, 22, 18, 16, 16, 14, 12, 12, 10, 9, 6, 6, 6, 2, 1)

partitions_st = st.lists(st.integers(1, 14), max_size=8).map(
    lambda vs: tuple(sorted(vs, reverse=True))
)


def test_running_example_rows():
    mp = gg_mark(PI1_PARTS)
    assert mp.row_values(1) == (38, 34, 30, 26, 22, 16, 12, 9, 6, 1)
    assert mp.row_values(2) == (36, 32, 26, 22, 18, 14, 10, 6, 2)
    assert mp.row_values(3) == (38, 22, 16, 12, 6)
    assert (mp.N(1), mp.N(2), mp.N(3)) == (10, 9, 5)
    assert mp.N(4) == 0


def test_empty_partition():
    mp = gg_mark(())
    assert mp.parts == () and mp.n_rows == 0 and mp.N(1) == 0
    assert mp.weight == 0 and mp.length == 0


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((5, 5), {(5, 1), (5, 2)}),
        ((6, 4), {(4, 1), (6, 2)}),
        ((7, 4), {(4, 1), (7, 1)}),
    ],
)
def test_small_markings(parts, expected):
    mp = gg_mark(parts)
    assert {(v, m) for v, m, _ in mp.entries} == expected


def _assert_canonical(mp):
    """Replay the greedy rule as a pure validator: every mark must be
    feasible and minimal given the parts processed before it."""
    marks_at: dict[int, set] = {}
    order = sorted(mp.entries, key=lambda e: (e[0], e[2], e[1]))
    for value, mark, over in order:
        used = set(marks_at.get(value, set())) | marks_at.get(value - 1, set())
        if value % 2 == 0:
            used |= marks_at.get(value - 2, set())
        assert mark not in used, (mp.parts, value, mark)
        floor = 2 if over else 1
        for lower in range(floor, mark):
            assert lower in used, (mp.parts, value, mark, lower)
        marks_at.setdefault(value, set()).add(mark)
    # the views read off the one value -> marks map
    assert list(mp.entries) == sorted(mp.entries, key=lambda e: (-e[0], e[1]))
    assert mp.parts == tuple(v for v, _, _ in mp.entries)
    for i, row in enumerate(mp.rows, 1):
        assert row == tuple(v for v, m, _ in mp.entries if m == i)
    for v in range(0, (mp.parts[0] if mp.parts else 0) + 3):
        marks = mp.marks_of(v)
        assert marks == marks_at.get(v, set())
        assert mp.count(v) == len(marks) == mp.parts.count(v)
        assert mp.has_part(v) == (v in mp.parts)
        # the bit-set readers agree with the mark set
        assert mp.max_mark(v) == max(marks, default=0)
        assert [m for m in range(0, mp.n_rows + 3) if mp.has(v, m)] == sorted(marks)
    assert [(v, m) for v, m, over in mp.entries if over] == ([mp.overline] if mp.overline else [])


def test_greedy_rule_exhaustive():
    for n in range(0, 23):
        for p in all_partitions(n):
            _assert_canonical(gg_mark(p))


def test_canonicality_idempotent_exhaustive():
    for n in range(0, 21):
        for p in all_partitions(n):
            mp = gg_mark(p)
            assert gg_mark(mp.parts).rows == mp.rows


def test_construction_runs_the_greedy_marking():
    # MarkedPartition takes (value, overlined) pairs, so every marking is greedy
    for n in range(0, 15):
        for p in all_partitions(n):
            assert MarkedPartition([(v, False) for v in p]).entries == gg_mark(p).entries, p


def test_row_sizes_monotone_exhaustive():
    for n in range(0, 21):
        for p in all_partitions(n):
            mp = gg_mark(p)
            sizes = [mp.N(i) for i in range(1, mp.n_rows + 1)]
            assert sizes == sorted(sizes, reverse=True), p


def test_mark_distinctness_restatement():
    for n in range(0, 17):
        for p in all_partitions(n):
            mp = gg_mark(p)
            for v, m, _ in mp.entries:
                near = mp.marks_of(v - 1) | (mp.marks_of(v - 2) if v % 2 == 0 else frozenset())
                assert m not in near
                assert len(mp.marks_of(v)) == mp.count(v)


# -- special markings ---------------------------------------------------


def test_special_reduces_to_ordinary():
    for n in range(0, 17):
        for p in all_partitions(n):
            assert gg_mark_special(p, None).rows == gg_mark(p).rows


def test_special_marking_forces_mark_two():
    mp = gg_mark_special((5, 5, 4), 5)
    assert mp.overline is not None and mp.overline[0] == 5 and mp.overline[1] >= 2
    assert {(v, m) for v, m, _ in mp.entries} == {(4, 1), (5, 2), (5, 3)}


def test_special_marking_exhaustive():
    for n in range(0, 23):
        for p in all_partitions(n):
            odds = [v for v in p if v % 2]
            if not odds:
                continue
            mp = gg_mark_special(p, max(odds))
            _assert_canonical(mp)
            assert mp.overline[1] >= 2
            assert mp.largest_odd == max(odds)


def test_special_trace_fixtures():
    for name in ("pi1_step2", "pi1_step1"):
        mp = fixture_marked(name)
        assert {i: mp.row_values(i) for i in (1, 2, 3)} == fixture_rows(name)
        assert mp.overline[0] == fixture_overline(name)
        assert mp.overline[1] == 2


@pytest.mark.parametrize(
    "parts, overline",
    [
        ((6, 4), 6),
        ((5, 3), 3),
        ((4, 2), 5),
        # (value, overlined) pairs given to the constructor itself
        ([(4, True)], None),
        ([(3, True), (5, False)], None),
        ([(5, True), (3, True)], None),
    ],
)
def test_invalid_overlines(parts, overline):
    with pytest.raises((InvalidSpecialPartition, ValueError)):
        if overline is None:
            MarkedPartition(parts)
        else:
            gg_mark_special(parts, overline)


# -- surgery ---------------------------------------------------------------


def test_replace_part_worked_step():
    mp = gg_mark(PI1_PARTS)
    out = mp.replace([(22, 3, False)], [(23, False)])
    want = fixture_marked("pi1_step4")
    assert out.rows == want.rows
    assert out.has(23, 3)


def test_replace_identity_surgery():
    for n in range(0, 15):
        for p in all_partitions(n):
            if not p:
                continue
            mp = gg_mark(p)
            v, m, _ = mp.entries[0]
            out = mp.replace([(v, m, False)], [(v, False)])
            assert out.rows == mp.rows


def test_gg_mark_refuses_non_integers():
    # int() would mark (2, 1) for (2.5, 1)
    with pytest.raises(ValueError, match=r"^part must be an integer, got 2\.5$"):
        gg_mark([2.5, 1])
    with pytest.raises(ValueError, match=r"^part must be an integer, got '2'$"):
        gg_mark(["2", 1])
    assert gg_mark([Index(2), 1]) is gg_mark((2, 1))
    assert type(gg_mark([Index(2), True]).parts[1]) is int


def test_gg_mark_special_refuses_non_integers():
    # int() would return (5, ~5, 4) for parts (5, 5.9, 4), and read an overline 5.9 as 5
    with pytest.raises(ValueError, match=r"^part must be an integer, got 5\.9$"):
        gg_mark_special([5, 5.9, 4], 5)
    with pytest.raises(ValueError, match=r"^overline must be an integer, got 5\.9$"):
        gg_mark_special([5, 5, 4], 5.9)
    assert gg_mark_special([5, Index(5), 4], Index(5)) is gg_mark_special((5, 5, 4), 5)


def test_replace_refuses_non_integer_additions():
    # int() would add a 4 for 4.5
    mp = gg_mark((4, 2))
    with pytest.raises(ValueError, match=r"^part must be an integer, got 4\.5$"):
        mp.replace([], [(4.5, False)])
    assert mp.replace([], [(Index(4), False)]) is gg_mark((4, 4, 2))


def test_replace_missing_entry():
    mp = gg_mark((4, 2))
    with pytest.raises(MissingEntryError):
        mp.replace([(4, 3, False)], [(5, False)])


def test_replace_rejects_bad_overlines():
    # a live partition is never handed out for an overline the marking rejects
    special = gg_mark_special((5, 3), 5)
    with pytest.raises(InvalidSpecialPartition, match="more than one overlined part: 5, 7"):
        special.replace([], [(7, True)])
    with pytest.raises(InvalidSpecialPartition, match="not the largest odd part"):
        gg_mark((5,)).replace([], [(3, True)])
    assert special.replace([(5, None, True)], [(5, True)]) is special


@given(partitions_st, st.integers(0, 7), st.integers(1, 15))
@settings(max_examples=200)
def test_replace_round_trip_multiset(parts, pick, new_value):
    mp = gg_mark(parts)
    if not mp.entries:
        return
    v, m, _ = mp.entries[pick % len(mp.entries)]
    out = mp.replace([(v, m, False)], [(new_value, False)])
    removed = list(mp.parts)
    removed.remove(v)
    removed.append(new_value)
    assert sorted(out.parts) == sorted(removed)
    back = out.replace([(new_value, None, False)], [(v, False)])
    assert sorted(back.parts) == sorted(mp.parts)
    assert back.rows == mp.rows


@given(partitions_st)
@settings(max_examples=200)
def test_marking_invariants_random(parts):
    mp = gg_mark(parts)
    _assert_canonical(mp)
    sizes = [mp.N(i) for i in range(1, mp.n_rows + 1)]
    assert sizes == sorted(sizes, reverse=True)
    assert mp.largest_odd == max((v for v in parts if v % 2), default=0)


def test_marking_cache_is_bounded():
    # a long sweep must not keep every partition it has marked
    bound = _gg_mark_cached.cache_info().maxsize
    for v in range(1, bound + 100):
        gg_mark((v,))
    assert _gg_mark_cached.cache_info().currsize == bound


def test_live_table_is_bounded():
    # the table of live partitions is weak: it keeps a partition only while
    # something else does, so 20,000 dropped replace outputs leave nothing
    base = gg_mark((2, 1))
    held = len(marking._LIVE)  # what the marking cache, this test and other tests' caches hold
    big = 10**6  # parts no other test marks, so every output below is new
    kept = [base.replace([], [(v, False)]) for v in range(big, big + 100)]
    assert len(marking._LIVE) == held + 100
    del kept
    for v in range(big, big + 20_000):
        out = base.replace([], [(v, False)])
    assert out.parts == (big + 19_999, 2, 1) and base.replace([], [(big + 19_999, False)]) is out
    assert len(marking._LIVE) <= held + 1


def test_dropped_partition_leaves_the_live_table():
    out = gg_mark((2, 1)).replace([], [(10**6 + 1, False)])
    key = (out.parts, None)
    assert marking._LIVE[key]() is out
    del out
    assert key not in marking._LIVE


def test_stale_callback_keeps_a_key_registered_again():
    # a reference whose partition died but whose callback runs only after
    # the key was registered again must not evict the new entry
    base = gg_mark((2, 1))
    first = base.replace([], [(10**6 + 2, False)])
    key = (first.parts, None)
    stale = marking._Ref(first, None)
    stale.key = key
    del first
    again = base.replace([], [(10**6 + 2, False)])
    marking._evict(stale)
    assert marking._LIVE[key]() is again
    assert base.replace([], [(10**6 + 2, False)]) is again


def test_interpreter_exit_with_live_partitions_is_quiet():
    # partitions still alive at exit die while the modules are torn down,
    # some only in the final collection, and their callbacks run then
    code = (
        "import ggpart\n"
        "base = ggpart.gg_mark((2, 1))\n"
        "kept = [base.replace([], [(v, False)]) for v in range(3, 300)]\n"
        "for mp in kept[::2]:\n"
        "    mp._memo['cycle'] = mp\n"
        "for v in range(300, 3000):\n"
        "    base.replace([(2, None, False)], [(v, False), (v + 1, False)])\n"
    )
    paths = [str(Path(marking.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")


# -- stored values and their references ------------------------------------
# The two-walk greedy pass that the one-pass constructor replaced, and the
# constructor loop and the `replace` body of a partition that stores its
# (value, mark, overlined) triples, kept as oracles for the constructor, the
# derived `entries` and the bit-set `replace`.


def _assign(pairs):
    """Run the greedy assignment over (value, overlined) pairs.

    Parts are processed by ascending value, plain copies before the
    overlined one, which starts its mark search at 2.  Returns the
    {value: marks} map, each marks an int with bit m set for mark m, and the
    (value, mark) of the overlined copy, or None; a second overlined copy
    raises.
    """
    bits_at = {}
    overline = None
    for value, over in sorted(pairs):
        taken = bits_at.get(value, 0)
        used = taken | bits_at.get(value - 1, 0) | (3 if over else 1)  # bit 0 is no mark
        if value % 2 == 0:
            used |= bits_at.get(value - 2, 0)
        free = (used + 1) & ~used  # the lowest clear bit: the smallest free mark
        bits_at[value] = taken | free
        if over:
            if overline is not None:
                raise InvalidSpecialPartition(f"more than one overlined part: {overline[0]}, {value}")
            overline = (value, free.bit_length() - 1)
    return bits_at, overline


def _reference_fields(pairs):
    """The fields the two-walk constructor stored for `pairs`: the greedy
    pass, then a second walk over the values for the parts and rows."""
    bits_at, overline = _assign(pairs)
    values = sorted(bits_at, reverse=True)
    n_rows = max(bits_at.values(), default=1).bit_length() - 1  # the highest mark
    rows = [[] for _ in range(n_rows)]
    parts = []
    for v in values:
        for m in marking._marks(bits_at[v]):
            parts.append(v)
            rows[m - 1].append(v)
    largest_odd = next((v for v in values if v % 2), 0)
    if overline is not None and overline[0] != largest_odd:
        raise InvalidSpecialPartition(
            f"overlined part {overline[0]} is not the largest odd part of {tuple(parts)}"
        )
    rows = tuple(map(tuple, rows))
    return {
        "parts": tuple(parts),
        "rows": rows,
        "row2": rows[1] if n_rows > 1 else (),
        "overline": overline,
        "largest_odd": largest_odd,
        "weight": sum(parts),
        "length": len(parts),
        "_bits": bits_at,
    }


def _pairs(mp):
    """The (value, overlined) pairs of a marked partition."""
    pairs = [(v, False) for v in mp.parts]
    if mp.overline is not None:
        pairs.remove((mp.overline[0], False))
        pairs.append((mp.overline[0], True))
    return pairs


def _stored_entries(mp):
    """The triples the constructor stored, from its own greedy pass."""
    bits_at, overline = _assign(_pairs(mp))
    over_value, over_mark = overline or (None, 0)
    entries = []
    for v in sorted(bits_at, reverse=True):
        for m in marking._marks(bits_at[v]):
            entries.append((v, m, v == over_value and m == over_mark))
    return tuple(entries)


def _entries_replace(self, removals, additions):
    """`MarkedPartition.replace` over a list of the stored triples."""
    work = list(_stored_entries(self))
    for value, mark, over in removals:
        for slot in work:
            if slot[0] == value and slot[2] == over and (mark is None or slot[1] == mark):
                work.remove(slot)
                break
        else:
            who = f"{'overlined ' if over else ''}{mark if mark is not None else 'any'}-marked {value}"
            raise MissingEntryError(f"no {who} in {self!r}", partition=self)
    parts = [v for v, _, _ in work]
    overs = [v for v, _, over in work if over]
    for value, over in additions:
        value = int(value)
        parts.append(value)
        if over:
            overs.append(value)
    if len(overs) > 1:
        raise InvalidSpecialPartition("more than one overlined part: {}, {}".format(*sorted(overs)))
    parts.sort(reverse=True)
    return marking._marked(tuple(parts), overs[0] if overs else None)


@cache
def _surgery_inputs():
    """C(k, r) members to weight 16, and the special markings of every
    partition to weight 12 that has an odd part."""
    members = [mp for k, r in ((3, 3), (4, 3), (4, 4)) for ms in c_members(k, r, 16).values() for mp in ms]
    specials = [
        gg_mark_special(p, max(v for v in p if v % 2))
        for n in range(13)
        for p in all_partitions(n)
        if any(v % 2 for v in p)
    ]
    return members, specials


def _outcome(f):
    try:
        return f()
    except GGError as exc:
        return type(exc), str(exc)


@st.composite
def _surgery(draw):
    """A partition and a batch: distinct copies of its parts, each by its
    mark or by a None mark, then maybe a faulty removal (a copy again, the
    other overline state, or a random one, often absent), and additions
    that now and then carry an overline."""
    mp = draw(st.sampled_from(_surgery_inputs()[draw(st.integers(0, 1))]))
    copies = _stored_entries(mp)
    picks = draw(st.lists(st.sampled_from(range(len(copies))), unique=True, max_size=3)) if copies else []
    removals = [
        (v, None if draw(st.booleans()) else m, over) for v, m, over in (copies[i] for i in picks)
    ]
    fault = draw(st.sampled_from(("none", "none", "again", "other overline", "random")))
    if fault == "again" and removals:
        removals.append(draw(st.sampled_from(removals)))
    elif fault == "other overline" and removals:
        v, m, over = draw(st.sampled_from(removals))
        removals.append((v, m, not over))
    elif fault == "random":
        removals.append(
            draw(st.tuples(st.integers(1, 40), st.one_of(st.none(), st.integers(-1, 5)), st.booleans()))
        )
    additions = draw(
        st.lists(st.tuples(st.integers(1, 40), st.sampled_from((False, False, False, True))), max_size=3)
    )
    return mp, removals, additions


@given(_surgery())
@settings(max_examples=400, deadline=None)
def test_replace_matches_the_entries_list_replace(case):
    mp, removals, additions = case
    want = _outcome(lambda: _entries_replace(mp, removals, additions))
    got = _outcome(lambda: mp.replace(removals, additions))
    if isinstance(want, MarkedPartition):
        assert got is want  # one live object per (parts, overline)
        parts = list(mp.parts) + [value for value, _ in additions]
        for value, _, _ in removals:
            parts.remove(value)
        kept = mp.overline and not any(over for _, _, over in removals)
        overs = [value for value, over in additions if over] + ([mp.overline[0]] if kept else [])
        assert got is gg_mark_special(parts, overs[0] if overs else None)
    else:
        assert got == want


def test_replace_keeps_its_errors():
    special = fixture_marked("pi1_step2")  # overlined 33
    cases = [
        (special, [(33, None, True), (33, None, True)], []),  # the same copy twice
        (special, [(33, 2, False)], []),  # only the overlined copy carries mark 2
        (special, [(35, None, False)], []),  # absent
        (special, [], [(35, True)]),  # two overlines
        (gg_mark((5, 3)), [], [(3, True)]),  # an overline below the largest odd part
    ]
    for mp, removals, additions in cases:
        want = _outcome(lambda: _entries_replace(mp, removals, additions))
        assert isinstance(want, tuple) and _outcome(lambda: mp.replace(removals, additions)) == want


def test_entries_equal_the_stored_triples():
    for k, r in ((3, 3), (4, 3), (4, 4), (5, 3)):
        for members in c_members(k, r, 20).values():
            for mp in members:
                assert mp.entries == _stored_entries(mp), mp
    for mp in _surgery_inputs()[1]:
        assert mp.entries == _stored_entries(mp), mp
    for name in fixture_names():
        mp = fixture_marked(name)
        assert mp.entries == _stored_entries(mp), name
        assert mp.row2 is mp.row_values(2)


def test_constructor_matches_the_two_walk_reference():
    # field by field, over the C(k, r) members to weight 20, the special
    # markings to weight 12, the fixtures, every partition to weight 14 and
    # both overline errors
    krs = ((3, 3), (4, 3), (4, 4), (5, 3))
    inputs = [_pairs(mp) for k, r in krs for ms in c_members(k, r, 20).values() for mp in ms]
    inputs += [_pairs(mp) for mp in _surgery_inputs()[1]]
    inputs += [_pairs(fixture_marked(name)) for name in fixture_names()]
    inputs += [[(v, False) for v in p] for n in range(15) for p in all_partitions(n)]
    inputs += [list(reversed(pairs)) for pairs in inputs[::7]]  # the constructor sorts its pairs
    bad = {
        "more than one overlined part: 3, 5": [(5, True), (3, True)],
        "overlined part 3 is not the largest odd part of (5, 3)": [(3, True), (5, False)],
    }
    for text, pairs in bad.items():
        assert _outcome(lambda: MarkedPartition(pairs)) == (InvalidSpecialPartition, text)
    for pairs in inputs + list(bad.values()):
        want = _outcome(lambda: _reference_fields(pairs))
        got = _outcome(lambda: MarkedPartition(pairs))
        if isinstance(want, dict):
            assert all(type(row) is tuple for row in got.rows)
            got = {name: getattr(got, name) for name in want}
        assert got == want, pairs


def test_live_partition_memory():
    # 662 bytes each on CPython 3.11; storing the entry triples as well takes 995
    assert bytes_per_partition() < 850


def test_constructor_timer_runs():
    # the figure CI writes to its job summary; only its shape is checked here
    assert 0 < us_per_partition(wmax=12, repeats=3) < 1e6


# -- rendering and serialization -----------------------------------------


PI1_GRID = (
    "      6         12      16      22                      38\n"
    "   2  6     10      14      18  22  26      32      36\n"
    "1     6  9      12      16      22  26  30      34      38"
)


def test_render_grid_golden():
    assert render_grid(gg_mark(PI1_PARTS)) == PI1_GRID
    assert render_grid(gg_mark(())) == ""
    assert render_grid(fixture_marked("m6")) == (
        "      4     8\n   2     6     10\n1     4     8"
    )


def test_render_grid_overline():
    grid = render_grid(fixture_marked("pi1_step2"))
    assert "~33" in grid and "~" not in grid.replace("~33", "")


def test_json_round_trip():
    for name in ("pi1", "pi2", "m7", "pi1_step1"):
        mp = fixture_marked(name)
        blob = json.dumps(marked_to_dict(mp), sort_keys=True)
        data = json.loads(blob)
        parts = sorted((v for row in data["rows"].values() for v in row), reverse=True)
        over = data["overline"]["value"] if data["overline"] else None
        again = gg_mark_special(parts, over)
        assert json.dumps(marked_to_dict(again), sort_keys=True) == blob
