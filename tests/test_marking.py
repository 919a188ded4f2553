import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggpart import (
    InvalidSpecialPartition,
    MarkedPartition,
    MissingEntryError,
    gg_mark,
    gg_mark_special,
    marked_to_dict,
    render_grid,
)
from ggpart.fixtures import FIXTURES, fixture_marked, fixture_names, fixture_overline
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
        assert {i: mp.row_values(i) for i in (1, 2, 3)} == FIXTURES[name]["rows"]
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
    out = mp.replace([(22, False)], [(23, False)])
    want = fixture_marked("pi1_step4")
    assert out.rows == want.rows
    assert out.has(23, 3)


def test_replace_identity_surgery():
    for n in range(0, 15):
        for p in all_partitions(n):
            if not p:
                continue
            mp = gg_mark(p)
            v = mp.parts[0]
            out = mp.replace([(v, False)], [(v, False)])
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


def test_replace_refuses_non_integer_removals():
    # a removal of 4.0 used to take the 4, where the same value as an addition raised
    mp = gg_mark((4, 2))
    for value in (4.0, "4"):
        with pytest.raises(ValueError, match=rf"^part must be an integer, got {re.escape(repr(value))}$"):
            mp.replace([(value, False)], [])
    assert mp.replace([(Index(4), False)], []) is gg_mark((2,))
    assert gg_mark_special((5, 3), 5).replace([(Index(5), True)], []) is gg_mark((3,))


def test_replace_missing_entry():
    special = gg_mark_special((5, 3), 5)
    cases = [
        (gg_mark((4, 2)), [(5, False)]),  # an absent value
        (special, [(5, False)]),  # a plain removal whose only copy is the overlined one
        (special, [(3, True)]),  # an overlined removal with no such copy
    ]
    for mp, removals in cases:
        with pytest.raises(MissingEntryError):
            mp.replace(removals, [(6, False)])


def test_replace_rejects_bad_overlines():
    # a live partition is never handed out for an overline the marking rejects
    special = gg_mark_special((5, 3), 5)
    with pytest.raises(InvalidSpecialPartition, match="more than one overlined part: 5, 7"):
        special.replace([], [(7, True)])
    with pytest.raises(InvalidSpecialPartition, match="not the largest odd part"):
        gg_mark((5,)).replace([], [(3, True)])
    assert special.replace([(5, True)], [(5, True)]) is special


@given(partitions_st, st.integers(0, 7), st.integers(1, 15))
@settings(max_examples=200)
def test_replace_round_trip_multiset(parts, pick, new_value):
    mp = gg_mark(parts)
    if not mp.parts:
        return
    v = mp.parts[pick % len(mp.parts)]
    out = mp.replace([(v, False)], [(new_value, False)])
    removed = list(mp.parts)
    removed.remove(v)
    removed.append(new_value)
    assert sorted(out.parts) == sorted(removed)
    back = out.replace([(new_value, False)], [(v, False)])
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
        "    base.replace([(2, False)], [(v, False), (v + 1, False)])\n"
    )
    paths = [str(Path(marking.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")


# -- surgery errors and derived triples --------------------------------------


def test_replace_keeps_its_errors():
    special = fixture_marked("pi1_step2")  # overlined 33, on mark 2
    cases = [
        (special, [(33, True), (33, True)], "overlined 33"),  # one copy twice
        (special, [(33, False)], "plain 33"),  # the only 33 is the overlined copy
        (special, [(35, False)], "plain 35"),  # absent
        (gg_mark_special((5, 3), 5), [(3, True)], "overlined 3"),  # not the overlined part
        (gg_mark((4, 2)), [(4, False), (4, False)], "plain 4"),  # one copy twice
    ]
    for mp, removals, who in cases:
        with pytest.raises(MissingEntryError, match=f"^no {who} in {re.escape(repr(mp))}$"):
            mp.replace(removals, [])
    # a plain part on the overline's mark number (36, mark 2) goes, and a plain
    # removal of the overlined value takes a plain copy and keeps the overline
    parts = list(special.parts)
    parts.remove(36)
    assert special.replace([(36, False)], []) is gg_mark_special(parts, 33)
    assert gg_mark_special((5, 5, 3), 5).replace([(5, False)], []) is gg_mark_special((5, 3), 5)


def test_entries_equal_the_stored_triples():
    # one (value, mark, overlined) triple per marked copy, read off the rows,
    # by decreasing value and then by mark
    inputs = [fixture_marked(name) for name in fixture_names()]
    inputs += [mp for ms in c_members(4, 3, 16).values() for mp in ms]
    for mp in inputs:
        triples = [(v, m, (v, m) == mp.overline) for m, row in enumerate(mp.rows, 1) for v in row]
        assert mp.entries == tuple(sorted(triples, key=lambda e: (-e[0], e[1]))), mp
        assert mp.row2 is mp.row_values(2)


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
