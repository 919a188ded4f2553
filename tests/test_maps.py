import re
from collections import Counter

import pytest

from ggpart import (
    BressoudParams,
    ClassificationError,
    GGError,
    MembershipError,
    classify_eq,
    classify_lt,
    classify_sim,
    dilate,
    find_m_eq33,
    gg_mark,
    gg_mark_special,
    insert_odd,
    is_bressoud_B,
    is_in_C,
    phi_global,
    phi_m,
    phi_pt,
    psi_global,
    psi_m,
    psi_pt,
    reduce,
    separate_odd,
    verify,
)
from ggpart import MarkedPartition, classify, maps
from ggpart.fixtures import FIXTURES, fixture_marked, fixture_parts
from ggpart.maps import insert_odd_trace, separate_odd_trace

from helpers import Index, c_members, e_members, pt_grid

PI1 = fixture_marked("pi1")
PI2 = fixture_marked("pi2")
MU = fixture_marked("mu")


def _carried(steps):
    """(t_b, r_b) of each step: its largest odd part 2t_b+1 and that part's one mark."""
    return [((s.largest_odd - 1) // 2, *s.marks_of(s.largest_odd)) for s in steps]


def test_dilation_running_example():
    out, steps = dilate(PI1, 4, 3, 6, 5)
    assert out == MU and out.rows == MU.rows
    names = ("pi1_step4", "pi1_step3", "pi1_step2", "pi1_step1")
    assert len(steps) == 4
    for step, name in zip(steps, names):
        want = fixture_marked(name)
        assert step.rows == want.rows and step.overline == want.overline, name
    assert _carried(steps) == [(11, 3), (13, 2), (16, 2), (18, 2)]


def test_reduction_running_example():
    out, steps = reduce(MU, 4, 3, 6, 5)
    assert out == PI1 and out.rows == PI1.rows
    names = ("pi1_step1", "pi1_step2", "pi1_step3", "pi1_step4")
    assert len(steps) == 4
    for step, name in zip(steps, names):
        want = fixture_marked(name)
        assert step.rows == want.rows and step.overline == want.overline, name
    assert _carried(steps) == [(18, 2), (16, 2), (13, 2), (11, 3)]


def test_dilation_identity_when_threshold_zero():
    mp = gg_mark((8, 2))  # no row-2 part above the insertion index at (0, 5)
    assert classify_lt(mp, 3, 3, 0, 5) is not None
    out, steps = dilate(mp, 3, 3, 0, 5)
    assert out == mp and steps == ()


def test_dilation_requires_membership():
    with pytest.raises(MembershipError):
        dilate(PI1, 4, 3, 6, 6)
    # an lt member in no tilde subset: its "sim" slot holds None, and the maps still refuse it
    mp = gg_mark((4, 4))
    assert classify_lt(mp, 3, 3, 1, 0) is not None and classify_sim(mp, 3, 3, 1, 0) is None
    for fn in (reduce, insert_odd):
        with pytest.raises(MembershipError, match=r"^\(4, 4\) is not in the tilde family at \(p,t\)=\(1,0\)$"):
            fn(mp, 3, 3, 1, 0)


@pytest.mark.parametrize("j", range(6, 13))
def test_insertion_kind_examples(j):
    prm = FIXTURES[f"m{j}"]["params"]
    args = (prm["k"], prm["r"], prm["p"], prm["t"])
    src = fixture_marked(f"m{j}")
    want = fixture_marked(f"omega{j}")
    out, mid = insert_odd_trace(src, *args)
    assert out.rows == want.rows
    if j in (7, 12):
        assert len(mid) == 1 and mid[0].rows == fixture_marked(f"nu{j}").rows
    back, mid_back = separate_odd_trace(want, *args)
    assert back.rows == src.rows
    if j in (7, 12):
        assert mid_back[0].rows == fixture_marked(f"nu{j}").rows


def test_insertion_small_kinds_append_only():
    # subsets 1..5 insert the odd part and touch nothing else
    found = 0
    for n in range(0, 19):
        for mp in c_members(3, 3, 18)[n]:
            for p, t in pt_grid(mp, 10):
                label = classify_sim(mp, 3, 3, p, t)
                if label is None or label.j > 5:
                    continue
                out = insert_odd(mp, 3, 3, p, t)
                assert sorted(out.parts) == sorted(mp.parts + (2 * t + 1,))
                found += 1
    assert found > 50


def test_phi_running_example_lands_on_pi2():
    out = phi_pt(PI1, 4, 3, 6, 5)
    assert out.weight == PI1.weight + 23 and out.length == 25
    assert out.rows == PI2.rows


def test_phi_on_empty():
    out = phi_pt(gg_mark(()), 3, 3, 0, 0)
    assert out.parts == (1,)
    assert psi_pt(out, 3, 3, 0, 0).parts == ()


@pytest.mark.parametrize(
    "fn, src, want",
    [
        (dilate, "pi1", (2, 0)), (insert_odd, "mu", (1, 1)), (separate_odd, "pi2", (1, 1)), (reduce, "mu", (2, 0)),
        (psi_pt, "pi2", (2, 1)), (phi_pt, "pi1", (2, 1)),
    ],
)
def test_each_map_classifies_once(monkeypatch, fn, src, want):
    # one membership pass per partition along a chain: a factor tests its
    # fresh input and the output it checks, and in phi_pt/psi_pt the second
    # factor's input check reads the slot of the first factor's output check
    calls = {"_member_lt": 0, "_member_eq": 0}
    for name in calls:
        real = getattr(classify, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(classify, name, counted)
    fn(_unshared(src), 4, 3, 6, 5)
    assert (calls["_member_lt"], calls["_member_eq"]) == want


def _count_clause_passes(monkeypatch):
    """Patch the three clause passes; returns {family: [partition, ...]}."""
    calls = {"lt": [], "eq": [], "sim": []}

    def counted(name, real):
        def pass_(mp, *args):
            calls[name].append(mp)
            return real(mp, *args)

        return pass_

    for family in calls:
        monkeypatch.setitem(classify._CLAUSES, family, counted(family, classify._CLAUSES[family]))
    return calls


def _fresh(mp):
    # built here, not through the cached gg_mark, so no earlier label slot is set
    return MarkedPartition([(v, over) for v, _, over in mp.entries])


def _unshared(name):
    return _fresh(fixture_marked(name))


def test_dilate_reuses_the_probe_label(monkeypatch):
    # one clause pass per partition: dilate's input check reads the probe's label
    pi1 = _unshared("pi1")
    MU._memo.clear()  # the live output: no label left by an earlier test answers
    calls = _count_clause_passes(monkeypatch)
    assert classify_lt(pi1, 4, 3, 6, 5).j == 6
    assert dilate(pi1, 4, 3, 6, 5)[0] == MU
    assert calls == {"lt": [pi1, MU], "eq": [], "sim": [MU]}


def test_sim_after_lt_is_one_refinement(monkeypatch):
    mu = _unshared("mu")
    calls = _count_clause_passes(monkeypatch)
    for _ in range(2):
        assert classify_lt(mu, 4, 3, 6, 5).j == 6
        assert classify_sim(mu, 4, 3, 6, 5).j == 6
    assert calls == {"lt": [mu], "eq": [], "sim": [mu]}


def test_reduce_reuses_the_separation_check(monkeypatch):
    # one clause pass per partition: reduce's input check reads the tilde
    # label of separation's output check on mu, and its own output check is pi1's
    pi2 = _unshared("pi2")
    for out in (MU, PI1):  # the live outputs: no label left by an earlier test answers
        out._memo.clear()
    calls = _count_clause_passes(monkeypatch)
    mu = separate_odd(pi2, 4, 3, 6, 5)
    assert calls == {"lt": [MU], "eq": [pi2], "sim": [MU]}
    assert reduce(mu, 4, 3, 6, 5)[0] == PI1
    assert calls == {"lt": [MU, PI1], "eq": [pi2], "sim": [MU]}


@pytest.mark.parametrize("fn, src, output_check", [(dilate, "pi1", "classify_sim"), (reduce, "mu", "classify_lt")])
def test_dilate_and_reduce_check_the_kind_and_index_they_keep(monkeypatch, fn, src, output_check):
    real = getattr(maps, output_check)
    for change, message in (({"j": 7}, f"{fn.__name__} moved "), ({"index": 0}, "index transport broke ")):
        monkeypatch.setattr(maps, output_check, lambda *args, _change=change: real(*args)._replace(**_change))
        with pytest.raises(GGError, match=f"^{message}"):
            fn(_unshared(src), 4, 3, 6, 5)


def test_map_levels_are_read_as_integers():
    four = gg_mark((4,))
    t_half, k_half, k_text, t_float = (3, 3, 0, 1.5), (3.5, 3, 0, 2), ("3", 3, 0, 2), (3, 3, 0, 2.0)
    # a member's label is built at integer levels only; the reject path reads none
    for args, text in ((t_half, "t must be an integer, got 1.5"), (k_half, "k must be an integer, got 3.5")):
        with pytest.raises(ValueError, match=rf"^{re.escape(text)}$"):
            classify_lt(_fresh(four), *args)
    assert classify_lt(four, 3, 3, 1, 1.5) is None  # p > N2 = 0: a non-member
    # a map reads its levels first, so it names the level, not a part, and no
    # slot at the equal int level answers a float
    assert phi_pt(four, 3, 3, 0, 2).parts == (5, 4)
    wrong = (
        (t_half, "t must be an integer, got 1.5"),
        (k_text, "k must be an integer, got '3'"),
        (t_float, "t must be an integer, got 2.0"),
    )
    for fn in (dilate, phi_pt, psi_pt):
        for args, text in wrong:
            with pytest.raises(ValueError, match=rf"^{re.escape(text)}$"):
                fn(four, *args)
    # an integer-like level that is not an int works on the map path
    levels = tuple(map(Index, (3, 3, 0, 2)))
    assert phi_pt(four, *levels) == phi_pt(four, 3, 3, 0, 2) and psi_pt(phi_pt(four, *levels), *levels) == four


def test_round_trips_land_on_the_partitions_they_started_from():
    # one live object per marked partition: each inverse half returns the
    # object its forward half built or started from
    mu, _ = dilate(PI1, 4, 3, 6, 5)
    assert mu is MU
    omega = insert_odd(mu, 4, 3, 6, 5)
    assert omega is PI2
    assert separate_odd(omega, 4, 3, 6, 5) is mu
    assert reduce(mu, 4, 3, 6, 5)[0] is PI1
    assert psi_pt(PI2, 4, 3, 6, 5) is PI1 and phi_pt(PI1, 4, 3, 6, 5) is PI2
    # the overlined copy is another partition, and a direct build a new object
    step = fixture_marked("pi1_step2")
    parts, over = fixture_parts("pi1_step2"), step.overline[0]
    assert gg_mark_special(parts, over) is step and gg_mark(parts) is not step
    assert gg_mark_special(parts, None) is gg_mark(parts)
    assert _unshared("pi1") is not PI1 and _unshared("pi1") == PI1


def test_pt_sweep_goes_through_the_public_factors(monkeypatch):
    # a separation whose midpoint is wrong breaks items in both directions,
    # although phi_pt and psi_pt themselves are untouched
    monkeypatch.setattr(maps, "separate_odd", lambda mp, k, r, p, t: mp)
    fwd, bwd = verify.pt_bijection(3, 3, c_members(3, 3, 6))
    # every item fails, and with no images the image-set checks fail too
    assert fwd.failures > fwd.checked == bwd.checked == bwd.failures > 0


@pytest.mark.parametrize("k, r", [(3, 3), (4, 3)])
def test_pt_maps_answer_a_second_call_as_the_first(monkeypatch, k, r):
    # a clean sweep runs psi once per source and on no target alone, so here
    # psi then phi run from every target, twice on the live partition (the
    # second call meets the labels the first left) and once on a fresh copy
    real, calls = maps.psi_pt_trace, Counter()

    def counted(y, k, r, p, t):
        calls[y, p, t] += 1
        return real(y, k, r, p, t)

    monkeypatch.setattr(maps, "psi_pt_trace", counted)
    fwd, bwd = verify.pt_bijection(k, r, c_members(k, r, 20))
    assert fwd.ok and bwd.ok and len(calls) == fwd.checked == bwd.checked
    assert set(calls.values()) == {1}  # so the calls' targets are every target
    for y, p, t in calls:
        runs = []
        for z in (y, y, _fresh(y)):
            x, mid = real(z, k, r, p, t)
            runs.append((x, mid, maps.phi_pt_trace(x, k, r, p, t)))
        assert runs[0] == runs[1] == runs[2] and runs[0][2] == (y, runs[0][1])
        # each factor whose input slot answers its input check, as on a fresh copy
        x, (mu,) = runs[0][:2]
        for fn, z in ((separate_odd, y), (reduce, mu), (dilate, x), (insert_odd, mu)):
            assert fn(z, k, r, p, t) == fn(_fresh(z), k, r, p, t)


def test_pt_sweep_names_the_one_target_psi_gets_wrong(monkeypatch):
    # psi wrong on one target fails its source's round trip and its backward item only
    y = gg_mark((6, 4, 1))  # eq-placed at (p, t) = (1, 0) only
    source = psi_pt(y, 3, 3, 1, 0)
    real = maps.psi_pt_trace

    def wrong_on_y(mp, **kw):
        x, mid = real(mp, **kw)
        return (mp if mp == y else x), mid

    monkeypatch.setattr(maps, "psi_pt_trace", wrong_on_y)
    fwd, bwd = verify.pt_bijection(3, 3, c_members(3, 3, 12))
    assert fwd.failures == bwd.failures == 1 and bwd.checked == fwd.checked == 57
    assert fwd.first[0] == (((1, 0), 8), source)
    assert bwd.first == ((((1, 0), 8), y), y, None)


def test_pt_sweep_counts_a_clause_error_as_a_failed_item(monkeypatch):
    # membership alone places a member, so its clause pass runs inside the item
    empty = MarkedPartition([])  # built here: no earlier label slot is set
    clean = verify.pt_bijection(3, 3, c_members(3, 3, 8))
    members = {**c_members(3, 3, 8), 0: [empty]}
    real = classify._CLAUSES["lt"]

    def planted(mp, *args):
        if mp == empty:
            raise ClassificationError("planted")
        return real(mp, *args)

    monkeypatch.setitem(classify._CLAUSES, "lt", planted)
    fwd, bwd = verify.pt_bijection(3, 3, members)
    assert clean[0].ok and fwd.checked == clean[0].checked
    where, expected, got = fwd.first
    assert (where, expected, repr(got)) == ((((0, 0), 0), empty), empty, "ClassificationError('planted')")
    assert not bwd.ok


def test_pt_sweep_asks_find_pt_eq_only_where_it_can_hit(monkeypatch):
    # the largest odd part 2t+1 fixes t, so only the levels m = t..t+N2 with
    # 2m + 1 <= n can place a member of weight n, and none without an odd part
    members = c_members(3, 3, 20)
    calls = []
    real = verify.find_pt_eq

    def counted(mp, k, r, m):
        calls.append((mp.parts, m))
        return real(mp, k, r, m)

    monkeypatch.setattr(verify, "find_pt_eq", counted)
    verify.pt_bijection(3, 3, members)
    assert calls == [
        (mp.parts, m)
        for n, mps in members.items()
        for mp in mps
        for m in range(n)
        if mp.largest_odd and 2 * m + 1 <= n and 0 <= m - mp.largest_odd // 2 <= mp.N(2)
    ]


def test_round_trips_near_the_fixtures():
    # The sweeps above rarely reach kinds 11 and 12 (never 12 at (4,3)), so
    # walk out from the worked examples: two rounds of phi_pt/psi_pt over
    # every (p, t) of every member not yet visited, queueing each image.
    # Each partition visited or queued is also checked against the four
    # defining conditions, at weights no exhaustive sweep reaches.
    k, r = 4, 3
    params = BressoudParams((1,), 2, k, r)

    def agree(x):
        return is_in_C(x, k, r) == is_bressoud_B(x.parts, params)

    frontier = [fixture_marked(n) for n in sorted(FIXTURES) if "overline" not in FIXTURES[n]]
    assert len(frontier) == 22
    visited, weights, kinds, bwd = set(), [], Counter(), 0
    for _ in range(2):
        queue = []
        for x in frontier:
            if x in visited:
                continue
            visited.add(x)
            weights.append(x.weight)
            assert agree(x), x.parts
            for p in range(x.N(2) + 1):
                for t in range(x.parts[0] // 2 + 3):
                    label = classify_lt(x, k, r, p, t)
                    if label is not None:
                        y = phi_pt(x, k, r, p, t)
                        assert psi_pt(y, k, r, p, t) == x
                        assert agree(y), y.parts
                        kinds[label.j] += 1
                        queue.append(y)
                    if classify_eq(x, k, r, p, t) is not None:
                        w = psi_pt(x, k, r, p, t)
                        assert phi_pt(w, k, r, p, t) == x
                        assert agree(w), w.parts
                        bwd += 1
                        queue.append(w)
        frontier = queue
    assert (len(visited), min(weights), max(weights)) == (188, 38, 621)
    assert (sum(kinds.values()), bwd) == (924, 178)
    assert sorted(kinds) == list(range(1, 13))
    assert (kinds[11], kinds[12]) == (47, 23)


def test_m_level_maps():
    assert phi_m(gg_mark(()), 3, 3, 0).parts == (1,)
    # every even member is reachable at any m at or past its second row count
    for n in range(0, 17):
        for mp in e_members(3, 3, 16)[n]:
            n2 = mp.N(2)
            for m in range(n2, n2 + 3):
                out = phi_m(mp, 3, 3, m)
                assert out.weight == mp.weight + 2 * m + 1
                assert find_m_eq33(out) == m  # the image remembers its level
                assert psi_m(out, 3, 3, m) == mp
            if n2 >= 1:
                with pytest.raises(MembershipError):
                    phi_m(mp, 3, 3, n2 - 1)
    for fn in (classify.find_pt_lt, classify.find_pt_eq, phi_m, psi_m):
        # find_pt_lt used to place (4,) at (0, 1.5), and phi_m then named the part 4.0
        with pytest.raises(ValueError, match=r"^m must be an integer, got 1\.5$"):
            fn(gg_mark((4,)), 3, 3, 1.5)


def test_global_examples():
    even = gg_mark((8, 4, 2))
    assert phi_global(even, ()) == even
    assert phi_global((), (1,)).parts == (1,)
    assert psi_global(gg_mark((1,))) == (gg_mark(()), (1,))
    back, zeta = psi_global(gg_mark((8, 4, 2)))
    assert back.parts == (8, 4, 2) and zeta == ()


def test_psi_global_searches_once_per_odd_part(monkeypatch):
    # find_m_eq33 asks the two p whose row-2 bracket holds 2t+2 = 8, and psi_pt
    # checks its fresh input once; on phi_global's output, insertion's output
    # check answered it
    live = phi_global((8, 4, 2), (7,))
    y = _fresh(live)
    assert (y.parts, y.N(2)) == ((8, 7, 4, 2), 2)
    calls = {"_member_eq": 0}
    real = classify._member_eq

    def counted(*args):
        calls["_member_eq"] += 1
        return real(*args)

    monkeypatch.setattr(classify, "_member_eq", counted)
    assert psi_global(y) == (gg_mark((8, 4, 2)), (7,))
    assert calls == {"_member_eq": 2 + 1}
    assert psi_global(live) == (gg_mark((8, 4, 2)), (7,))
    assert calls == {"_member_eq": 2 + 1 + 2}


def test_global_round_trip_sweep():
    fwd, bwd = verify.global_pairs(c_members(3, 3, 20))
    assert fwd.ok and bwd.ok, (fwd.first, bwd.first)
    assert verify.pt_bijection(3, 3, {}) == verify.global_pairs({}) == (verify.Result(0, 0, None),) * 2


def test_global_rejects_bad_pairs():
    with pytest.raises(MembershipError):
        phi_global((3, 2), (5,))  # odd part in the even component
    with pytest.raises(MembershipError):
        phi_global((4, 2), (1,))  # floor is 2*N2+1 = 3
    # non-integer absorbed parts used to raise a bare TypeError
    for zeta, text in (((2.5,), "2.5"), (("3",), "'3'")):
        with pytest.raises(ValueError, match=rf"^absorbed part must be an integer, got {text}$"):
            phi_global((), zeta)
