from collections import Counter

import pytest

from ggpart import (
    BressoudParams,
    ClassificationError,
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

from helpers import c_members, e_members, pt_grid, reference_pt_bijection

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
        (dilate, "pi1", (1, 0)), (insert_odd, "mu", (1, 1)), (separate_odd, "pi2", (1, 1)), (reduce, "mu", (1, 0)),
        (psi_pt, "pi2", (1, 1)), (phi_pt, "pi1", (2, 1)),
    ],
)
def test_each_map_classifies_once(monkeypatch, fn, src, want):
    # one membership pass for the input, plus one for the output a map checks;
    # psi_pt's reduction reads the label of separation's output check
    calls = {"_member_lt": 0, "_member_eq": 0}
    for name in calls:
        real = getattr(classify, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(classify, name, counted)
    fn(fixture_marked(src), 4, 3, 6, 5)
    assert (calls["_member_lt"], calls["_member_eq"]) == want


def _count_clause_passes(monkeypatch):
    """Patch the lt and eq clause passes and `_refine_sim`; returns
    {name: [partition, ...]}."""
    calls = {"lt": [], "eq": [], "_refine_sim": []}

    def counted(name, real):
        def pass_(mp, *args):
            calls[name].append(mp)
            return real(mp, *args)

        return pass_

    for family in ("lt", "eq"):
        monkeypatch.setitem(classify._CLAUSES, family, counted(family, classify._CLAUSES[family]))
    monkeypatch.setattr(classify, "_refine_sim", counted("_refine_sim", classify._refine_sim))
    return calls


def _unshared(name):
    # built here, not through the cached gg_mark, so no earlier label slot is set
    return MarkedPartition([(v, False) for v in fixture_parts(name)])


def test_dilate_reuses_the_probe_label(monkeypatch):
    pi1 = _unshared("pi1")
    calls = _count_clause_passes(monkeypatch)
    assert classify_lt(pi1, 4, 3, 6, 5).j == 6
    assert dilate(pi1, 4, 3, 6, 5)[0] == MU
    assert calls == {"lt": [pi1], "eq": [], "_refine_sim": []}


def test_sim_after_lt_is_one_refinement(monkeypatch):
    mu = _unshared("mu")
    calls = _count_clause_passes(monkeypatch)
    for _ in range(2):
        assert classify_lt(mu, 4, 3, 6, 5).j == 6
        assert classify_sim(mu, 4, 3, 6, 5).j == 6
    assert calls == {"lt": [mu], "eq": [], "_refine_sim": [mu]}


def test_reduce_reuses_the_separation_check(monkeypatch):
    pi2 = _unshared("pi2")
    calls = _count_clause_passes(monkeypatch)
    mu = separate_odd(pi2, 4, 3, 6, 5)
    assert calls["eq"] == [pi2]
    after_separation = {name: list(passes) for name, passes in calls.items()}
    # reduce reads the tilde label of separation's output check on mu
    assert reduce(mu, 4, 3, 6, 5)[0] == PI1
    assert calls == after_separation


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


@pytest.mark.parametrize("broken", [False, True], ids=["clean", "broken separate_odd"])
@pytest.mark.parametrize("k, r", [(3, 3), (4, 3), (4, 4), (5, 3)])
def test_pt_sweep_equals_the_probe_grid(monkeypatch, k, r, broken):
    # the searches place each member in the groups the probe grid filtered,
    # in the grid's order; exceptions compare by repr
    if broken:
        monkeypatch.setattr(maps, "separate_odd", lambda mp, k, r, p, t: mp)
    members = c_members(k, r, 20)
    got = verify.pt_bijection(k, r, members)
    assert repr(got) == repr(reference_pt_bijection(k, r, members))
    assert got[0].ok == got[1].ok == (not broken)


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
    # find_m_eq33 asks p = 0..N2 at the one t, and psi_pt checks its input once
    y = phi_global((8, 4, 2), (7,))
    assert (y.parts, y.N(2)) == ((8, 7, 4, 2), 2)
    calls = {"_member_eq": 0}
    real = classify._member_eq

    def counted(*args):
        calls["_member_eq"] += 1
        return real(*args)

    monkeypatch.setattr(classify, "_member_eq", counted)
    assert psi_global(y) == (gg_mark((8, 4, 2)), (7,))
    assert calls == {"_member_eq": 3 + 1}


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
