"""Acceptance criteria, one test per criterion, each at its stated bound.

Every check is exact integer equality (tolerance 0).  Each test prints one
PASS line on success (run with `pytest -s` to see them); a failure carries
the first offending object in its assertion message.
"""

from functools import cache

import pytest

from ggpart import (
    BressoudParams,
    classify_eq,
    classify_lt,
    classify_sim,
    cluster_indexes,
    dilate,
    find_m_eq33,
    find_pt_eq,
    find_pt_lt,
    reduce,
    render_grid,
    starting_profile,
    verify,
)
from ggpart.fixtures import FIXTURES, fixture_marked, fixture_overline, fixture_parts
from ggpart.marking import gg_mark_special

from helpers import c_members, e_members, pt_grid, row_at

KR_SETS = ((3, 3), (4, 3), (4, 4))


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_headline_identity():
    res = verify.companion(36)
    assert res.ok, res.first
    _passed(1, "length-refined generating function matches enumeration to q^36")


PRODUCT_PARAMS = (
    BressoudParams((1,), 2, 3, 3),
    BressoudParams((1,), 2, 4, 3),
    BressoudParams((1, 2), 3, 3, 3),
)


@pytest.mark.parametrize("params", PRODUCT_PARAMS, ids=str)
def test_criterion_02_product_form(params):
    res = verify.product(params, 36)
    assert res.ok, (params, res.first)
    _passed(2, f"product coefficients equal member counts to q^36 for {params}")


@pytest.mark.parametrize(
    "params", PRODUCT_PARAMS + (BressoudParams((1,), 2, 4, 4),), ids=str
)
def test_criterion_03_sum_equals_product(params):
    res = verify.sum_product(params, 40)
    assert res.ok, (params, res.first)
    _passed(3, f"multi-sum equals product to q^40 for {params}")


def test_criterion_04_cell_identity():
    for (k, r), cells in {(3, 3): 15, (4, 3): 35, (4, 4): 35}.items():
        res = verify.cell(k, r, 40)
        assert res.ok, (k, r, res.first)
        assert res.checked == cells, (k, r)
    _passed(4, "cell formula equals weighted cell enumeration to q^40, cells 2 N_1^2 <= 40")


@cache
def _pt_sweep():
    """verify.pt_bijection at every (p, t) with 2p+2t+1 <= 29, members to weight 30."""
    return {(k, r): verify.pt_bijection(k, r, c_members(k, r, 30)) for k, r in KR_SETS}


def test_criterion_05_pt_bijection():
    for (k, r), (fwd, bwd) in _pt_sweep().items():
        assert fwd.ok and bwd.ok, (k, r, fwd.first, bwd.first)
    checked = sum(fwd.checked for fwd, _ in _pt_sweep().values())
    assert checked == 7410
    _passed(5, f"phi/psi bijective with matching image sets ({checked} members)")


def test_criterion_06_factorized_round_trips():
    # each item of the sweep goes x -> dilate -> insert_odd -> separate_odd ->
    # reduce (and back from the eq end), comparing the midpoint, the start and
    # the lt kind against the midpoint's tilde kind; the maps check their own
    # ledgers and insertion's index transport
    counts = {kr: (fwd.checked, bwd.checked) for kr, (fwd, bwd) in _pt_sweep().items()}
    assert counts == {(3, 3): (2003, 2003), (4, 3): (2543, 2543), (4, 4): (2864, 2864)}
    assert all(fwd.ok and bwd.ok for fwd, bwd in _pt_sweep().values())
    _passed(6, "reduce(separate(insert(dilate)))=id and back, midpoints and kinds agreeing")


def test_criterion_07_twelve_subset_integrity():
    wmax = 28
    t_max = wmax // 2 + 4
    members_total = 0
    for k, r in KR_SETS:
        members = c_members(k, r, wmax)
        for n in range(wmax + 1):
            for mp in members[n]:
                for p, t in pt_grid(mp, t_max):
                    # classify_* raise ClassificationError unless exactly one
                    # clause fires for a member
                    if classify_lt(mp, k, r, p, t):
                        members_total += 1
                        classify_sim(mp, k, r, p, t)
                    if classify_eq(mp, k, r, p, t):
                        members_total += 1
    _passed(7, f"every member matched exactly one subset clause ({members_total} checks)")


def test_criterion_08_global_bijection():
    fwd, bwd = verify.global_pairs(c_members(3, 3, 26))
    assert fwd.ok and bwd.ok, (fwd.first, bwd.first)
    _passed(8, "pair absorption is a weight/length-preserving bijection to n=26")


def test_criterion_09_property_suite():
    wmax = 26
    t_max = wmax // 2 + 4
    for k, r in KR_SETS:
        members = c_members(k, r, wmax)
        for n in range(wmax + 1):
            for mp in members[n]:
                prof = starting_profile(mp)
                # marks of touching odd/even neighbours differ (direct rule)
                for t in range(0, t_max + 1):
                    if mp.has_part(2 * t + 1) and mp.has_part(2 * t + 2):
                        odd_mark = min(mp.marks_of(2 * t + 1))
                        assert all(m > odd_mark for m in mp.marks_of(2 * t + 2)), (
                            mp.parts,
                            t,
                        )
                for p, t in pt_grid(mp, t_max):
                    label = classify_lt(mp, k, r, p, t)
                    if label is not None:
                        assert p + t >= mp.N(2), (mp.parts, p, t)
                        idx = label.index
                        assert not (mp.has_part(idx) and mp.has_part(idx + 2)), (
                            mp.parts,
                            p,
                            t,
                        )
                        if row_at(mp, 2, p) >= 2 * t + 6:
                            assert mp.max_mark(2 * t + 2) <= 1
                            assert mp.max_mark(2 * t + 4) <= 1
                        if p >= 1 and row_at(mp, 2, p) == 2 * t + 2 and prof.type_at(p) == "s3":
                            lead = row_at(mp, 2, cluster_indexes(mp, p)[0])
                            assert mp.count(lead + 4) <= 1, (mp.parts, p, t)
                    sim = classify_sim(mp, k, r, p, t)
                    if sim is not None and mp.has(2 * t, 1):
                        assert not mp.has(2 * t, 2), (mp.parts, p, t)
                    eq_label = classify_eq(mp, k, r, p, t)
                    if eq_label is not None:
                        dv = eq_label.index
                        assert not (mp.has_part(dv) and mp.has_part(dv + 2)), (
                            mp.parts,
                            p,
                            t,
                        )
                        _check_two_sided_chain_property(mp, prof, p, t)
    # even members enter the lt family exactly from their second row count on
    for k, r in KR_SETS:
        evens = e_members(k, r, 26)
        for n in range(27):
            for mp in evens[n]:
                n2 = mp.N(2)
                for m in range(0, 15):
                    assert (find_pt_lt(mp, k, r, m) is not None) == (m >= n2), (
                        mp.parts,
                        m,
                    )
    # an eq-level member chains into strictly larger levels only
    members = c_members(3, 3, 26)
    for n in range(27):
        for mp in members[n]:
            m = find_m_eq33(mp)
            if m is None:
                continue
            assert find_pt_eq(mp, 3, 3, m) is not None
            for m2 in range(0, 15):
                assert (find_pt_lt(mp, 3, 3, m2) is not None) == (m2 > m), (
                    mp.parts,
                    m,
                    m2,
                )
    _passed(9, "all named structural properties hold on exhaustive sweeps")


def _check_two_sided_chain_property(mp, prof, p, t):
    """When the part after p sits at 2t+2, the first chain index typed s0/s1
    has no neighbour above, and everything before it in the chain is s3."""
    if row_at(mp, 2, p + 1) != 2 * t + 2:
        return
    base = row_at(mp, 2, p + 1)
    s = None
    for i in range(1, p + 2):
        if row_at(mp, 2, i) == base + 4 * (p - i + 1) and prof.type_at(i) in ("s0", "s1"):
            s = i
            break
    if s is None:
        return
    vs = row_at(mp, 2, s)
    assert not mp.has_part(vs + 2), (mp.parts, p, t, s)
    for i in range(1, s):
        if row_at(mp, 2, i) == base + 4 * (p - i + 1):
            assert prof.type_at(i) == "s3", (mp.parts, p, t, i)


def test_criterion_10_golden_fixtures():
    # every stored grid is reproduced by re-marking its parts
    for name in FIXTURES:
        mp = gg_mark_special(fixture_parts(name), fixture_overline(name))
        want = fixture_marked(name)
        assert mp.rows == want.rows and render_grid(mp) == render_grid(want), name
        assert {i: mp.row_values(i) for i in range(1, mp.n_rows + 1)} == FIXTURES[name][
            "rows"
        ], name
    # the running dilation reproduces its stored intermediates exactly
    pi1 = fixture_marked("pi1")
    mu, steps = dilate(pi1, 4, 3, 6, 5)
    for step, name in zip(steps, ("pi1_step4", "pi1_step3", "pi1_step2", "pi1_step1")):
        assert render_grid(step) == render_grid(fixture_marked(name)), name
    assert render_grid(mu) == render_grid(fixture_marked("mu"))
    back, rsteps = reduce(mu, 4, 3, 6, 5)
    assert render_grid(back) == render_grid(pi1)
    for step, name in zip(rsteps, ("pi1_step1", "pi1_step2", "pi1_step3", "pi1_step4")):
        assert render_grid(step) == render_grid(fixture_marked(name)), name
    # the twelve insertion kinds against their stored inputs/outputs
    from ggpart.maps import insert_odd_trace, separate_odd_trace

    for j in range(6, 13):
        prm = FIXTURES[f"m{j}"]["params"]
        args = (prm["k"], prm["r"], prm["p"], prm["t"])
        out, mid = insert_odd_trace(fixture_marked(f"m{j}"), *args)
        assert render_grid(out) == render_grid(fixture_marked(f"omega{j}")), j
        if j in (7, 12):
            assert render_grid(mid[0]) == render_grid(fixture_marked(f"nu{j}")), j
        back, mid_back = separate_odd_trace(fixture_marked(f"omega{j}"), *args)
        assert render_grid(back) == render_grid(fixture_marked(f"m{j}")), j
        if j in (7, 12):
            assert render_grid(mid_back[0]) == render_grid(fixture_marked(f"nu{j}")), j
    _passed(10, "stored grids and traces reproduced byte-for-byte")
