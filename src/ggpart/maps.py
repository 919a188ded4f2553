"""The weight-shifting maps between the three partition families.

`dilate`/`reduce` shift weight by 2l (l = number of row-2 parts above the
insertion index) without touching the length, and return (result, steps):
in each step partition the largest odd part 2t_b+1, with its mark r_b, is
the one a basic move made or a carry moved up.  `insert_odd`/`separate_odd`
add/remove the odd part 2t+1 and shuffle a cluster of even parts by 2.  Their
composites `phi_pt`/`psi_pt` realize the one-piece bijection, `phi_m`/`psi_m`
resolve the unique (p, t) split of m, and `phi_global`/`psi_global` chain the
m-level maps to absorb a whole partition of distinct odd parts.  Each
insertion or separation kind is one or two batches of row-2 move spans
(`_moves`): a run of row-2 parts shifts by 2 as the odd part goes in or out.

Every step names the parts it moves by value and overline only, and re-marks
after each batch of replacements.  The output of a step is the canonical
marking of its parts, so no mark the paper names at a removal can change it:
it would only assert that a copy with that mark exists.  A missing value
aborts with the partition attached.  Each of the four factors reads its
levels as ints and its input's label, checks its weight/length ledger, then
classifies its output and checks that the subset kind and index were kept.
The input label is the family's slot when that holds this (k, r, p, t),
which `_label` reads itself: a slot is written only after membership
passed, so along a chain each input check is answered by the previous
output check.  At l = 0 `dilate` and `reduce` are the identity and read no
typing; the input's membership test has read its starting profile, so
the skip leaves no profile error unraised.  `phi_pt_trace`/`psi_pt_trace`
compose the public factors, return (result, (midpoint,)) and check the
whole ledger.
"""

from __future__ import annotations

from .classify import (
    _chain,
    _levels,
    classify_eq,
    classify_lt,
    classify_sim,
    cluster_indexes,
    find_m_eq33,
    find_pt_eq,
    find_pt_lt,
    insertion_types,
    reduction_types,
)
from .errors import GGError, MembershipError, integers
from .marking import MarkedPartition, gg_mark
from .membership import is_in_C


def _ledger(name: str, before: MarkedPartition, after: MarkedPartition, dw: int, dl: int):
    if after.weight - before.weight != dw or after.length - before.length != dl:
        raise GGError(
            f"{name} ledger mismatch on {before.parts}: "
            f"weight {before.weight}->{after.weight} (want +{dw}), "
            f"length {before.length}->{after.length} (want +{dl})"
        )


def _label(classify, family: str, mp: MarkedPartition, k, r, p, t):
    """The levels read as ints and the label of `mp` in `family` at (p, t), from
    its slot if that holds them; a non-member raises, also on a "sim" slot of None."""
    if k.__class__ is r.__class__ is p.__class__ is t.__class__ is int:
        key = (k, r, p, t)
    else:
        key = _levels(k, r, p, t)
    slot = mp._memo.get(family)
    label = slot[1] if slot is not None and slot[0] == key else classify(mp, *key)
    if label is None:
        name = "tilde" if family == "sim" else family
        raise MembershipError(f"{mp.parts} is not in the {name} family at (p,t)=({key[2]},{key[3]})")
    return key, label


def _transported(name: str, verb: str, classify, mp, out, label, k: int, r: int) -> None:
    """Check that `out`, the output of map `name` on `mp`, kept `label`'s subset and index."""
    p, t, j = label.p, label.t, label.j
    label_out = classify(out, k, r, p, t)
    if label_out is None or label_out.j != j:
        got = label_out.j if label_out else None
        raise GGError(f"{name} moved {mp.parts} from subset {j} to {got} at ({p},{t})")
    if label_out.index != label.index:
        raise GGError(f"index transport broke {verb} {mp.parts} at ({p},{t})")


# -- dilation / reduction ----------------------------------------------


def dilate(mp: MarkedPartition, k: int, r: int, p: int, t: int):
    """Map an lt-family member to its tilde-family image (weight +2l).

    Each run's basic dilation turns its lowest part into the odd part one
    above it, overlined for types A3 and B; type A2 takes the 1-marked part
    2 below instead.  The carry then moves the odd part 2t_b+1 up the run
    past the part 2t_b+4, which drops to 2t_b+2, and the odd part leaves the
    run as the even part one above it.
    """
    (k, r, _, _), label = _label(classify_lt, "lt", mp, k, r, p, t)
    row = mp.row2
    cur, steps = mp, []
    for lo, hi, lab in insertion_types(mp, label.l) if label.l else ():
        gone = row[hi - 1] - 2 if lab == "A2" else row[hi - 1]
        odd, over = gone + 1, lab in ("A3", "B")
        cur = cur.replace([(gone, False)], [(odd, over)])
        steps.append(cur)
        for _ in range(lo, hi):  # carry the odd part up the run
            cur = cur.replace([(odd, over), (odd + 3, False)], [(odd + 1, False), (odd + 4, over)])
            odd += 4
            steps.append(cur)
        cur = cur.replace([(odd, over)], [(odd + 1, False)])
    _ledger("dilate", mp, cur, 2 * label.l, 0)
    _transported("dilate", "dilating", classify_sim, mp, cur, label, k, r)
    return cur, tuple(steps)


def reduce(mp: MarkedPartition, k: int, r: int, p: int, t: int):
    """Map a tilde-family member back to the lt family (weight -2l).

    At each index of a run the basic reduction turns the row-2 part, or for
    types A1 and B the part 2 above it, into the odd part one below,
    overlined for types A3 and B; that odd part then drops by one more.
    """
    (k, r, _, _), label = _label(classify_sim, "sim", mp, k, r, p, t)
    row = mp.row2
    cur, steps = mp, []
    for lo, hi, lab in reduction_types(mp, label.l) if label.l else ():
        over = lab in ("A3", "B")
        for i in range(lo, hi + 1):
            gone = row[i - 1] + 2 if lab in ("A1", "B") else row[i - 1]
            cur = cur.replace([(gone, False)], [(gone - 1, over)])
            steps.append(cur)
            cur = cur.replace([(gone - 1, over)], [(gone - 2, False)])
    _ledger("reduce", mp, cur, -2 * label.l, 0)
    _transported("reduce", "reducing", classify_lt, mp, cur, label, k, r)
    return cur, tuple(steps)


# -- insertion / separation --------------------------------------------


def insert_odd_trace(mp: MarkedPartition, k: int, r: int, p: int, t: int):
    """Insert the odd part 2t+1 into a tilde-family member: (result, (midpoint,))
    for the two re-marking kinds 7 and 12, else (result, ())."""
    (k, r, p, t), label = _label(classify_sim, "sim", mp, k, r, p, t)
    j, l = label.j, label.l
    odd = 2 * t + 1
    row = mp.row2
    mid: tuple[MarkedPartition, ...] = ()

    if j <= 5:
        out = mp.replace([], [(odd, False)])
    elif j == 7:
        p1 = cluster_indexes(mp, p)[0]
        nu = mp.replace([], [(odd, False)])
        mid = (nu,)
        out = nu.replace(*_moves(row, (p1, p, 0, 2)))
    else:
        clusters = cluster_indexes(mp, p)
        p1 = clusters[0]
        # 6 lifts the parts 2 below those at p1..p, 8 to 12 those parts (in the
        # paper, their 2-marked copies for 8 and their 1-marked ones for 9 to 12)
        spans = [(p1, p, -2 if j == 6 else 0, 2)]
        if j == 11:
            spans.append((clusters[1], p1 - 1, -2, 2))
        removals, additions = _moves(row, *spans)
        out = mp.replace(removals, additions + [(odd, False)])
        if j == 12:
            p2, nu = clusters[1], out
            mid = (nu,)
            out = nu.replace(*_moves(row, (p2, p1 - 1, 0, 2)))
    _ledger("insert_odd", mp, out, 2 * (p - l) + 2 * t + 1, 1)
    _transported("insert_odd", "inserting into", classify_eq, mp, out, label, k, r)
    return out, mid


def _moves(row: tuple[int, ...], *spans) -> tuple[list, list]:
    """The (removals, additions) of a batch of row-2 move spans.

    A span (lo, hi, frm, by) takes out a copy of row[i-1] + frm and puts in
    row[i-1] + frm + by, for i = lo..hi.
    """
    removals, additions = [], []
    for lo, hi, frm, by in spans:
        for i in range(lo, hi + 1):
            value = row[i - 1] + frm
            removals.append((value, False))
            additions.append((value + by, False))
    return removals, additions


def insert_odd(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> MarkedPartition:
    return insert_odd_trace(mp, k, r, p, t)[0]


def separate_odd_trace(mp: MarkedPartition, k: int, r: int, p: int, t: int):
    """Remove the odd part 2t+1 from an eq-family member (inverse insertion)."""
    (k, r, p, t), label = _label(classify_eq, "eq", mp, k, r, p, t)
    j, l = label.j, label.l
    odd = 2 * t + 1
    row = mp.row2
    mid: tuple[MarkedPartition, ...] = ()

    if j <= 5:
        out = mp.replace([(odd, False)], [])
    elif j == 7:
        nu = mp.replace(*_moves(row, (l + 1, p, 0, -2)))
        mid = (nu,)
        out = nu.replace([(odd, False)], [])
    elif j == 12:
        s = _smallest_chain_index(mp, row, p, once=True)
        nu = mp.replace(*_moves(row, (l + 1, s - 1, 0, -2)))
        mid = (nu,)
        removals, additions = _moves(row, (s + 1, p + 1, 2, -2))
        out = nu.replace([(odd, False)] + removals, additions)
    else:
        if j in (6, 8):
            spans = [(l + 1, p, 0, -2)]
        elif j == 9:
            spans = [(l + 1, p, 2, -2)]
        elif j == 10:
            spans = [(l + 2, p + 1, 2, -2)]
        else:  # j == 11
            s = _smallest_chain_index(mp, row, p)
            spans = [(s, p, 2, -2), (l + 1, s - 1, 0, -2)]
        removals, additions = _moves(row, *spans)
        out = mp.replace([(odd, False)] + removals, additions)
    _ledger("separate_odd", mp, out, -(2 * (p - l) + 2 * t + 1), -1)
    _transported("separate_odd", "separating", classify_sim, mp, out, label, k, r)
    return out, mid


def _smallest_chain_index(mp: MarkedPartition, row, p: int, once: bool = False) -> int:
    for s in _chain(row, p):
        if not once or mp.count(row[s - 1]) == 1:
            return s
    raise GGError(f"no chain anchor below index {p} in {mp.parts}")


def separate_odd(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> MarkedPartition:
    return separate_odd_trace(mp, k, r, p, t)[0]


# -- composites ---------------------------------------------------------


def phi_pt_trace(mp: MarkedPartition, k: int, r: int, p: int, t: int):
    """Insertion after dilation, lt family -> eq family: (result, (midpoint,))."""
    k, r, p, t = _levels(k, r, p, t)
    out = insert_odd(mu := dilate(mp, k, r, p, t)[0], k, r, p, t)
    _ledger("phi_pt", mp, out, 2 * p + 2 * t + 1, 1)
    return out, (mu,)


def psi_pt_trace(mp: MarkedPartition, k: int, r: int, p: int, t: int):
    """Reduction after separation, eq family -> lt family: (result, (midpoint,))."""
    k, r, p, t = _levels(k, r, p, t)
    out = reduce(mu := separate_odd(mp, k, r, p, t), k, r, p, t)[0]
    _ledger("psi_pt", mp, out, -(2 * p + 2 * t + 1), -1)
    return out, (mu,)


def phi_pt(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> MarkedPartition:
    return phi_pt_trace(mp, k, r, p, t)[0]


def psi_pt(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> MarkedPartition:
    return psi_pt_trace(mp, k, r, p, t)[0]


def phi_m(mp: MarkedPartition, k: int, r: int, m: int) -> MarkedPartition:
    pt = find_pt_lt(mp, k, r, m)
    if pt is None:
        raise MembershipError(f"{mp.parts} is not in the lt family at level m={m}")
    return phi_pt(mp, k, r, *pt)


def psi_m(mp: MarkedPartition, k: int, r: int, m: int) -> MarkedPartition:
    pt = find_pt_eq(mp, k, r, m)
    if pt is None:
        raise MembershipError(f"{mp.parts} is not in the eq family at level m={m}")
    return psi_pt(mp, k, r, *pt)


def phi_global(parts, zeta) -> MarkedPartition:
    """Absorb a distinct-odd partition into an even k=r=3 member, smallest
    odd part first."""
    mp = parts if isinstance(parts, MarkedPartition) else gg_mark(parts)
    if mp.largest_odd or not is_in_C(mp, 3, 3):
        raise MembershipError(f"{mp.parts} is not an even k=r=3 member")
    zeta = tuple(sorted(integers("absorbed part", zeta), reverse=True))
    if len(set(zeta)) != len(zeta) or any(z % 2 == 0 for z in zeta):
        raise MembershipError(f"absorbed parts must be distinct odds, got {zeta}")
    floor = mp.N(2)
    if any(z < 2 * floor + 1 for z in zeta):
        raise MembershipError(f"odd parts {zeta} dip below the floor 2*{floor}+1")
    for z in reversed(zeta):
        mp = phi_m(mp, 3, 3, (z - 1) // 2)
    return mp


def psi_global(mp: MarkedPartition):
    """Strip all odd parts off a k=r=3 member, returning (even member, odds)."""
    if not is_in_C(mp, 3, 3):
        raise MembershipError(f"{mp.parts} is not a k=r=3 member")
    budget = sum(1 for v in mp.parts if v % 2)
    zeta: list[int] = []
    while mp.largest_odd:
        if len(zeta) >= budget:
            raise GGError(f"separation loop exceeded the odd-part budget on {mp.parts}")
        m, t = find_m_eq33(mp), mp.largest_odd // 2
        mp = psi_pt(mp, 3, 3, m - t, t)
        zeta.append(2 * m + 1)
    return mp, tuple(zeta)
