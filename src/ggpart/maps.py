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

Every step addresses parts by (value, mark) in the current canonical marking
and re-marks after each batch of replacements; a missing target aborts with
the trace attached.  Weight/length deltas are checked after every map, so a
construction bug cannot produce a plausible-looking wrong output.
"""

from __future__ import annotations

from .classify import (
    _chain,
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
from .errors import GGError, MembershipError, MissingEntryError, integers
from .marking import MarkedPartition, gg_mark
from .membership import is_in_C


def _ledger(name: str, before: MarkedPartition, after: MarkedPartition, dw: int, dl: int):
    if after.weight - before.weight != dw or after.length - before.length != dl:
        raise GGError(
            f"{name} ledger mismatch on {before.parts}: "
            f"weight {before.weight}->{after.weight} (want +{dw}), "
            f"length {before.length}->{after.length} (want +{dl})"
        )


def _label(classify, family: str, mp: MarkedPartition, k: int, r: int, p: int, t: int):
    """The label of `mp` in the given family at (p, t); a non-member raises."""
    label = classify(mp, k, r, p, t)
    if label is None:
        raise MembershipError(f"{mp.parts} is not in the {family} family at (p,t)=({p},{t})")
    return label


def _transported(name: str, verb: str, classify, mp, out, label, k: int, r: int):
    """Classify the output `out` of map `name` on `mp` itself, check that it
    kept the subset and the index of `label`, and return its label."""
    p, t, j = label.p, label.t, label.j
    label_out = classify(out, k, r, p, t)
    if label_out is None or label_out.j != j:
        got = label_out.j if label_out else None
        raise GGError(f"{name} moved {mp.parts} from subset {j} to {got} at ({p},{t})")
    if label_out.index != label.index:
        raise GGError(f"index transport broke {verb} {mp.parts} at ({p},{t})")
    return label_out


# -- dilation / reduction ----------------------------------------------


def _basic_dilation(cur: MarkedPartition, value: int, label: str):
    """One basic dilation at a row-2 part of the given insertion type.

    Returns (partition, t, r, overlined) for the odd part it created.
    """
    if label == "A2":
        t = (value - 2) // 2
        new = cur.replace([(2 * t, 1, False)], [(2 * t + 1, False)])
        return new, t, 1, False
    t = value // 2
    if label in ("A1", "B"):
        marks = cur.marks_of(value)
        if not marks:
            raise MissingEntryError(f"no parts {value} to dilate in {cur!r}", cur)
        r = max(marks)
        over = label == "B"
    else:  # A3, C
        r = 2
        over = label == "A3"
    new = cur.replace([(value, r, False)], [(2 * t + 1, over)])
    return new, t, r, over


def dilate(mp: MarkedPartition, k: int, r: int, p: int, t: int):
    """Map an lt-family member to its tilde-family image (weight +2l)."""
    l = _label(classify_lt, "lt", mp, k, r, p, t).l
    row = mp.row2
    cur, steps = mp, []
    for lo, hi, lab in insertion_types(mp, l):  # no runs when l == 0: the identity
        cur, tb, rb, over = _basic_dilation(cur, row[hi - 1], lab)
        steps.append(cur)
        for _ in range(lo, hi):  # carry the odd part up the run
            target = 2 * tb + 4
            marks = [m for m in cur.marks_of(target) if m <= rb]
            if not marks:
                raise MissingEntryError(
                    f"no {target} with mark <= {rb} while walking {mp.parts}", cur
                )
            rb1 = max(marks)
            cur = cur.replace(
                [(2 * tb + 1, rb, over), (target, rb1, False)],
                [(2 * tb + 2, False), (2 * tb + 5, over)],
            )
            tb, rb = tb + 2, rb1
            steps.append(cur)
        cur = cur.replace([(2 * tb + 1, rb, over)], [(2 * tb + 2, False)])
    _ledger("dilate", mp, cur, 2 * l, 0)
    return cur, tuple(steps)


def _basic_reduction(cur: MarkedPartition, value: int, label: str):
    """One basic reduction at a row-2 part of the given reduction type."""
    if label in ("A1", "B"):
        t = value // 2
        marks = cur.marks_of(value + 2)
        if label == "B":
            marks = {m for m in marks if m != 1}
        if not marks:
            raise MissingEntryError(f"no parts {value + 2} to reduce in {cur!r}", cur)
        r = min(marks)
        over = label == "B"
        new = cur.replace([(value + 2, r, False)], [(2 * t + 1, over)])
        return new, t, r, over
    t = (value - 2) // 2
    r = 1 if label == "A2" else 2
    over = label == "A3"
    new = cur.replace([(value, r, False)], [(2 * t + 1, over)])
    return new, t, r, over


def reduce(mp: MarkedPartition, k: int, r: int, p: int, t: int):
    """Map a tilde-family member back to the lt family (weight -2l)."""
    return _reduce(mp, _label(classify_sim, "tilde", mp, k, r, p, t))


def _reduce(mp: MarkedPartition, label):
    """`reduce` of a member whose tilde label is `label`."""
    l = label.l
    row = mp.row2
    cur, steps = mp, []
    for lo, hi, lab in reduction_types(mp, l):  # no runs when l == 0: the identity
        for i in range(lo, hi + 1):
            cur, tb, rb, over = _basic_reduction(cur, row[i - 1], lab)
            steps.append(cur)
            cur = cur.replace([(2 * tb + 1, rb, over)], [(2 * tb, False)])
    _ledger("reduce", mp, cur, -2 * l, 0)
    return cur, tuple(steps)


# -- insertion / separation --------------------------------------------


def insert_odd_trace(mp: MarkedPartition, k: int, r: int, p: int, t: int):
    """Insert the odd part 2t+1 into a tilde-family member.

    Returns (result, intermediates); the two re-marking kinds expose their
    midpoint partition as the single intermediate.
    """
    label = _label(classify_sim, "tilde", mp, k, r, p, t)
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
        marks = _descending_marks(nu, row[p1 - 1 : p])
        out = nu.replace(*_moves(row, (p1, p, 0, 2, marks)))
    else:
        clusters = cluster_indexes(mp, p)
        p1 = clusters[0]
        if j == 6:
            spans = [(p1, p, -2, 2, 1)]
        elif j == 8:
            spans = [(p1, p, 0, 2, 2)]
        else:  # 9 to 12 lift the 1-marked parts p1..p first
            spans = [(p1, p, 0, 2, 1)]
        if j == 11:
            spans.append((clusters[1], p1 - 1, -2, 2, 1))
        removals, additions = _moves(row, *spans)
        out = mp.replace(removals, additions + [(odd, False)])
        if j == 12:
            p2, nu = clusters[1], out
            mid = (nu,)
            marks = _descending_marks(nu, row[p2 - 1 : p1 - 1])
            out = nu.replace(*_moves(row, (p2, p1 - 1, 0, 2, marks)))
    _ledger("insert_odd", mp, out, 2 * (p - l) + 2 * t + 1, 1)
    _transported("insert_odd", "inserting into", classify_eq, mp, out, label, k, r)
    return out, mid


def _moves(row: tuple[int, ...], *spans) -> tuple[list, list]:
    """The (removals, additions) of a batch of row-2 move spans.

    A span (lo, hi, frm, by, marks) takes out the copy of row[i-1] + frm
    that carries `marks` (one mark, or a list with one mark per index from
    lo) and puts in row[i-1] + frm + by, for i = lo..hi.
    """
    removals, additions = [], []
    for lo, hi, frm, by, marks in spans:
        for i in range(lo, hi + 1):
            value = row[i - 1] + frm
            removals.append((value, marks if isinstance(marks, int) else marks[i - lo], False))
            additions.append((value + by, False))
    return removals, additions


def _descending_marks(nu: MarkedPartition, values: tuple[int, ...]) -> list[int]:
    """Thread the non-increasing mark chain r_i through `values` (ascending
    index order = descending values): the first pick is the largest mark of
    the last value, each next pick the largest mark <= its successor's."""
    out: list[int] = [0] * len(values)
    hi = None
    for pos in range(len(values) - 1, -1, -1):
        marks = nu.marks_of(values[pos])
        if hi is not None:
            marks = {m for m in marks if m <= hi}
        if not marks:
            raise MissingEntryError(
                f"mark chain broke at value {values[pos]} (cap {hi}) in {nu!r}", nu
            )
        hi = max(marks)
        out[pos] = hi
    return out


def insert_odd(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> MarkedPartition:
    return insert_odd_trace(mp, k, r, p, t)[0]


def separate_odd_trace(mp: MarkedPartition, k: int, r: int, p: int, t: int):
    """Remove the odd part 2t+1 from an eq-family member (inverse insertion)."""
    return _separate_odd(mp, k, r, _label(classify_eq, "eq", mp, k, r, p, t))[:2]


def _separate_odd(mp: MarkedPartition, k: int, r: int, label):
    """`separate_odd_trace` of a member whose eq label is `label`; returns
    (out, intermediates, the tilde label of out)."""
    j, p, t, l = label.j, label.p, label.t, label.l
    odd = 2 * t + 1
    row = mp.row2
    mid: tuple[MarkedPartition, ...] = ()

    if j <= 5:
        out = mp.replace([(odd, None, False)], [])
    elif j == 7:
        marks = [_small_mark_not_2(mp, v) for v in row[l:p]]
        nu = mp.replace(*_moves(row, (l + 1, p, 0, -2, marks)))
        mid = (nu,)
        out = nu.replace([(odd, None, False)], [])
    elif j == 12:
        s = _smallest_chain_index(mp, row, p, once=True)
        marks = [_small_mark_not_2(mp, v) for v in row[l : s - 1]]
        nu = mp.replace(*_moves(row, (l + 1, s - 1, 0, -2, marks)))
        mid = (nu,)
        removals, additions = _moves(row, (s + 1, p + 1, 2, -2, 1))
        out = nu.replace([(odd, None, False)] + removals, additions)
    else:
        if j == 6:
            spans = [(l + 1, p, 0, -2, 1)]
        elif j == 8:
            spans = [(l + 1, p, 0, -2, 2)]
        elif j == 9:
            spans = [(l + 1, p, 2, -2, 1)]
        elif j == 10:
            spans = [(l + 2, p + 1, 2, -2, 1)]
        else:  # j == 11
            s = _smallest_chain_index(mp, row, p)
            spans = [(s, p, 2, -2, 1), (l + 1, s - 1, 0, -2, 1)]
        removals, additions = _moves(row, *spans)
        out = mp.replace([(odd, None, False)] + removals, additions)
    _ledger("separate_odd", mp, out, -(2 * (p - l) + 2 * t + 1), -1)
    return out, mid, _transported("separate_odd", "separating", classify_sim, mp, out, label, k, r)


def _small_mark_not_2(mp: MarkedPartition, value: int) -> int:
    marks = [m for m in mp.marks_of(value) if m != 2]
    if not marks:
        raise MissingEntryError(f"no mark other than 2 on parts {value} in {mp!r}", mp)
    return min(marks)


def _smallest_chain_index(mp: MarkedPartition, row, p: int, once: bool = False) -> int:
    for s in _chain(row, p):
        if not once or mp.count(row[s - 1]) == 1:
            return s
    raise GGError(f"no chain anchor below index {p} in {mp.parts}")


def separate_odd(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> MarkedPartition:
    return separate_odd_trace(mp, k, r, p, t)[0]


# -- composites ---------------------------------------------------------


def phi_pt(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> MarkedPartition:
    """Insertion composed with dilation: lt family -> eq family."""
    mu, _ = dilate(mp, k, r, p, t)
    out = insert_odd(mu, k, r, p, t)
    _ledger("phi_pt", mp, out, 2 * p + 2 * t + 1, 1)
    return out


def psi_pt(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> MarkedPartition:
    """Reduction composed with separation: eq family -> lt family."""
    mu, _, sim = _separate_odd(mp, k, r, _label(classify_eq, "eq", mp, k, r, p, t))
    out, _ = _reduce(mu, sim)
    _ledger("psi_pt", mp, out, -(2 * p + 2 * t + 1), -1)
    return out


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
