"""Starting types, cluster indexes, the three 12-way family classifications,
and the insertion/division indexes they induce.

Everything here is a pure function of a marked partition (plus the family
parameters).  Membership predicates are evaluated definitionally, clause by
clause; stronger structural facts that follow from the definitions live in
the test suite, never in the implementation, so each one stays falsifiable.
Row 2 is read as plain ints: where the paper reads r2(0) = +inf or
r2(N2 + 1) = -inf, a clause tests the index instead (`p == 0 or ...`).
Each lt or eq clause states its subset's insertion or division index where
it reads the condition, as a (j, index) hit.  Each clause pass returns
subset 1 at once where no other clause can hold (p = 0, or the part at
index p far above 2t+1), before it reads the profile or the reduction
typing; `classify_eq` tests that the largest odd part is 2t+1 before its
membership test.  The chains r2(i) = r2(q) + 4(q - i) (+ 2 for the side
chain) have one reader, `_chain`, shared by the eq membership test, the eq
clauses and the separation maps.
The only caches are per partition: the starting profile, which several
procedures share, and one label slot per family ("lt", "sim", "eq") holding
the last label derived and its (k, r, p, t), written only here.
`classify_*` test membership before the slot (most probes reject, and the
bracket costs less than a slot read).  A map's input check reads the slot
first (`maps._label`), which is safe: a slot is written only after
membership passed, on an immutable partition shared as one live object, so
along a chain each map's input check is answered by the previous output
check.  The probes and the (p, t) searches test k >= r >= 3 inline and call
`_kr_error` only to raise.  A clause pass reads its levels with
`errors.integer`; the probe path reads none, so a non-member probe at a
non-integer level answers None.  A level that breaks a comparison (a
string, or an integer-like value with `__index__` only) is read with
`errors.integer` in the probe's `except TypeError` (`_retry_levels`), so a
string raises a ValueError naming it, an integer-like level retries once as
an int, and no probe pays for the read.  The typings and `cluster_indexes`
read a level that is not an int with `errors.integer`.  A label is a
`SubsetLabel` named tuple, built by `tuple.__new__` to skip its constructor.

Starting-type conventions: types are the strings "s-1", "s0", "s1", "s2",
"s3"; each 2-marked part up to the threshold matches exactly one of the
cases s0-s3, and the parts past it are "s-1".  One walker, `_runs`, cuts
row-2 indexes into runs (lo, hi, label) of parts stepping by 4: the
reduction and insertion typings (labels "A1", "A2", "A3", "B", "C") and the
starting clusters, labelled by their one starting type.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import ClassificationError, UniquenessError, integer
from .marking import MarkedPartition
from .membership import is_in_C

S_MINUS1, S0, S1, S2, S3 = "s-1", "s0", "s1", "s2", "s3"


class StartingProfile(NamedTuple):
    """Per-2-marked-part starting data, as a named tuple.

    threshold: largest row-2 index with no odd part at or above it.
    types[i-1] / anchors[i-1] describe the i-th 2-marked part: up to the
    threshold, its one case s0-s3 and the 1-marked value that case reads;
    past it, "s-1" and None.
    """

    threshold: int
    types: tuple[str, ...]
    anchors: tuple[Optional[int], ...]

    def type_at(self, i: int) -> str:
        return self.types[i - 1]


class SubsetLabel(NamedTuple):
    """One classification of a family member at (p, t), as a named tuple.

    index: the insertion index (lt/sim) or division index (eq) of subset j;
    l: the number of row-2 parts above that index.
    """

    family: str  # "lt" | "sim" | "eq"
    j: int
    p: int
    t: int
    index: int
    l: int


def _has1(mp: MarkedPartition, value: int) -> bool:
    return mp.has(value, 1)


def starting_profile(mp: MarkedPartition) -> StartingProfile:
    """Assign starting types to the 2-marked parts, largest first.

    Indexes past the threshold get "s-1"; each remaining index must match
    exactly one of the four cases, or the pass raises.  None cannot match: a
    2-marked part v above every odd part has a 1-mark at v, v-1 or v-2, and
    where the s0/s1 low test fails, v+2 carries a 1-mark, so s2 matches.
    """
    cached = mp._memo.get("profile")
    if cached is not None:
        return cached
    row = mp.row2
    threshold = _threshold(mp, mp.largest_odd)
    types: list[str] = [S_MINUS1] * len(row)
    anchors: list[Optional[int]] = [None] * len(row)
    prev_anchor: Optional[int] = None
    for b in range(1, threshold + 1):
        v = row[b - 1]
        above = _has1(mp, v + 2)
        fresh = b == 1 or prev_anchor != v + 2  # v + 2 is not the previous index's anchor
        low_ok = not mp.has_part(v + 2) if b == 1 else not (above and fresh)
        s0 = low_ok and _has1(mp, v - 1)
        s1 = low_ok and _has1(mp, v - 2)
        s2 = above and fresh
        s3 = _has1(mp, v)
        if s0 + s1 + s2 + s3 != 1:
            hits = [ty for ty, ok in zip((S0, S1, S2, S3), (s0, s1, s2, s3)) if ok]
            raise ClassificationError(f"index {b} of {mp.parts} matched starting types {hits}")
        types[b - 1] = S0 if s0 else S1 if s1 else S2 if s2 else S3
        anchors[b - 1] = prev_anchor = v - 1 if s0 else v - 2 if s1 else v + 2 if s2 else v
    prof = StartingProfile(threshold, tuple(types), tuple(anchors))
    mp._memo["profile"] = prof
    return prof


def cluster_indexes(mp: MarkedPartition, p: int) -> tuple[int, ...]:
    """Starting cluster indexes p_1 > p_2 > ... > 1 at or below p, for
    1 <= p <= N2: the first index of each starting cluster, a maximal run of
    2-marked parts stepping by 4 with one starting type."""
    if p.__class__ is not int:
        p = integer("p", p)
    if not 1 <= p <= len(mp.row2):
        raise ValueError(f"cluster indexes need 1 <= p <= N2 = {len(mp.row2)}, got {p}")
    return tuple(lo for lo, _, _ in _runs(mp, p, _one_type, upward=False))


# -- family membership -------------------------------------------------


def _kr_error(k: int, r: int) -> ValueError:
    return ValueError(f"classification requires k >= r >= 3, got k={k} r={r}")


def _member_lt(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> bool:
    # Bracket first: max(row[p], largest_odd) < 2t+1 < row[p-1].  Row-2 index 0
    # is +inf, N2 + 1 is -inf.  A t < 0 fails the largest-odd test.
    if p < 0:
        return False
    row = mp.row2
    n2 = len(row)
    if p > n2:
        return False
    odd = 2 * t + 1
    if (p < n2 and row[p] >= odd) or (p > 0 and row[p - 1] <= odd):
        return False
    if mp.largest_odd >= odd:
        return False
    if not is_in_C(mp, k, r):
        return False
    prof = starting_profile(mp)
    if p > 0 and row[p - 1] == 2 * t + 2 and prof.type_at(p) not in (S2, S3):
        return False
    if p < n2 and row[p] == 2 * t and prof.type_at(p + 1) not in (S0, S1):
        return False
    return True


def _levels(k, r, p, t) -> tuple[int, int, int, int]:
    """(k, r, p, t) read with `integer`, each named in its error; ints pass as they are."""
    if k.__class__ is r.__class__ is p.__class__ is t.__class__ is int:
        return k, r, p, t
    return integer("k", k), integer("r", r), integer("p", p), integer("t", t)


def _retry_levels(names: str, levels: tuple) -> Optional[tuple]:
    """The levels of a probe that raised TypeError, read with `integer` (a
    level that is not an integer raises ValueError naming it), to retry the
    probe with once; None when each was an int, so the error was not theirs."""
    ints = tuple(map(integer, names, levels))
    return None if all(v.__class__ is int for v in levels) else ints


def _derived(mp: MarkedPartition, family: str, k: int, r: int, p: int, t: int):
    """The label of a member in `family` at (p, t): the family's slot on `mp`
    if it holds this (k, r, p, t), else a fresh clause pass, which replaces it."""
    key = (k, r, p, t)
    slot = mp._memo.get(family)
    if slot is not None and slot[0] == key:
        return slot[1]
    if not (k.__class__ is r.__class__ is p.__class__ is t.__class__ is int):
        key = k, r, p, t = _levels(k, r, p, t)
    label = _CLAUSES[family](mp, k, r, p, t)
    mp._memo[family] = (key, label)
    return label


def classify_lt(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> Optional[SubsetLabel]:
    """Subset number within the below-threshold family, or None if not a member."""
    try:
        if not k >= r >= 3:
            raise _kr_error(k, r)
        return _derived(mp, "lt", k, r, p, t) if _member_lt(mp, k, r, p, t) else None
    except TypeError:
        if (levels := _retry_levels("krpt", (k, r, p, t))) is None:
            raise
        return classify_lt(mp, *levels)


def _lt_clauses(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> SubsetLabel:
    row = mp.row2
    v = row[p - 1] if p else None
    at = 2 * t + 2  # the insertion index of subsets 1 to 5
    if p == 0 or v > 2 * t + 6:  # no other clause can hold: skip the profile
        return _one_label("lt", mp, p, t, [(1, at)])
    prof = starting_profile(mp)
    ty = prof.type_at(p)
    hits = []

    if v == 2 * t + 6 and ty in (S2, S3) and mp.max_mark(2 * t + 6) == 2:
        hits.append((1, at))
    if v == 2 * t + 6 and not mp.has_part(2 * t + 2) and (
        ty not in (S2, S3) or mp.max_mark(2 * t + 6) > 2
    ):
        hits.append((2, at))
    # 2t+6 is s3 here: else 2t+4 holds the 1-mark, and 2t+2's first two marks go to 2t (s3 at p + 1)
    if v == 2 * t + 6 and mp.has_part(2 * t + 2) and mp.max_mark(2 * t + 6) > 2:
        hits.append((3, at))
    if v <= 2 * t + 4:  # w: the part at the first cluster index p_1
        ps = cluster_indexes(mp, p)
        w = row[ps[0] - 1]
        if ty == S3 and mp.max_mark(2 * t + 4) == 2:  # at an s3 v = 2t+2, 2t+4 takes mark 3
            hits.append((4, at))
        if v == 2 * t + 4 and ty == S3 and mp.max_mark(2 * t + 4) > 2:
            hits.append((5, at))
        if ty == S1:  # membership types v = 2t+2 s2 or s3
            hits.append((6, w))
        if v == 2 * t + 4 and ty == S2:
            hits.append((7, w + 2))
        if v == 2 * t + 2 and ty == S2:
            hits.append((8, w + 2))
        if v == 2 * t + 2 and ty == S3:
            if not mp.has_part(w + 4):
                hits.append((9, w + 2))
            if mp.has_part(w + 4) and not mp.has_part(w + 6):
                hits.append((10, w + 4))
            if ps[0] > 1 and row[ps[0] - 2] == w + 6:
                ty1, w2 = prof.type_at(ps[0] - 1), row[ps[1] - 1]  # w2: the part at p_2
                if ty1 == S1:
                    hits.append((11, w2))
                if ty1 == S2:
                    hits.append((12, w2 + 2))
    return _one_label("lt", mp, p, t, hits)


def _one_label(family: str, mp: MarkedPartition, p: int, t: int, hits) -> SubsetLabel:
    """The label of the one (j, index) clause hit; no hit or two raise."""
    if len(hits) != 1:
        raise ClassificationError(
            f"{family} member {mp.parts} at (p,t)=({p},{t}) matched subsets {[j for j, _ in hits]}"
        )
    j, index = hits[0]
    return tuple.__new__(SubsetLabel, (family, j, p, t, index, _threshold(mp, index)))


def _threshold(mp: MarkedPartition, bound: int) -> int:
    """Largest row-2 index whose part exceeds `bound`."""
    row = mp.row2
    l = 0
    while l < len(row) and row[l] > bound:
        l += 1
    return l


def _chain(row: tuple[int, ...], q: int, lift: int = 0) -> list[int]:
    """The ascending row-2 indexes i <= q with r2(i) = r2(q) + 4(q - i) + lift."""
    return [i for i in range(1, q + 1) if row[i - 1] == row[q - 1] + 4 * (q - i) + lift]


def _first_gap(mp: MarkedPartition, row: tuple[int, ...], idxs) -> Optional[int]:
    """The first of the row-2 indexes `idxs` with no part two above it, or None."""
    return next((i for i in idxs if not mp.has_part(row[i - 1] + 2)), None)


def _member_eq(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> bool:
    # 2t+1 is the largest odd part: classify_eq tests it, the searches read t
    # off it (a t < 0 fails the mark test of 2t+1).  The bracket first.
    if p < 0:
        return False
    row = mp.row2
    n2 = len(row)
    if p > n2:
        return False
    if (p < n2 and row[p] > 2 * t + 2) or (p > 0 and row[p - 1] < 2 * t + 2):
        return False
    if not is_in_C(mp, k, r):
        return False
    if not (mp.has(2 * t + 1, 1) or mp.has(2 * t + 1, 2)):
        return False
    prof = starting_profile(mp)
    v = row[p - 1] if p else None
    vp1 = row[p] if p < n2 else None
    two_marked = mp.has(2 * t + 2, 2)
    if two_marked:
        ty = prof.type_at(row.index(2 * t + 2) + 1)
        if ty == S0:
            if vp1 != 2 * t + 2:
                return False
            if not any(mp.count(row[i - 1]) == 1 for i in _chain(row, p + 1)):
                return False
        elif ty == S2:
            if v != 2 * t + 2:
                return False
    if mp.has_part(2 * t + 2) and not two_marked:
        if v != 2 * t + 4:  # its type is s3: see _eq_clauses
            return False
        if _first_gap(mp, row, _chain(row, p)) is None:
            return False
    return True


def classify_eq(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> Optional[SubsetLabel]:
    """Subset number within the equality family, or None if not a member."""
    try:
        if not k >= r >= 3:
            raise _kr_error(k, r)
        if mp.largest_odd != 2 * t + 1:  # the largest odd part fixes t: most probes stop here
            return None
        return _derived(mp, "eq", k, r, p, t) if _member_eq(mp, k, r, p, t) else None
    except TypeError:
        if (levels := _retry_levels("krpt", (k, r, p, t))) is None:
            raise
        return classify_eq(mp, *levels)


def _eq_clauses(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> SubsetLabel:
    row = mp.row2
    n2 = len(row)
    v = row[p - 1] if p else None
    at = 2 * t + 2  # the division index of subsets 1 to 5
    if p == 0 or v >= 2 * t + 8:  # no other clause can hold: skip the chain
        return _one_label("eq", mp, p, t, [(1, at)])
    prof = starting_profile(mp)
    vp1 = row[p] if p < n2 else None
    ty = prof.type_at(p)
    odd_marks = mp.marks_of(2 * t + 1)
    chain = _chain(row, p)
    gap = _first_gap(mp, row, chain)
    hits = []

    if (
        v == 2 * t + 6
        and ty in (S2, S3)
        and (p == n2 or vp1 < 2 * t + 2)
        and (ty != S2 or all(mp.count(row[i - 1] + 2) >= 2 for i in chain))
    ):
        hits.append((2, at))
    if vp1 == 2 * t + 2 and gap is None:  # then v = 2t+6, of type s3 (below)
        hits.append((3, at))
    if (
        v == 2 * t + 6
        and ty in (S1, S2)
        and (p == n2 or vp1 < 2 * t + 2)
        and (ty != S2 or any(mp.count(row[i - 1] + 2) == 1 for i in chain))
    ):
        hits.append((4, at))
    if v == 2 * t + 4:  # s3: 2t+2 has no 1-mark (2t+1 or 2t holds it), so 2t+4 has one
        if gap is None:
            hits.append((5, at))
        elif odd_marks == frozenset({1}):
            hits.append((6, row[gap - 1]))
        elif odd_marks == frozenset({2}):
            hits.append((8, row[gap - 1]))
    if vp1 == 2 * t + 2:  # v = 2t+6: 2t+4 and 2t+2 cannot both be 2-marked
        # Membership types p s1 or s3 (s2 makes p + 1 s2).  A chain part with a part two above
        # but no 1-mark is s2, as is each one below it, p too: so they are s3 (no gap, no s10).
        s10 = next((i for i in chain if mp.count(row[i - 1]) == 1), None)
        if s10 is None and gap is not None:  # membership's count-1 chain part is 2t+2
            hits.append((7, row[gap - 1]))
        if s10 is not None and all(mp.has_part(row[i - 1] + 2) for i in chain if i < s10):
            hits.append((10, row[s10 - 1]))
        if s10 is not None and gap < s10:
            hits.append((12, row[gap - 1]))
    if v == 2 * t + 2:
        # p is s2, so 2t+4 is 1-marked and 2t+6 absent: the side parts are s3
        side = _chain(row, p, 2)  # two above the chain through p
        gap2 = _first_gap(mp, row, side)
        hits.append((9, row[chain[0] - 1] + 2) if gap2 is None else (11, row[gap2 - 1]))
    return _one_label("eq", mp, p, t, hits)


# -- typed runs --------------------------------------------------------


def _runs(mp: MarkedPartition, l: int, label, upward: bool) -> tuple[tuple[int, int, str], ...]:
    """Cut the row-2 indexes 1..l, from index 1 (upward) or from l, into runs
    (lo, hi, label) of parts stepping by 4: each the longest from the near end
    that `label(mp, prof, row, lo, hi)` types; a near end with none raises."""
    prof = starting_profile(mp)
    row = mp.row2
    step = 1 if upward else -1
    runs: list[tuple[int, int, str]] = []
    near = 1 if upward else l
    while 1 <= near <= l:
        far = near
        while 1 <= far + step <= l and row[far + step - 1] == row[far - 1] - 4 * step:
            far += step
        for end in range(far, near - step, -step):
            lo, hi = min(near, end), max(near, end)
            if (lab := label(mp, prof, row, lo, hi)) is not None:
                runs.append((lo, hi, lab))
                near = end + step
                break
        else:  # one index has one starting type, so only the typings get here
            kind = "reduction run starts" if upward else "insertion run ends"
            raise ClassificationError(f"no {kind} at index {near} of {mp.parts}")
    return tuple(runs)


def _one_type(mp, prof, row, s, e) -> Optional[str]:
    return prof.types[s - 1] if len(set(prof.types[s - 1 : e])) == 1 else None


def _reduction_label(mp, prof, row, s, e) -> Optional[str]:
    span = range(s, e + 1)
    tys = [prof.type_at(i) for i in span]
    if all(ty == S3 for ty in tys):
        if all(mp.has_part(row[i - 1] + 2) for i in span):
            return "A1"
        if not mp.has_part(row[s - 1] + 2):
            return "A3" if _has1(mp, row[e - 1] - 4) else "A2"
        return None
    if all(ty == S2 for ty in tys) and all(mp.count(row[i - 1] + 2) >= 2 for i in span):
        return "B"
    if all(ty in (S1, S2) for ty in tys) and mp.count(row[s - 1] + 2) <= 1:
        return "C"
    return None


def reduction_types(mp: MarkedPartition, l: int) -> tuple[tuple[int, int, str], ...]:
    """Typed runs (lo, hi, label) of the indexes 1..l above the insertion
    threshold, smallest index first."""
    return _runs(mp, l if l.__class__ is int else integer("l", l), _reduction_label, upward=True)


def _insertion_label(mp, prof, row, s, e) -> Optional[str]:
    span = range(s, e + 1)
    tys = [prof.type_at(i) for i in span]
    bottom = row[e - 1]
    if all(ty == S3 for ty in tys):
        if all(mp.max_mark(row[i - 1]) > 2 for i in span):
            return "A1"
        if mp.count(bottom) == 2:
            return "C"
        return None
    if all(ty == S1 for ty in tys):
        return "A2"
    if all(ty == S2 for ty in tys):
        if mp.count(bottom) == 1:
            return "A3"
        if all(mp.count(row[i - 1]) >= 2 for i in span):
            return "B"
    return None


def insertion_types(mp: MarkedPartition, l: int) -> tuple[tuple[int, int, str], ...]:
    """Typed runs (lo, hi, label) of the indexes 1..l above the insertion
    threshold, largest index first."""
    return _runs(mp, l if l.__class__ is int else integer("l", l), _insertion_label, upward=False)


def classify_sim(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> Optional[SubsetLabel]:
    """Subset number within the tilde family, or None if not a member."""
    try:
        if not k >= r >= 3:
            raise _kr_error(k, r)
        return _derived(mp, "sim", k, r, p, t) if _member_lt(mp, k, r, p, t) else None
    except TypeError:
        if (levels := _retry_levels("krpt", (k, r, p, t))) is None:
            raise
        return classify_sim(mp, *levels)


def _sim_clauses(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> Optional[SubsetLabel]:
    """The tilde subset of an lt member at (p, t): the first five subsets key on
    the reduction type of the part at index p, the rest refine the lt label by
    the reduction type at the threshold."""
    base = _derived(mp, "lt", k, r, p, t)
    row = mp.row2
    v = row[p - 1] if p else None
    l = base.l
    if p == 0 or v >= 2 * t + 8:  # no other clause can hold: skip the typing
        return tuple.__new__(SubsetLabel, ("sim", 1, p, t, base.index, l))
    red = {i: lab for lo, hi, lab in reduction_types(mp, l) for i in range(lo, hi + 1)}
    hits = []
    if v == 2 * t + 6 and red.get(p) in ("A1", "A2", "B") and not mp.has_part(2 * t + 2):
        hits.append(2)
    # Clauses 3 and 4 hold only at v = 2t+6 (p > l at 2t+2; p is s3 at 2t+4 and leaves no room
    # for 2t+2, as lt clause 3 says of 2t+6), where a C run (s1, s2) leaves none either.
    if red.get(p) == "A1" and mp.has_part(2 * t + 2):
        hits.append(3)
    if red.get(p) == "C":
        hits.append(4)
    if v == 2 * t + 4 and red.get(p) == "A1":
        hits.append(5)
    if base.j >= 6:
        if l == 0 or row[l - 1] != base.index + 4 or red.get(l) == "A1":
            hits.append(base.j)
    if len(hits) > 1:
        raise ClassificationError(
            f"sim candidate {mp.parts} at (p,t)=({p},{t}) matched subsets {hits}"
        )
    if not hits:
        return None
    return tuple.__new__(SubsetLabel, ("sim", hits[0], p, t, base.index, l))


_CLAUSES = {"lt": _lt_clauses, "sim": _sim_clauses, "eq": _eq_clauses}


# -- decompositions ----------------------------------------------------


def _bracket(row: tuple[int, ...], target: int, slope: int) -> range:
    """The indexes p with r2(p) + slope*p >= target >= r2(p+1) + slope*(p+1),
    where r2(0) = +inf and r2(N2 + 1) = -inf.  Row-2 parts fall by 2 or more,
    so for slope 0 or 2 the sum does not rise with p and these p are one run.
    A fall of 2 needs two 2-marked odd parts, so a repeated odd part: in a
    member of C(k, r) the sum falls at every step and the run holds at most
    two p."""
    lo = 0
    while lo < len(row) and row[lo] + slope * (lo + 1) > target:
        lo += 1
    hi = lo
    while hi < len(row) and row[hi] + slope * (hi + 1) == target:
        hi += 1
    return range(lo, hi + 1)


def find_pt_lt(mp: MarkedPartition, k: int, r: int, m: int) -> Optional[tuple[int, int]]:
    """Unique (p, t) with p + t = m placing mp in the lt family, if any.  Only
    the p with max(r2(p+1), largest odd) < 2(m-p)+1 < r2(p) can hold, that is
    r2(p) + 2p >= 2m + 2 >= r2(p+1) + 2(p+1)."""
    try:
        if not k >= r >= 3:
            raise _kr_error(k, r)
        if m.__class__ is not int:
            m = integer("m", m)
        hits = [(p, m - p) for p in _bracket(mp.row2, 2 * m + 2, 2) if p <= m and _member_lt(mp, k, r, p, m - p)]
    except TypeError:
        if (levels := _retry_levels("krm", (k, r, m))) is None:
            raise
        return find_pt_lt(mp, *levels)
    if len(hits) > 1:
        raise UniquenessError(f"{mp.parts} sits in the lt family at {hits} for m={m}")
    return hits[0] if hits else None


def find_pt_eq(mp: MarkedPartition, k: int, r: int, m: int) -> Optional[tuple[int, int]]:
    """The (p, t) with p + t = m placing mp in the eq family, if any.  The
    largest odd part is 2t+1, so p = m - t is the one candidate."""
    try:
        if not k >= r >= 3:
            raise _kr_error(k, r)
        if m.__class__ is not int:
            m = integer("m", m)
        t = (mp.largest_odd - 1) // 2
        return (m - t, t) if _member_eq(mp, k, r, m - t, t) else None
    except TypeError:
        if (levels := _retry_levels("krm", (k, r, m))) is None:
            raise
        return find_pt_eq(mp, *levels)


def find_m_eq33(mp: MarkedPartition) -> Optional[int]:
    """The unique m placing a k=r=3 member with odd parts in the eq family.

    The largest odd part fixes t, and m = p + t for the one p at which mp is
    an eq-family member; no such p, or two, raises.  Returns None when no
    odd part exists.
    """
    if not mp.largest_odd:
        return None
    t = (mp.largest_odd - 1) // 2  # only the p with r2(p) >= 2t+2 >= r2(p+1) can hold
    hits = [p for p in _bracket(mp.row2, 2 * t + 2, 0) if _member_eq(mp, 3, 3, p, t)]
    if len(hits) != 1:
        raise ClassificationError(f"{mp.parts} is an eq member at t={t} for p in {hits}")
    return hits[0] + t
