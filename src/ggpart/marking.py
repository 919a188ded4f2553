"""Marked partitions: greedy mark assignment, row views, and part surgery.

A partition is kept as a non-increasing tuple of positive integers.  Its
marking assigns every part the smallest positive mark not already carried by
a previously marked part at distance at most 2 (at most 1 when the part being
marked is odd); parts are marked from smallest to largest.  Row ``i`` of the
marking is the decreasing list of ``i``-marked parts.

A *special* partition may additionally overline one copy of its largest odd
value; the overlined copy is forbidden mark 1 and otherwise marked by the
same greedy rule.  Special partitions only arise as intermediates of the
weight-shifting maps, but they are first-class values here.  The
constructor rejects an overline on an even part, on an odd part that is
not the largest, or on two copies, with `InvalidSpecialPartition`.

A `MarkedPartition` is built from (value, overlined) pairs and always runs
the greedy assignment itself, so a non-canonical marking cannot be built.
It makes one ascending pass: a value's marks are final once its copies are
marked, so each part joins `parts` and its row as its mark is given, and
the lists are reversed at the end.  The marks of each value are kept as
one int, bit m set for mark m; a live partition stores that map, its parts
and rows, and no (value, mark, overlined) triples: `entries` derives them,
and `replace` edits a copy.  All values are immutable.  `gg_mark`,
`gg_mark_special` and `replace` hand out one live object per (parts,
overlined value): `_marked` returns the partition already alive for that
key, and runs the greedy marking only on a miss.  The live table is a
plain dict of weak references, each a `_Ref` carrying its key, the
partition's own parts tuple and overlined value; one shared callback drops
a dead partition's entry unless its key was registered again.  So a map's
inverse lands on the very partition its forward half started from,
memoised facts included; every memo entry is a pure function of the
partition.  `MarkedPartition(pairs)` called directly always makes a new
object.  Marks asserted by the surgery callers are looked up in the
canonically marked result, never patched in place, so a wrong assertion
surfaces as a :class:`~ggpart.errors.MissingEntryError`, not as silent
corruption.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import InvalidSpecialPartition, MissingEntryError, integer, integers


class _Ref(weakref.ref):
    __slots__ = ("key",)  # the partition's key in _LIVE


_LIVE: "dict[tuple, _Ref]" = {}


def _evict(ref: _Ref, _live: dict = _LIVE) -> None:
    """Drop the entry of a dead partition unless its key was registered again;
    the bound table outlives the module globals at interpreter exit."""
    if _live.get(ref.key) is ref:
        del _live[ref.key]


@lru_cache(maxsize=256)
def _marks(bits: int) -> tuple[int, ...]:
    """The marks of a bit set, ascending."""
    return tuple(m for m in range(1, bits.bit_length()) if bits >> m & 1)


class MarkedPartition:
    """A partition together with its canonical marking, built from
    (value, overlined) pairs by the greedy assignment.

    It stores `parts`, `rows[i-1]` (the decreasing tuple of i-marked values),
    `row2` (`rows[1]`, or ()), `overline` (the (value, mark) of the overlined
    copy, or None), `largest_odd` (0 when there is none) and the value-to-marks
    bits; `entries`, the (value, mark, overlined) triples by decreasing value,
    then mark, is derived from the bits on each read.  An overline on any
    other value than `largest_odd`, or on two copies, raises.
    """

    __slots__ = (
        "parts", "rows", "row2", "overline", "largest_odd", "weight", "length",
        "_bits", "_memo", "__weakref__",
    )

    def __init__(self, pairs: Sequence[tuple[int, bool]]):
        # ascending, plain copies before the overlined one (its search starts at mark 2)
        bits_at: dict[int, int] = {}
        get = bits_at.get
        parts: list[int] = []
        rows: list[list[int]] = []
        overline = None
        largest_odd = 0
        for value, over in sorted(pairs):
            taken = get(value, 0)
            used = taken | get(value - 1, 0) | (3 if over else 1)  # bit 0 is no mark
            if value % 2:
                largest_odd = value
            else:
                used |= get(value - 2, 0)
            free = (used + 1) & ~used  # the lowest clear bit: the smallest free mark
            bits_at[value] = taken | free
            mark = free.bit_length() - 1
            while len(rows) < mark:  # an overlined copy may open row 2 before row 1
                rows.append([])
            rows[mark - 1].append(value)
            parts.append(value)
            if over:
                if overline is not None:
                    raise InvalidSpecialPartition(f"more than one overlined part: {overline[0]}, {value}")
                overline = (value, mark)
        self.parts = tuple(parts[::-1])
        self.rows = tuple(tuple(row[::-1]) for row in rows)
        self.row2 = self.rows[1] if len(rows) > 1 else ()
        self.overline = overline
        self.largest_odd = largest_odd
        if overline is not None and overline[0] != largest_odd:
            raise InvalidSpecialPartition(
                f"overlined part {overline[0]} is not the largest odd part of {self.parts}"
            )
        self.weight = sum(parts)
        self.length = len(parts)
        self._bits = bits_at
        self._memo: dict = {}

    @property
    def entries(self) -> tuple[tuple[int, int, bool], ...]:
        bits, over = self._bits, self.overline or (None, 0)
        return tuple((v, m, (v, m) == over) for v in sorted(bits, reverse=True) for m in _marks(bits[v]))

    # -- basic views ---------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def N(self, i: int) -> int:
        """Size of row i (zero for rows beyond the marking)."""
        if i < 1:
            raise ValueError(f"row index must be >= 1, got {i}")
        return len(self.rows[i - 1]) if i <= len(self.rows) else 0

    def row_values(self, i: int) -> tuple[int, ...]:
        if i < 1:
            raise ValueError(f"row index must be >= 1, got {i}")
        return self.rows[i - 1] if i <= len(self.rows) else ()

    def marks_of(self, value) -> frozenset:
        return frozenset(_marks(self._bits.get(value, 0)))

    def max_mark(self, value) -> int:
        """Largest mark carried by `value`, or 0 when absent."""
        return (self._bits.get(value, 0) >> 1).bit_length()

    def count(self, value) -> int:
        return self._bits.get(value, 0).bit_count()

    def has_part(self, value) -> bool:
        return value in self._bits

    def has(self, value, mark) -> bool:
        return self._bits.get(value, 0) >> mark & 1 == 1

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkedPartition):
            return NotImplemented
        ov_s = self.overline[0] if self.overline else None
        ov_o = other.overline[0] if other.overline else None
        return self.parts == other.parts and ov_s == ov_o

    def __hash__(self) -> int:
        return hash((self.parts, self.overline[0] if self.overline else None))

    def __repr__(self) -> str:
        body = ",".join(f"~{v}" if over else str(v) for v, _, over in self.entries)
        return f"MarkedPartition({body})"

    # -- surgery -------------------------------------------------------

    def replace(self, removals, additions) -> "MarkedPartition":
        """Remove and insert parts in one batch; the result is canonically marked.

        removals: iterable of (value, mark_or_None, overlined); a None mark
        takes the smallest mark among the copies of the value with the given
        overline state.
        additions: iterable of (value, overlined).
        """
        bits, over, parts = dict(self._bits), self.overline, list(self.parts)
        for value, mark, overlined in removals:
            over_bit = 1 << over[1] if over and over[0] == value else 0
            free = over_bit if overlined else bits.get(value, 0) & ~over_bit
            if mark is not None:
                free &= 1 << mark if mark > 0 else 0
            if not free:
                who = f"{'overlined ' if overlined else ''}{mark if mark is not None else 'any'}-marked {value}"
                raise MissingEntryError(f"no {who} in {self!r}", partition=self)
            bits[value] ^= free & -free  # the smallest matching mark
            over = None if overlined else over
            parts.remove(value)
        overs = [over[0]] if over else []
        for value, overlined in additions:
            value = integer("part", value)
            parts.append(value)
            if overlined:
                overs.append(value)
        if len(overs) > 1:
            raise InvalidSpecialPartition("more than one overlined part: {}, {}".format(*sorted(overs)))
        parts.sort(reverse=True)
        return _marked(tuple(parts), overs[0] if overs else None)


def _marked(parts: tuple[int, ...], overline: Optional[int]) -> MarkedPartition:
    """The live marked partition of the non-increasing `parts` with one copy
    of `overline` overlined (None: no overline).  Only a key with no live
    partition runs the greedy marking, which raises on a misplaced overline."""
    ref = _LIVE.get((parts, overline))
    mp = ref() if ref is not None else None
    if mp is None:
        pairs = [(v, False) for v in parts]
        if overline is not None:
            pairs.remove((overline, False))
            pairs.append((overline, True))
        mp = MarkedPartition(pairs)
        ref = _Ref(mp, _evict)
        ref.key = (mp.parts, overline)  # keyed by its own parts: no second tuple
        _LIVE[ref.key] = ref
    return mp


def _normalize(parts: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(integers("part", parts), reverse=True))
    if any(v < 1 for v in out):
        raise ValueError(f"parts must be positive integers, got {out}")
    return out


@lru_cache(maxsize=1 << 14)
def _gg_mark_cached(parts: tuple[int, ...]) -> MarkedPartition:
    return _marked(parts, None)


def gg_mark(parts: Iterable[int]) -> MarkedPartition:
    """Canonical marking of an ordinary partition."""
    return _gg_mark_cached(_normalize(parts))


def gg_mark_special(parts: Iterable[int], overline: Optional[int] = None) -> MarkedPartition:
    """Canonical marking of a special partition: `overline`, when given, is
    the largest odd value present, and exactly one copy of it is overlined."""
    norm = _normalize(parts)
    if overline is None:
        return _gg_mark_cached(norm)
    overline = integer("overline", overline)
    if overline not in norm:
        raise InvalidSpecialPartition(f"overlined value {overline} is not a part of {norm}")
    return _marked(norm, overline)


# -- presentation ------------------------------------------------------


def render_grid(mp: MarkedPartition) -> str:
    """Text array of the marking: one column per distinct value (ascending),
    one line per mark with the highest mark on top.  Overlined copies are
    prefixed with '~'."""
    if not mp.parts:
        return ""
    values = sorted(set(mp.parts))
    col = {v: i for i, v in enumerate(values)}
    grid = [["" for _ in values] for _ in range(mp.n_rows)]
    for v, m, over in mp.entries:
        grid[m - 1][col[v]] = f"~{v}" if over else str(v)
    widths = [max(len(grid[r][c]) for r in range(mp.n_rows)) for c in range(len(values))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() for row in reversed(grid)
    )


def marked_to_dict(mp: MarkedPartition) -> dict:
    """JSON-ready form: {"rows": {"1": [...], ...}, "overline": {...} | null}."""
    rows = {str(i): list(mp.row_values(i)) for i in range(1, mp.n_rows + 1)}
    over = mp.overline and {"value": mp.overline[0], "mark": mp.overline[1]}
    return {"rows": rows, "overline": over}
