"""Definitional predicates and exhaustive enumerators for the partition families.

`is_bressoud_B` evaluates the four difference/congruence conditions directly
on a partition; `is_in_C` is the marking-based characterization of the eta=2,
alpha=(1) family.  `enumerate_B` builds members part by part in decreasing
order and turns each condition into a bound on the next part, so its loop
runs only over values that keep all four conditions and can still finish
the weight:

- capacity: a member has parts[i] >= parts[i+k-1] + eta, so with largest
  part <= v its j-th part is at most v - eta*(j // (k-1)) and its weight at
  most cap[v] = (k-1)*v + cap[v-eta], where cap[v] = (k-1)*v for v <= eta.
  cap increases, so the next part is at least low[w], the smallest v with
  cap[v] >= w, when the weight left is w;
- residue: only values v with v % eta in {0} | {alpha_i % eta} are tried;
- repeat: after a part v the next part is at most v if eta divides v, and
  at most v - 1 otherwise;
- window: the part k-1 places after a part w is at most w - eta, and at
  most w - eta - 1 if eta divides w;
- small parts: once r-1 parts are <= eta, the next part is at least eta + 1.

A part equal to the weight left finishes a member without a further call,
and any other part is followed by a call only when the next level's largest
candidate, the smaller of its ceiling and the weight left, has capacity.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import groupby
from typing import Iterator, Optional, Sequence

from .errors import integer, integers, require_nonnegative
from .marking import MarkedPartition, gg_mark


class BressoudParams(namedtuple("BressoudParams", "alphas eta k r")):
    """Parameters (alpha_1..alpha_lambda; eta, k, r) of the partition family.

    Alphas must increase strictly inside (0, eta) and pair up as
    alpha_i = eta - alpha_{lambda+1-i}; lambda = len(alphas) may be zero.
    A named tuple whose every construction, `_make`, `_replace`, copies and
    unpickling included, reads each field with `operator.index` and checks
    it.
    """

    __slots__ = ()

    def __new__(cls, alphas: Sequence[int], eta: int, k: int, r: int):
        alphas = integers("alpha", alphas)
        eta, k, r = integer("eta", eta), integer("k", k), integer("r", r)
        lam = len(alphas)
        if eta < 1:
            raise ValueError(f"eta must be positive, got {eta}")
        if not all(0 < a < eta for a in alphas):
            raise ValueError(f"alphas must lie strictly between 0 and eta: {alphas}")
        if list(alphas) != sorted(set(alphas)):
            raise ValueError(f"alphas must be strictly increasing: {alphas}")
        for i, a in enumerate(alphas):
            if a != eta - alphas[lam - 1 - i]:
                raise ValueError(f"alphas must satisfy a_i = eta - a_(lambda+1-i): {alphas} with eta={eta}")
        if not (k >= r >= max(lam, 1)):
            raise ValueError(f"need k >= r >= max(lambda, 1), got k={k} r={r} lambda={lam}")
        return super().__new__(cls, alphas, eta, k, r)

    @classmethod
    def _make(cls, fields) -> BressoudParams:
        return cls(*fields)  # so `_replace`, which builds through `_make`, checks too

    @property
    def lam(self) -> int:
        return len(self.alphas)


def is_bressoud_B(parts: Sequence[int], params: BressoudParams) -> bool:
    """All four defining conditions, evaluated literally."""
    eta, k, r = params.eta, params.k, params.r
    parts = tuple(parts)
    residues = {0} | {a % eta for a in params.alphas}
    if any(v % eta not in residues for v in parts):
        return False
    for i in range(1, len(parts)):
        if parts[i] == parts[i - 1] and parts[i] % eta != 0:
            return False
    if k == 1:
        if parts:
            return False
    else:
        for i in range(len(parts) - (k - 1)):
            lo = parts[i + k - 1] + eta
            if parts[i] < lo or (parts[i] == lo and parts[i] % eta == 0):
                return False
    if sum(1 for v in parts if v <= eta) > r - 1:
        return False
    return True


def is_in_C(p, k: int, r: int) -> bool:
    """Marking characterization of the eta=2 family with one residue class.

    Accepts a part sequence or an already marked partition.  The tests
    check it against `is_bressoud_B`, the family's four defining conditions.
    """
    mp = p if isinstance(p, MarkedPartition) else gg_mark(p)
    key = ("inC", k, r)
    hit = mp._memo.get(key)
    if hit is None:
        hit = mp._memo[key] = _is_in_C(mp, k, r)
    return hit


def _is_in_C(mp: MarkedPartition, k: int, r: int) -> bool:
    if mp.n_rows > k - 1:
        return False
    if any(v % 2 and bits & (bits - 1) for v, bits in mp._bits.items()):  # a repeated odd part
        return False
    for small in (1, 2):
        if mp.max_mark(small) > r - 1:
            return False
    return True


def row_counts(mp: MarkedPartition, upto: int) -> tuple[int, ...]:
    """(N_1, ..., N_upto), zero-padded past the last row."""
    return tuple(mp.N(i) for i in range(1, upto + 1))


# -- enumeration -------------------------------------------------------


def all_partitions(n: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Every partition of n, parts non-increasing, in descending-lex order."""
    n = require_nonnegative("n", n)
    if n == 0:
        yield ()
        return
    hi = n if max_part is None else min(max_part, n)
    if hi < 1:
        return
    parts: list[int] = []
    freed, v = n, hi
    while True:
        q, rest = divmod(freed, v)  # refill greedily with parts <= v
        parts += [v] * q + ([rest] if rest else [])
        yield tuple(parts)
        freed = 0
        while parts and parts[-1] == 1:
            freed += parts.pop()
        if not parts:
            return
        v = parts.pop() - 1  # lower the last part above 1
        freed += v + 1


def enumerate_B(params: BressoudParams, n: int) -> list[tuple[int, ...]]:
    """Complete duplicate-free list of family members of weight n, in
    descending-lex order."""
    n = require_nonnegative("n", n)
    eta, k, r = params.eta, params.k, params.r
    if n == 0:
        return [()]
    if k == 1:
        return []
    residues = {0} | {a % eta for a in params.alphas}
    # cap[v]: the largest weight of a member with every part <= v
    cap = [0] * (n + 1)
    for v in range(1, n + 1):
        cap[v] = (k - 1) * v + (cap[v - eta] if v > eta else 0)
    low = [bisect_left(cap, w) for w in range(n + 1)]
    allowed = [v for v in range(n, 0, -1) if v % eta in residues]
    # allowed[at[v]:at[u]] holds the allowed values in (u, v]; at[eta] is the
    # end of the values above the small-part floor, which may exceed n
    at = [len(allowed)]
    for v in range(1, max(n, eta) + 1):
        at.append(at[-1] - (v <= n and v % eta in residues))
    # nxt[v]: the repeat bound on the part after v; for k == 2 the window
    # rule applies to the same pair, and it is the tighter of the two
    if k == 2:
        nxt = [v - eta - (v % eta == 0) for v in range(n + 1)]
    else:
        nxt = [v if v % eta == 0 else v - 1 for v in range(n + 1)]
    out: list[tuple[int, ...]] = []
    stack: list[int] = []

    def rec(remaining: int, hi: int, small: int) -> None:
        floor = low[remaining]
        if small == r - 1 and floor <= eta:
            floor = eta + 1
        # wb: the window ceiling of the next level, set by the stacked part
        # k-1 places above it
        depth = len(stack)
        wb = n
        if 2 < k <= depth + 2:
            w = stack[depth - k + 2]
            wb = w - eta - (w % eta == 0)
        # a conditional, not min(): the builtin call cost a fifth of the run time
        for v in allowed[at[hi if hi < remaining else remaining] : at[floor - 1]]:
            if v == remaining:
                out.append((*stack, v))
                continue
            rest = remaining - v
            nh = nxt[v]
            if nh > wb:
                nh = wb
            if low[rest] <= nh:  # the next level's largest candidate has capacity
                stack.append(v)
                rec(rest, nh, small + 1 if v <= eta else small)
                stack.pop()

    rec(n, n, 0)
    return out


def enumerate_C(k: int, r: int, n: int) -> list[tuple[int, ...]]:
    return enumerate_B(BressoudParams((1,), 2, k, r), n)


def enumerate_E(k: int, r: int, n: int) -> list[tuple[int, ...]]:
    """Members without odd parts; the lambda=0 instance of the same family."""
    return enumerate_B(BressoudParams((), 2, k, r), n)


def enumerate_I(floor: int, max_weight: int) -> list[tuple[int, ...]]:
    """Partitions into distinct odd parts >= 2*floor+1, of weight <= max_weight,
    ordered by (weight, parts)."""
    floor = require_nonnegative("floor", floor)
    max_weight = require_nonnegative("max_weight", max_weight)
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], next_min: int, budget: int) -> None:
        out.append(tuple(sorted(prefix, reverse=True)))
        v = next_min
        while v <= budget:
            prefix.append(v)
            rec(prefix, v + 2, budget - v)
            prefix.pop()
            v += 2

    rec([], 2 * floor + 1, max_weight)
    out.sort(key=lambda z: (sum(z), z))
    return out


def enumerate_F33(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs (even-family member, distinct-odd partition) of total weight n,
    with the odd floor given by the member's second row count.  Each floor's
    distinct-odd partitions to weight n are built once and grouped by weight."""
    n = require_nonnegative("n", n)
    by_floor: dict[int, dict[int, list[tuple[int, ...]]]] = {}
    pairs = []
    for w in range(0, n + 1):
        for p in enumerate_E(3, 3, w):
            n2 = gg_mark(p).N(2)
            if n2 not in by_floor:
                by_floor[n2] = {v: list(zs) for v, zs in groupby(enumerate_I(n2, n), key=sum)}
            pairs += [(p, z) for z in by_floor[n2].get(n - w, ())]
    return pairs
