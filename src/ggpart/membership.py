"""Definitional predicates and exhaustive enumerators for the partition families.

`is_bressoud_B` evaluates the four difference/congruence conditions directly
on a partition; `is_in_C` is the marking-based characterization of the eta=2,
alpha=(1) family.  The enumerators backtrack over parts in decreasing order,
checking the window condition with a (k-1)-lookback.  `enumerate_B` also
stops at the first part v too small to finish the weight: a member has
parts[i] >= parts[i+k-1] + eta, so with largest part <= v its j-th part is
at most v - eta*(j // (k-1)) and its weight at most
cap[v] = (k-1)*v + cap[v-eta], where cap[v] = (k-1)*v for v <= eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import debug
from .errors import GGError
from .marking import MarkedPartition, gg_mark


@dataclass(frozen=True)
class BressoudParams:
    """Parameters (alpha_1..alpha_lambda; eta, k, r) of the partition family.

    Alphas must increase strictly inside (0, eta) and pair up as
    alpha_i = eta - alpha_{lambda+1-i}; lambda = len(alphas) may be zero.
    """

    alphas: tuple[int, ...]
    eta: int
    k: int
    r: int

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(int(a) for a in self.alphas))
        lam = len(self.alphas)
        if self.eta < 1:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not all(0 < a < self.eta for a in self.alphas):
            raise ValueError(f"alphas must lie strictly between 0 and eta: {self.alphas}")
        if list(self.alphas) != sorted(set(self.alphas)):
            raise ValueError(f"alphas must be strictly increasing: {self.alphas}")
        for i, a in enumerate(self.alphas):
            if a != self.eta - self.alphas[lam - 1 - i]:
                raise ValueError(
                    f"alphas must satisfy a_i = eta - a_(lambda+1-i): {self.alphas} with eta={self.eta}"
                )
        if not (self.k >= self.r >= max(lam, 1)):
            raise ValueError(f"need k >= r >= max(lambda, 1), got k={self.k} r={self.r} lambda={lam}")

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

    Accepts a part sequence or an already marked partition.  With debug
    checks on, the answer is cross-validated against `is_bressoud_B`.
    """
    mp = p if isinstance(p, MarkedPartition) else gg_mark(p)
    key = ("inC", k, r)
    hit = mp._memo.get(key)
    if hit is None:
        hit = _is_in_C(mp, k, r)
        if debug.enabled():
            if hit != is_bressoud_B(mp.parts, BressoudParams((1,), 2, k, r)):
                raise GGError(f"membership characterizations disagree on {mp.parts}")
        mp._memo[key] = hit
    return hit


def _is_in_C(mp: MarkedPartition, k: int, r: int) -> bool:
    if mp.n_rows > k - 1:
        return False
    odds = [v for v in mp.parts if v % 2 == 1]
    if len(odds) != len(set(odds)):
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
    """Complete duplicate-free list of family members of weight n."""
    eta, k, r = params.eta, params.k, params.r
    residues = {0} | {a % eta for a in params.alphas}
    out: list[tuple[int, ...]] = []
    if n == 0:
        return [()]
    if k == 1:
        return []
    # cap[v]: the largest weight of a member with every part <= v
    cap = [0] * (n + 1)
    for v in range(1, n + 1):
        cap[v] = (k - 1) * v + (cap[v - eta] if v > eta else 0)
    stack: list[int] = []

    def rec(remaining: int, max_part: int, small: int) -> None:
        if remaining == 0:
            out.append(tuple(stack))
            return
        for v in range(min(max_part, remaining), 0, -1):
            if cap[v] < remaining:
                break
            if v % eta not in residues:
                continue
            if stack and v == stack[-1] and v % eta != 0:
                continue
            if len(stack) >= k - 1:
                w = stack[-(k - 1)]
                lo = v + eta
                if w < lo or (w == lo and w % eta == 0):
                    continue
            ns = small + (1 if v <= eta else 0)
            if ns > r - 1:
                continue
            stack.append(v)
            rec(remaining - v, v, ns)
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


def enumerate_I_exact(floor: int, weight: int) -> list[tuple[int, ...]]:
    return [z for z in enumerate_I(floor, weight) if sum(z) == weight]


def enumerate_F33(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs (even-family member, distinct-odd partition) of total weight n,
    with the odd floor given by the member's second row count."""
    pairs = []
    for w in range(0, n + 1):
        for p in enumerate_E(3, 3, w):
            n2 = gg_mark(p).N(2)
            for z in enumerate_I_exact(n2, n - w):
                pairs.append((p, z))
    return pairs
