"""Shared enumeration caches for the sweep-style tests, the bytes per live
marked partition (read by a tier-1 test and by CI's job summary), the
microseconds per fresh one and per classifier probe (read by CI's job
summary), the reference forms of the enumerators, the series, the (p, t)
sweep and the classifier passes that the library replaced, and `Index`, an
integer-like value that is not an int."""

import gc
import math
import statistics
import time
import tracemalloc
from functools import cache, partial
from typing import Optional

from ggpart import (
    ClassificationError,
    MarkedPartition,
    SubsetLabel,
    classify_eq,
    classify_lt,
    classify_sim,
    enumerate_E,
    gg_mark,
    is_in_C,
    row_counts,
    verify,
)
from ggpart.classify import (
    S0,
    S1,
    S2,
    S3,
    _chain,
    _check_kr,
    _derived,
    _first_gap,
    _one_label,
    cluster_indexes,
    reduction_types,
    starting_profile,
)
from ggpart.errors import require_nonnegative
from ggpart.membership import enumerate_I

# {weight: [marked members]} for the eta=2 single-residue family
c_members = cache(verify.members_by_weight)


@cache
def e_members(k: int, r: int, wmax: int):
    return {n: [gg_mark(p) for p in enumerate_E(k, r, n)] for n in range(wmax + 1)}


def e_cell(counts, r: int, n: int):
    """Members of the even family whose marking has exactly the given row sizes."""
    k = len(counts) + 1
    return [p for p in enumerate_E(k, r, n) if row_counts(gg_mark(p), k - 1) == tuple(counts)]


def _e_pairs(k: int, r: int, wmax: int):
    """The (value, overlined) pairs of every member of E(k, r) to weight
    wmax, each marked once so that the marks cache is full before a
    measurement starts."""
    pairs = [[(v, False) for v in p] for n in range(wmax + 1) for p in enumerate_E(k, r, n)]
    for x in pairs:
        MarkedPartition(x)
    return pairs


def bytes_per_partition(k: int = 4, r: int = 4, wmax: int = 40) -> float:
    """Bytes that tracemalloc sees retained per live marked partition, over
    fresh `MarkedPartition(pairs)` objects of every member of E(k, r) to
    weight wmax (built directly: no cache can hand back an old object)."""
    pairs = _e_pairs(k, r, wmax)
    gc.collect()  # a full collection empties the free lists, which tracemalloc cannot see
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        live = [MarkedPartition(x) for x in pairs]
        return (tracemalloc.get_traced_memory()[0] - before) / len(live)
    finally:
        tracemalloc.stop()


def us_per_partition(k: int = 4, r: int = 4, wmax: int = 40, repeats: int = 15) -> float:
    """Microseconds per fresh `MarkedPartition(pairs)` over every member of
    E(k, r) to weight wmax: the median of `repeats` timed sweeps, each
    building one new object per member and dropping it."""
    pairs = _e_pairs(k, r, wmax)
    sweeps = []
    for _ in range(repeats):
        start = time.perf_counter()
        for x in pairs:
            MarkedPartition(x)
        sweeps.append(time.perf_counter() - start)
    return statistics.median(sweeps) / len(pairs) * 1e6


def us_per_probe(k: int = 3, r: int = 3, wmax: int = 24, repeats: int = 5) -> float:
    """Microseconds per `classify_lt`/`classify_sim`/`classify_eq` call over
    the probe grid of C(k, r) to weight wmax: the median of `repeats` timed
    sweeps.  Each sweep probes a fresh `MarkedPartition(pairs)` of every
    member (built before the clock, so no label from an earlier sweep
    answers) at every p <= N2 and t <= wmax // 2 + 4: `classify_lt`, then
    `classify_sim` where lt hits, and `classify_eq`."""
    pairs = [[(v, False) for v in mp.parts] for mps in c_members(k, r, wmax).values() for mp in mps]
    t_max = wmax // 2 + 4
    sweeps = []
    for _ in range(repeats):
        fresh = [MarkedPartition(x) for x in pairs]
        calls = 0
        start = time.perf_counter()
        for mp in fresh:
            for p, t in pt_grid(mp, t_max):
                if classify_lt(mp, k, r, p, t) is not None:
                    classify_sim(mp, k, r, p, t)
                    calls += 1
                classify_eq(mp, k, r, p, t)
                calls += 2
        sweeps.append((time.perf_counter() - start) / calls)
    return statistics.median(sweeps) * 1e6


class Index:
    """An integer-like value that is not an int: it has `__index__` only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def row_at(mp, i: int, j: int):
    """Entry j of row i as the paper's definitions read it: +inf at j = 0 and
    -inf anywhere past the last entry (plain floats, which compare with ints)."""
    if j < 0:
        raise IndexError(f"row position must be >= 0, got {j}")
    row = mp.row_values(i)
    if j == 0:
        return math.inf
    return row[j - 1] if j <= len(row) else -math.inf


def pt_grid(mp, t_max: int):
    """All (p, t) pairs worth probing for one partition: p bounded by the
    second row, t by the point where every membership clause has stabilized."""
    return [(p, t) for p in range(0, mp.N(2) + 1) for t in range(0, t_max + 1)]


def reference_pt_bijection(k: int, r: int, members: dict[int, list]):
    """`verify.pt_bijection` as the probe grid it replaced: every (delta, p, n)
    with delta = 2p+2t+1, in that order, its sources and targets filtered by
    `classify_lt`/`classify_eq`, each group run by `verify._bijection`."""
    wmax = max(members)
    fwd, bwd = verify._Tally(), verify._Tally()
    for delta in range(1, wmax + 1, 2):
        for p in range(delta // 2 + 1):
            t = delta // 2 - p
            phi = partial(verify.phi_by_factors, k=k, r=r, p=p, t=t)
            psi = partial(verify.psi_by_factors, k=k, r=r, p=p, t=t)
            for n in range(wmax + 1 - delta):
                sources = [mp for mp in members[n] if classify_lt(mp, k, r, p, t)]
                targets = [mp for mp in members[n + delta] if classify_eq(mp, k, r, p, t)]
                verify._bijection(
                    fwd, bwd, ((p, t), n), sources, targets, phi, psi,
                    lambda mp: (mp.weight + delta, mp.length + 1),
                )
    return fwd.result(), bwd.result()


# -- reference forms of the series kernels and builders ------------------
# The plain-loop kernels and the per-term builders that `ggpart.series`
# replaced with slice kernels and incremental walks, kept as test oracles.


def loop_mul_one_plus(c, e, sign=1):
    """c *= (1 + sign*q^e) for e >= 1, one coefficient at a time, descending."""
    for n in range(len(c) - 1, e - 1, -1):
        c[n] += sign * c[n - e]


def loop_div_one_minus(c, e):
    """c *= 1/(1 - q^e), one coefficient at a time, ascending."""
    for n in range(e, len(c)):
        c[n] += c[n - e]


def _min_exponent(params, values):
    eta = params.eta
    base = eta * sum(v * v for v in values) + eta * sum(values[params.r - 1 :])
    neg = 0
    for s, a in enumerate(params.alphas, start=1):
        ns = values[s - 1]
        neg += a * ns + eta * (ns * (ns - 1)) // 2
    return base - neg


def reference_multisum(params, qmax):
    """The multi-sum as a list of coefficients, each term rebuilt from 1."""
    eta, k = params.eta, params.k
    total = [0] * (qmax + 1)
    values = [0] * (k - 1)

    def term():
        base = _min_exponent(params, values)
        budget = qmax - base
        c = [1] + [0] * budget
        for s, a in enumerate(params.alphas, start=1):
            for jj in range(values[s - 1]):
                if a + eta * jj <= budget:
                    loop_mul_one_plus(c, a + eta * jj)
        for s in range(2, params.lam + 1):
            e = eta - params.alphas[s - 1] + eta * values[s - 2]
            while e <= budget:
                loop_mul_one_plus(c, e)
                e += eta
        diffs = [values[i] - values[i + 1] for i in range(k - 2)] + [values[k - 2]]
        for d in diffs:
            for jj in range(1, d + 1):
                if eta * jj <= budget:
                    loop_div_one_minus(c, eta * jj)
        for n, v in enumerate(c):
            total[base + n] += v

    def rec(i):
        if i == k - 1:
            term()
            return
        v = 0
        while i == 0 or v <= values[i - 1]:
            values[i] = v
            if _min_exponent(params, values) > qmax:
                break
            rec(i + 1)
            v += 1
        values[i] = 0

    rec(0)
    return total


def _dict_add(dst, src):
    for d, v in src.items():
        nv = dst.get(d, 0) + v
        if nv:
            dst[d] = nv
        else:
            dst.pop(d, None)


def reference_companion(qmax):
    """The length-refined companion as {x-degree: coefficient} per q^n, each
    (N1, N2) term rebuilt from 1 over dict coefficients."""
    total = [{} for _ in range(qmax + 1)]
    n1 = 0
    while 2 * n1 * n1 <= qmax:
        n2 = 0
        while n2 <= n1 and 2 * (n1 * n1 + n2 * n2) <= qmax:
            base = 2 * (n1 * n1 + n2 * n2)
            budget = qmax - base
            c = [{n1 + n2: 1}] + [{} for _ in range(budget)]
            for e in range(1 + 2 * n2, budget + 1, 2):  # c *= (1 + x q^e)
                for n in range(budget, e - 1, -1):
                    _dict_add(c[n], {d + 1: v for d, v in c[n - e].items()})
            for d in (n1 - n2, n2):
                for jj in range(1, d + 1):
                    for n in range(2 * jj, budget + 1):
                        _dict_add(c[n], c[n - 2 * jj])
            for n, poly in enumerate(c):
                _dict_add(total[base + n], poly)
            n2 += 1
        n1 += 1
    return total


# -- reference form of the enumerator ------------------------------------


def reference_enumerate_B(params, n):
    """Members of weight n in descending-lex order: each level tries the
    values downward, checks the four conditions in the loop body, and stops
    at the first part whose capacity cap[v] is below the weight left."""
    eta, k, r = params.eta, params.k, params.r
    residues = {0} | {a % eta for a in params.alphas}
    out = []
    if n == 0:
        return [()]
    if k == 1:
        return []
    cap = [0] * (n + 1)
    for v in range(1, n + 1):
        cap[v] = (k - 1) * v + (cap[v - eta] if v > eta else 0)
    stack = []

    def rec(remaining, max_part, small):
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


# -- reference forms of the classifier passes ----------------------------
# The lt and tilde clause passes and the eq membership test as they were
# before each clause pass returned subset 1 at once where no other clause
# can hold, and before `classify_eq` tested the largest odd part ahead of
# its membership test; kept verbatim as test oracles.


def reference_lt_clauses(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> SubsetLabel:
    prof = starting_profile(mp)
    row = mp.row2
    v = row[p - 1] if p else None
    ty = prof.type_at(p) if p else None
    at = 2 * t + 2  # the insertion index of subsets 1 to 5
    hits = []

    if (
        p == 0
        or v > 2 * t + 6
        or (v == 2 * t + 6 and ty in (S2, S3) and mp.max_mark(2 * t + 6) == 2)
    ):
        hits.append((1, at))
    if v == 2 * t + 6 and not mp.has_part(2 * t + 2) and (
        ty not in (S2, S3) or mp.max_mark(2 * t + 6) > 2
    ):
        hits.append((2, at))
    if v == 2 * t + 6 and ty == S3 and mp.has_part(2 * t + 2) and mp.max_mark(2 * t + 6) > 2:
        hits.append((3, at))
    if p and v <= 2 * t + 4:  # w: the part at the first cluster index p_1
        ps = cluster_indexes(mp, p)
        w = row[ps[0] - 1]
        if v == 2 * t + 4 and ty == S3 and mp.max_mark(2 * t + 4) == 2:
            hits.append((4, at))
        if v == 2 * t + 4 and ty == S3 and mp.max_mark(2 * t + 4) > 2:
            hits.append((5, at))
        if v == 2 * t + 4 and ty == S1:
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


def reference_refine_sim(
    mp: MarkedPartition, k: int, r: int, p: int, t: int, base: SubsetLabel
) -> Optional[SubsetLabel]:
    """The tilde subset of a member whose lt label at (p, t) is `base`."""
    row = mp.row2
    v = row[p - 1] if p else None
    l = base.l
    red = {i: lab for lo, hi, lab in reduction_types(mp, l) for i in range(lo, hi + 1)}
    hits = []
    if p == 0 or v >= 2 * t + 8:
        hits.append(1)
    if v == 2 * t + 6 and red.get(p) in ("A1", "A2", "B") and not mp.has_part(2 * t + 2):
        hits.append(2)
    if v == 2 * t + 6 and red.get(p) == "A1" and mp.has_part(2 * t + 2):
        hits.append(3)
    if v == 2 * t + 6 and red.get(p) == "C" and not mp.has_part(2 * t + 2):
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
    return SubsetLabel("sim", hits[0], p, t, base.index, l)


def reference_member_eq(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> bool:
    # The largest odd part fixes t, so most probes stop here; then the bracket.
    if p < 0 or t < 0 or mp.largest_odd != 2 * t + 1:
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
        if v != 2 * t + 4 or prof.type_at(p) != S3:
            return False
        if _first_gap(mp, row, _chain(row, p)) is None:
            return False
    return True


def reference_classify_eq(mp: MarkedPartition, k: int, r: int, p: int, t: int) -> Optional[SubsetLabel]:
    """Subset number within the equality family, or None if not a member."""
    _check_kr(k, r)
    return _derived(mp, "eq", k, r, p, t) if reference_member_eq(mp, k, r, p, t) else None


# -- reference form of the pair enumerator -------------------------------
# `enumerate_F33` as it was before it grouped each floor's distinct-odd
# partitions by weight: one filtered `enumerate_I` per even member.


def reference_enumerate_I_exact(floor: int, weight: int) -> list[tuple[int, ...]]:
    weight = require_nonnegative("weight", weight)
    return [z for z in enumerate_I(floor, weight) if sum(z) == weight]


def reference_enumerate_F33(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs (even-family member, distinct-odd partition) of total weight n,
    with the odd floor given by the member's second row count."""
    n = require_nonnegative("n", n)
    pairs = []
    for w in range(0, n + 1):
        for p in enumerate_E(3, 3, w):
            n2 = gg_mark(p).N(2)
            for z in reference_enumerate_I_exact(n2, n - w):
                pairs.append((p, z))
    return pairs
