"""Shared enumeration caches for the sweep-style tests, the bytes per live
marked partition (read by a tier-1 test and by CI's job summary) and the
microseconds per fresh one (read by CI's job summary), the reference forms
of the enumerator and the series that the library replaced, and `Index`,
an integer-like value that is not an int."""

import gc
import math
import statistics
import time
import tracemalloc
from functools import cache

from ggpart import MarkedPartition, enumerate_E, gg_mark, row_counts, verify

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
