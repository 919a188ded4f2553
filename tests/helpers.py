"""Shared enumeration caches for the sweep-style tests, the bytes per live
marked partition (read by a tier-1 test and by CI's job summary), the
microseconds per fresh one (by its constructor and by `gg_mark`), per
classifier probe, per lt round trip and per enumerated member (read by CI's
job summary), the plain-loop forms of the series kernels, and `Index`, an
integer-like value that is not an int."""

import gc
import math
import statistics
import time
import tracemalloc
from functools import cache

from ggpart import (
    MarkedPartition,
    classify_eq,
    classify_lt,
    classify_sim,
    dilate,
    enumerate_C,
    enumerate_E,
    find_pt_lt,
    gg_mark,
    insert_odd,
    reduce,
    row_counts,
    separate_odd,
    verify,
)
from ggpart import marking, membership

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


def us_per_mark(k: int = 4, r: int = 4, wmax: int = 40, repeats: int = 15) -> float:
    """Microseconds per fresh `gg_mark(parts)` over every member of E(k, r)
    to weight wmax: the median of `repeats` timed sweeps, each from an empty
    `gg_mark` cache with no partition alive, so every call runs the greedy
    marking."""
    members = [p for n in range(wmax + 1) for p in enumerate_E(k, r, n)]
    sweeps = []
    for _ in range(repeats):
        marking._gg_mark_cached.cache_clear()  # drops the last sweep's partitions
        start = time.perf_counter()
        for p in members:
            gg_mark(p)
        sweeps.append(time.perf_counter() - start)
    marking._gg_mark_cached.cache_clear()
    return statistics.median(sweeps) / len(members) * 1e6


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


def us_per_round_trip(k: int = 3, r: int = 3, wmax: int = 24, repeats: int = 5) -> float:
    """Microseconds per lt round trip `dilate` -> `insert_odd` ->
    `separate_odd` -> `reduce` over C(k, r) to weight wmax: the median of
    `repeats` timed sweeps.  Each sweep starts from a fresh
    `MarkedPartition(pairs)` of every member (built before the clock, so no
    label from an earlier sweep answers the first input check) at each
    (p, t) that `find_pt_lt` places it at with an image of weight <= wmax."""
    placed = [
        ([(v, False) for v in mp.parts], *pt)
        for n, mps in c_members(k, r, wmax).items()
        for mp in mps
        for m in range((wmax - n + 1) // 2)  # n + 2m + 1 <= wmax
        if (pt := find_pt_lt(mp, k, r, m))
    ]
    sweeps = []
    for _ in range(repeats):
        fresh = [(MarkedPartition(x), p, t) for x, p, t in placed]
        start = time.perf_counter()
        for x, p, t in fresh:
            mu = dilate(x, k, r, p, t)[0]
            reduce(separate_odd(insert_odd(mu, k, r, p, t), k, r, p, t), k, r, p, t)
        sweeps.append(time.perf_counter() - start)
    return statistics.median(sweeps) / len(placed) * 1e6


def us_per_member(k: int = 4, r: int = 4, wmax: int = 60, repeats: int = 5) -> float:
    """Microseconds per member over a cold sweep `enumerate_C(k, r, n)` for n =
    0..wmax: the median of `repeats` timed sweeps, each from an empty tail
    table, so it counts the table's filling as a process's first sweep does."""
    sweeps = []
    for _ in range(repeats):
        membership._tail_table.cache_clear()
        start = time.perf_counter()
        members = sum(len(enumerate_C(k, r, n)) for n in range(wmax + 1))
        sweeps.append(time.perf_counter() - start)
    return statistics.median(sweeps) / members * 1e6


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


# -- plain-loop forms of the series kernels --------------------------------
# The kernels that `ggpart.series` replaced with slice kernels: the
# definition of multiplying by (1 + sign*q^e) and dividing by (1 - q^e).


def loop_mul_one_plus(c, e, sign=1):
    """c *= (1 + sign*q^e) for e >= 1, one coefficient at a time, descending."""
    for n in range(len(c) - 1, e - 1, -1):
        c[n] += sign * c[n - e]


def loop_div_one_minus(c, e):
    """c *= 1/(1 - q^e), one coefficient at a time, ascending."""
    for n in range(e, len(c)):
        c[n] += c[n - e]
