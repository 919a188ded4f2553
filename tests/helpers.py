"""Shared enumeration caches for the sweep-style tests, the bytes per live
marked partition (read by a tier-1 test and by CI's job summary), the
microseconds per fresh one and per classifier probe (read by CI's job
summary), the probe-grid form of the (p, t) sweep that `verify.pt_bijection`
replaced, the plain-loop forms of the series kernels, and `Index`, an
integer-like value that is not an int."""

import gc
import math
import statistics
import time
import tracemalloc
from functools import cache, partial

from ggpart import (
    MarkedPartition,
    classify_eq,
    classify_lt,
    classify_sim,
    enumerate_E,
    gg_mark,
    row_counts,
    verify,
)

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
