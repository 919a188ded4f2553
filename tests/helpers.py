"""Shared enumeration caches for the sweep-style tests."""

from functools import cache

from ggpart import enumerate_E, gg_mark, row_counts, verify

# {weight: [marked members]} for the eta=2 single-residue family
c_members = cache(verify.members_by_weight)


@cache
def e_members(k: int, r: int, wmax: int):
    return {n: [gg_mark(p) for p in enumerate_E(k, r, n)] for n in range(wmax + 1)}


def e_cell(counts, r: int, n: int):
    """Members of the even family whose marking has exactly the given row sizes."""
    k = len(counts) + 1
    return [p for p in enumerate_E(k, r, n) if row_counts(gg_mark(p), k - 1) == tuple(counts)]


def pt_grid(mp, t_max: int):
    """All (p, t) pairs worth probing for one partition: p bounded by the
    second row, t by the point where every membership clause has stabilized."""
    return [(p, t) for p in range(0, mp.N(2) + 1) for t in range(0, t_max + 1)]
