"""Kind-targeted round trips past the sweeps.

The exhaustive sweeps place members at p <= 2 only, and reach kinds 11 and
12 only at p = 2, t <= 1, l = 0.  `walk` goes further.  It starts from
tilde-family members of each subset kind and keeps editing members it has
kept: add a part, remove a part, or move a part by 2 up or down.  A
candidate is kept when it is in C(k, r) and `classify_sim` gives it the
same kind at (p, t) or at a neighbouring level (p +- 1, t +- 1).  Each kept
member runs the four factors and both composites, so their ledgers and
their kind and index checks run on it too.

The longer walk of CI calls `walk` directly, for example:

    PYTHONPATH=src:tests python -c 'from test_kind_walk import walk; print(walk(4, 3, 2, 8000))'
"""

import random
from collections import Counter

import pytest

from ggpart import (
    classify_lt,
    classify_sim,
    dilate,
    find_pt_lt,
    gg_mark,
    insert_odd,
    is_in_C,
    phi_pt,
    psi_pt,
    reduce,
    separate_odd,
)
from ggpart.fixtures import FIXTURES, fixture_marked

from helpers import c_members

SWEEP = 24  # image weight of the sweep seeds: kind 11 first appears at 23
NEAR = [(dp, dt) for dp in (0, 1, -1) for dt in (0, 1, -1)]


def seeds(k: int, r: int) -> dict[int, list]:
    """{kind: [(member, p, t)]} of the tilde family: the fixtures m6..m12,
    (10,8,6,2,2) at (2,0), the only kind-12 placement of the sweeps to weight
    44, and the last lt member of each (kind, p, l) in the sweep to image
    weight SWEEP, dilated; each where `classify_sim` gives it that kind."""
    found = [(fixture_marked(f"m{j}"), FIXTURES[f"m{j}"]["params"]) for j in range(6, 13)]
    tried = [(mp, prm["p"], prm["t"]) for mp, prm in found] + [(gg_mark((10, 8, 6, 2, 2)), 2, 0)]
    last = {}
    for n, mps in c_members(k, r, SWEEP).items():
        for mp in mps:
            for m in range((SWEEP - n + 1) // 2):
                if pt := find_pt_lt(mp, k, r, m):
                    label = classify_lt(mp, k, r, *pt)
                    last[label.j, pt[0], label.l] = (mp, *pt)
    tried += [(dilate(mp, k, r, p, t)[0], p, t) for mp, p, t in last.values()]
    out: dict[int, list] = {}
    for mp, p, t in tried:
        if label := classify_sim(mp, k, r, p, t):
            out.setdefault(label.j, []).append((mp, p, t))
    return out


def _edit(rng: random.Random, parts: tuple[int, ...]) -> list[int]:
    """One edit: add a part, remove a part, or move a part by 2 up or down."""
    parts = list(parts)
    op = rng.randrange(3) if parts else 0
    if op == 0:
        parts.append(rng.randint(1, (parts[0] if parts else 0) + 4))
    elif op == 1:
        parts.pop(rng.randrange(len(parts)))
    else:
        i = rng.randrange(len(parts))
        parts[i] += rng.choice((-2, 2))
        if parts[i] < 1:
            parts.pop(i)
    return sorted(parts, reverse=True)


def _round_trips(mu, k: int, r: int, p: int, t: int) -> None:
    """The four factors and both composites on a tilde member, each inverted."""
    where = (mu.parts, k, r, p, t)
    omega = insert_odd(mu, k, r, p, t)
    assert separate_odd(omega, k, r, p, t) == mu, where
    lam = reduce(mu, k, r, p, t)[0]
    assert dilate(lam, k, r, p, t)[0] == mu, where
    assert phi_pt(lam, k, r, p, t) == omega, where
    assert psi_pt(omega, k, r, p, t) == lam, where


def walk(k: int, r: int, seed: int, steps: int) -> Counter:
    """Walk `steps` edits per seeded kind from `seeds(k, r)` with a
    `random.Random(seed)`; each kept member runs `_round_trips`.  Returns
    the kept members tallied by (kind, p, l)."""
    rng = random.Random(seed)
    coverage: Counter = Counter()
    for j, pool in sorted(seeds(k, r).items()):
        seen = {(mp.parts, p, t) for mp, p, t in pool}
        for mp, p, t in pool:
            _round_trips(mp, k, r, p, t)
        for _ in range(steps):
            mp, p, t = rng.choice(pool)
            cand = gg_mark(_edit(rng, mp.parts))
            if not is_in_C(cand, k, r):
                continue
            for q, s in ((p + dp, t + dt) for dp, dt in NEAR):
                if q < 0 or s < 0 or (cand.parts, q, s) in seen:
                    continue
                label = classify_sim(cand, k, r, q, s)
                if label is not None and label.j == j:
                    seen.add((cand.parts, q, s))
                    pool.append((cand, q, s))
                    _round_trips(cand, k, r, q, s)
                    coverage[j, q, label.l] += 1
                    break
    return coverage


@pytest.mark.parametrize("k, r", [(3, 3), (4, 3), (4, 4), (5, 5)])
def test_kind_walk(k, r):
    # C(3, 3) has no kinds 3 and 5: their lt clauses ask for a part marked 3
    coverage = walk(k, r, seed=1, steps=500)
    p_max, l_max = Counter(), Counter()
    for j, p, l in coverage:
        p_max[j], l_max[j] = max(p_max[j], p), max(l_max[j], l)
    assert sorted(p_max) == ([1, 2, 4] if k == 3 else [1, 2, 3, 4, 5]) + list(range(6, 13))
    assert min(p_max[j] for j in range(6, 13)) >= 3, p_max  # the sweeps stop at p = 2
    assert min(p_max[11], p_max[12]) >= 4 and min(l_max[11], l_max[12]) >= 2, (p_max, l_max)  # sweeps: l = 0
