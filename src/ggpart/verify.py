"""Exact checks of the identities and bijections, shared by the CLI and the
acceptance suite.

Every check compares each coefficient or member in its range, tolerance
zero.  A map that raises `GGError` counts as a failure, with the error as
the value got.  A negative bound raises ValueError, here or in the series
builder a check calls.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import combinations_with_replacement
from math import isqrt
from typing import Any, NamedTuple, Optional

from . import maps, series
from .classify import find_pt_eq, find_pt_lt
from .errors import GGError, require_nonnegative
from .marking import gg_mark
from .membership import enumerate_B, enumerate_C, enumerate_E, enumerate_F33, row_counts


class Result(NamedTuple):
    """How many items a check covered, how many comparisons failed, and the
    first failure as (where, expected, got), as a named tuple."""

    checked: int
    failures: int
    first: Optional[tuple[Any, Any, Any]]

    @property
    def ok(self) -> bool:
        return self.failures == 0


class _Tally:
    def __init__(self):
        self.checked = self.failures = 0
        self.first = None

    def expect(self, where, expected, got) -> None:
        if expected != got:
            self.failures += 1
            self.first = self.first or (where, expected, got)

    def result(self) -> Result:
        return Result(self.checked, self.failures, self.first)


def _coefficients(expected, got) -> Result:
    """One item per exponent n, which is also the `where`."""
    tally = _Tally()
    for n, (want, have) in enumerate(zip(expected, got, strict=True)):
        tally.checked += 1
        tally.expect(n, want, have)
    return tally.result()


def _counts(params, qmax: int) -> list[int]:
    return [len(enumerate_B(params, n)) for n in range(require_nonnegative("qmax", qmax) + 1)]


def conjecture(params, qmax: int) -> Result:
    """Multi-sum coefficients against member counts, up to q^qmax."""
    return _coefficients(_counts(params, qmax), series.bressoud_multisum(params, qmax).coeffs)


def product(params, qmax: int) -> Result:
    """Infinite-product coefficients against member counts, up to q^qmax."""
    return _coefficients(_counts(params, qmax), series.bressoud_product(params, qmax).coeffs)


def sum_product(params, qmax: int) -> Result:
    """Multi-sum coefficients against infinite-product ones, up to q^qmax."""
    prod = series.bressoud_product(params, qmax)
    return _coefficients(prod.coeffs, series.bressoud_multisum(params, qmax).coeffs)


def companion(qmax: int) -> Result:
    """The length-refined series against the members of C(3, 3) counted by
    weight and length, as {length: count} per weight."""
    qmax = require_nonnegative("qmax", qmax)
    by_length = [dict(Counter(map(len, enumerate_C(3, 3, n)))) for n in range(qmax + 1)]
    return _coefficients(by_length, series.gg_companion_bivariate(qmax).coeffs)


def cell(k: int, r: int, qmax: int) -> Result:
    """The cell formula against the even family tallied by row counts
    (N_1..N_(k-1)), one item per cell that can hold a member of weight <=
    qmax: every non-increasing key with 2 N_1^2 <= qmax, empty or not, and
    any key the enumeration produced.  `where` is (key, n)."""
    qmax = require_nonnegative("qmax", qmax)
    if k < 2:
        raise ValueError(f"cell needs k >= 2, got k={k}")
    tallies: dict[tuple, list[int]] = {}
    for n in range(qmax + 1):
        for p in enumerate_E(k, r, n):
            tallies.setdefault(row_counts(gg_mark(p), k - 1), [0] * (qmax + 1))[n] += 1
    keys = set(combinations_with_replacement(range(isqrt(qmax // 2), -1, -1), k - 1)) | set(tallies)
    tally = _Tally()
    for key in sorted(keys):
        tally.checked += 1
        want = tallies.get(key, [0] * (qmax + 1))
        got = series.kursungoz_cell(key, r, qmax).coeffs
        n = next((n for n in range(qmax + 1) if want[n] != got[n]), None)
        if n is not None:
            tally.expect((key, n), want[n], got[n])
    return tally.result()


def members_by_weight(k: int, r: int, wmax: int) -> dict[int, list]:
    """{weight: [marked members of C(k, r)]} for every weight up to wmax."""
    wmax = require_nonnegative("wmax", wmax)
    return {n: [gg_mark(p) for p in enumerate_C(k, r, n)] for n in range(wmax + 1)}


def _bijection(fwd, bwd, where, sources, targets, phi, psi, image_stats) -> None:
    """Round trips x -> phi -> psi over the sources, each map answering (result,
    midpoints): psi(phi(x)) is (x, the midpoints of phi(x)), the image y has
    (weight, length) == image_stats(x), and the images are the targets.  So psi
    inverts phi on the targets, and a target's backward item passes when a
    clean trip reached it; no backward trip runs."""
    images, reached = [], {}
    for x in sources:
        fwd.checked += 1
        try:
            y, mid = phi(x)
            back = psi(y)
        except GGError as exc:
            fwd.expect((where, x), x, exc)
            continue
        fwd.expect((where, x), (x, mid), back)
        fwd.expect((where, x), image_stats(x), (y.weight, y.length))
        images.append(y.parts)
        if back == (x, mid):
            reached[y.parts] = y
    fwd.expect(where, sorted(y.parts for y in targets), sorted(images))
    for y in targets:  # got is None where no clean trip reached y
        bwd.checked += 1
        bwd.expect((where, y), y, reached.get(y.parts))


def pt_bijection(k: int, r: int, members: dict[int, list]) -> tuple[Result, Result]:
    """phi_pt/psi_pt from the lt members of each weight n (forward) onto the eq
    members of weight n+2p+2t+1 <= max(members) (backward), with one more part,
    placed by `find_pt_lt`/`find_pt_eq` per level m = p + t of a `members_by_weight`
    map.  A source's item runs `phi_pt_trace`, then `psi_pt_trace`, with its
    clause pass, and a target's item reads the trip that reached it; the maps
    check the subset kinds.  `where` is ((p, t), n)."""
    wmax = max(members, default=0)
    groups: dict[tuple[int, int, int], tuple[list, list]] = {}  # (m, p, n): (sources, targets)
    for n, mps in members.items():
        for mp in mps:
            for m in range((wmax - n + 1) // 2):  # n + 2m + 1 <= wmax
                if pt := find_pt_lt(mp, k, r, m):
                    groups.setdefault((m, pt[0], n), ([], []))[0].append(mp)
            if mp.largest_odd:  # it is 2t+1, so only the levels t..t+N2 can place mp
                t = mp.largest_odd // 2
                for m in range(t, min(t + len(mp.row2), (n - 1) // 2) + 1):  # 2m + 1 <= n
                    if pt := find_pt_eq(mp, k, r, m):
                        groups.setdefault((m, pt[0], n - 2 * m - 1), ([], []))[1].append(mp)
    fwd, bwd = _Tally(), _Tally()
    for (m, p, n), (sources, targets) in sorted(groups.items()):
        phi, psi = (partial(f, k=k, r=r, p=p, t=m - p) for f in (maps.phi_pt_trace, maps.psi_pt_trace))
        _bijection(
            fwd, bwd, ((p, m - p), n), sources, targets, phi, psi,
            lambda mp: (mp.weight + 2 * m + 1, mp.length + 1),
        )
    return fwd.result(), bwd.result()


def global_pairs(members: dict[int, list]) -> tuple[Result, Result]:
    """phi_global/psi_global from the F33 pairs of each weight n (forward)
    onto the C(3, 3) members of weight n (backward, read off the forward
    trips), keeping weight and length; `members` is a
    `members_by_weight(3, 3, wmax)` map."""
    fwd, bwd = _Tally(), _Tally()
    for n, targets in members.items():
        pairs = [(gg_mark(even), zeta) for even, zeta in enumerate_F33(n)]
        _bijection(
            fwd, bwd, n, pairs, targets,
            lambda pair: (maps.phi_global(*pair), None), lambda y: (maps.psi_global(y), None),
            lambda pair: (n, pair[0].length + len(pair[1])),
        )
    return fwd.result(), bwd.result()
