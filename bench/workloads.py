"""The four benchmark workloads: seeded inputs, one pass, exact checks.

Each workload is a `setup` that builds its inputs from a seed and a `run`
that checks every item once.  Both reach the library only through `api` (see
spans.py), so the traced and untraced passes execute the same code.  Every
item ends in one `Tally.check`: a wrong result or a `GGError` counts as a
failed item and the pass goes on.

Why these four:

- roundtrip: the bijection round trips users run, at weights past the test
  suite's bound of 30 where clusters get long; maps-heavy, with surgery and
  re-marking, and the probe part leans on classify.
- classify_scan: read-only classification that mostly rejects (under half of
  the lt probes and one in fifty eq probes hit), so a per-(p, t) record that
  helps roundtrip has to pay for itself here.
- identity_enum: the enumeration oracle behind `ggpart verify`; membership
  and marking do the work, classify and maps do none.
- series_deep: the q-series layer alone, which is under 1% of the others.
  It is seed-independent by design, and so is identity_enum.
"""

from __future__ import annotations

import hashlib
import random
from time import perf_counter

from ggpart.errors import GGError
from ggpart.membership import BressoudParams

KR_SETS = ((3, 3), (4, 3), (4, 4))

SIZES = {
    "roundtrip": {"kr_sets": KR_SETS, "max_weight": 40, "per_weight": 6, "global_weight": 22},
    "classify_scan": {"kr_sets": KR_SETS, "max_weight": 36, "per_weight": 12},
    "identity_enum": {"qmax": 50, "cell_krs": ((4, 3), (4, 4)), "max_lead": 4},
    "series_deep": {"qmax": 400, "companion_qmax": 250},
}

TINY = {
    "roundtrip": {"kr_sets": KR_SETS, "max_weight": 14, "per_weight": 2, "global_weight": 10},
    "classify_scan": {"kr_sets": KR_SETS, "max_weight": 12, "per_weight": 3},
    "identity_enum": {"qmax": 14, "cell_krs": ((4, 3), (4, 4)), "max_lead": 2},
    "series_deep": {"qmax": 40, "companion_qmax": 30},
}

PRODUCT_PARAMS = (BressoudParams((1,), 2, 4, 3), BressoudParams((1, 2), 3, 3, 3))
SERIES_PARAMS = (
    BressoudParams((1,), 2, 3, 3),
    BressoudParams((1,), 2, 4, 4),
    BressoudParams((1,), 2, 5, 5),
    BressoudParams((1, 2), 3, 3, 3),
    BressoudParams((), 2, 5, 4),
)
COMPANION = BressoudParams((1,), 2, 3, 3)


class Tally:
    """Items attempted and failed, with the first few failures described."""

    KEEP = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_kind: dict[str, int] = {}
        self.failures: list[str] = []

    def check(self, ok: bool, kind: str, what) -> None:
        self.attempted += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.KEEP:
                self.failures.append(f"{kind}: {what}")


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def sample_members(api, rng, k, r, max_weight, per_weight):
    """A fixed count of members per weight (all of them when per_weight is
    None or the weight has fewer), so a new seed changes the members but not
    the weight mix.  Returns (marked members by ascending weight, counts)."""
    members, counts = [], []
    for n in range(max_weight + 1):
        pool = api.enumerate_C(k, r, n)
        if per_weight is not None and len(pool) > per_weight:
            pool = rng.sample(pool, per_weight)
        counts.append(len(pool))
        members.extend(api.gg_mark(p) for p in pool)
    return members, counts


def _sampled(api, seed, kr_sets, max_weight, per_weight) -> dict:
    rng = random.Random(seed)
    members, counts = {}, {}
    for k, r in kr_sets:
        members[(k, r)], counts[f"{k},{r}"] = sample_members(api, rng, k, r, max_weight, per_weight)
    digest = _digest({kr: [mp.parts for mp in ms] for kr, ms in members.items()})
    return {"members": members, "record": {"seed": seed, "per_weight_counts": counts}, "digest": digest}


# -- roundtrip ---------------------------------------------------------


def setup_roundtrip(api, seed, kr_sets, max_weight, per_weight, global_weight):
    inputs = _sampled(api, seed, kr_sets, max_weight, per_weight)
    pairs = [pair for n in range(global_weight + 1) for pair in api.enumerate_F33(n)]
    inputs["pairs"] = pairs
    inputs["digest"] = _digest((inputs["digest"], pairs))
    inputs["record"]["global_pairs"] = len(pairs)
    inputs["max_weight"] = max_weight
    return inputs


def run_roundtrip(api, tracer, tally, inputs) -> None:
    """For every (p, t) with 2(p+t)+1 <= max_weight: each lt member whose image
    stays within max_weight goes dilate -> insert_odd -> separate_odd ->
    reduce and must come back with the midpoints agreeing; each eq member
    must satisfy phi_pt(psi_pt(y)) == y.  Then every F33 pair must survive
    phi_global -> psi_global.  This is the sweep of `ggpart roundtrip`."""
    wmax = inputs["max_weight"]
    pts = [(p, m - p) for m in range(wmax // 2 + 1) for p in range(m + 1)]
    for (k, r), members in inputs["members"].items():
        for mp in members:
            n = mp.weight
            with tracer.unit("member"):
                for p, t in pts:
                    delta = 2 * (p + t) + 1
                    if n + delta <= wmax:
                        try:
                            lt = api.classify_lt(mp, k, r, p, t)
                        except GGError as exc:
                            tally.check(False, "lt", (mp.parts, k, r, p, t, repr(exc)))
                            lt = None
                        if lt is not None:
                            _lt_round_trip(api, tally, mp, k, r, p, t)
                    if n >= delta:
                        try:
                            eq = api.classify_eq(mp, k, r, p, t)
                        except GGError as exc:
                            tally.check(False, "eq", (mp.parts, k, r, p, t, repr(exc)))
                            eq = None
                        if eq is not None:
                            try:
                                back = api.phi_pt(api.psi_pt(mp, k, r, p, t), k, r, p, t)
                                ok, what = back == mp, (mp.parts, k, r, p, t, back.parts)
                            except GGError as exc:
                                ok, what = False, (mp.parts, k, r, p, t, repr(exc))
                            tally.check(ok, "eq", what)
    for pair in inputs["pairs"]:
        with tracer.unit("pair"):
            try:
                back, zeta = api.psi_global(api.phi_global(*pair))
                ok, what = (back.parts, zeta) == pair, (pair, back.parts, zeta)
            except GGError as exc:
                ok, what = False, (pair, repr(exc))
            tally.check(ok, "global", what)


def _lt_round_trip(api, tally, mp, k, r, p, t) -> None:
    try:
        mu, _ = api.dilate(mp, k, r, p, t)
        omega = api.insert_odd(mu, k, r, p, t)
        mid = api.separate_odd(omega, k, r, p, t)
        back, _ = api.reduce(mid, k, r, p, t)
        ok, what = back == mp and mid == mu, (mp.parts, k, r, p, t, mid.parts, back.parts)
    except GGError as exc:
        ok, what = False, (mp.parts, k, r, p, t, repr(exc))
    tally.check(ok, "lt", what)


# -- classify_scan -----------------------------------------------------


def setup_classify_scan(api, seed, kr_sets, max_weight, per_weight):
    inputs = _sampled(api, seed, kr_sets, max_weight, per_weight)
    inputs["t_max"] = max_weight // 2 + 4
    return inputs


def run_classify_scan(api, tracer, tally, inputs) -> None:
    """Probe every (p, t) with p <= N2 and t <= t_max: classify_lt, then
    classify_sim where lt hits, and classify_eq.  Then the decomposition
    searches must agree with the probes: for each m <= t_max, find_pt_lt and
    find_pt_eq return the one probe hit with p + t = m (None when there is
    none), and for (3, 3) find_m_eq33 names the level of the one eq hit.
    Neither family reaches p > N2, and p + t = m <= t_max keeps t on the grid,
    so the grid holds every candidate the searches consider."""
    t_max = inputs["t_max"]
    for (k, r), members in inputs["members"].items():
        for mp in members:
            with tracer.unit("member"):
                try:
                    ok, what = _scan_member(api, mp, k, r, t_max)
                except GGError as exc:
                    ok, what = False, repr(exc)
                tally.check(ok, "member", (mp.parts, k, r, what))


def _scan_member(api, mp, k, r, t_max):
    lt_hits: dict[int, list] = {}
    eq_hits: dict[int, list] = {}
    for p in range(mp.N(2) + 1):
        for t in range(t_max + 1):
            if api.classify_lt(mp, k, r, p, t) is not None:
                lt_hits.setdefault(p + t, []).append((p, t))
                api.classify_sim(mp, k, r, p, t)
            if api.classify_eq(mp, k, r, p, t) is not None:
                eq_hits.setdefault(p + t, []).append((p, t))
    for m in range(t_max + 1):
        for find, hits in ((api.find_pt_lt, lt_hits), (api.find_pt_eq, eq_hits)):
            want = hits.get(m, [None])
            got = find(mp, k, r, m)
            if len(want) != 1 or got != want[0]:
                return False, (find.__name__, m, got, want)
    if (k, r) == (3, 3):
        m = api.find_m_eq33(mp)
        every = [pt for pts in eq_hits.values() for pt in pts]
        want = [] if m is None else [pt for pt in every if sum(pt) == m]
        if len(every) != len(want) or (m is not None and len(want) != 1):
            return False, ("find_m_eq33", m, every)
    return True, None


# -- identity_enum -----------------------------------------------------


def setup_identity_enum(api, seed, qmax, cell_krs, max_lead):
    return {"qmax": qmax, "cell_krs": cell_krs, "max_lead": max_lead, "digest": _digest((qmax, cell_krs, max_lead)),
            "record": {"seed": seed, "seed_independent": True}}


def _lead_bounded(size: int, max_lead: int):
    """Non-increasing tuples of the given length with entries <= max_lead."""
    if size == 0:
        yield ()
        return
    for rest in _lead_bounded(size - 1, max_lead):
        for v in range(rest[0] if rest else 0, max_lead + 1):
            yield (v,) + rest


def run_identity_enum(api, tracer, tally, inputs) -> None:
    """To q^qmax: the length-refined companion against enumerate_C(3, 3, n);
    bressoud_product against enumerate_B counts; and, for each (k, r) in
    cell_krs, kursungoz_cell against the enumerate_E members tallied by the
    row counts of their marking.  Items: one coefficient (companion and
    product) or one whole cell."""
    qmax = inputs["qmax"]
    with tracer.unit("companion"):
        biv = _series_or_none(api.gg_companion_bivariate, tally, "companion", qmax)
    for n in range(qmax + 1):
        with tracer.unit("companion"):
            by_len: dict[int, int] = {}
            for parts in api.enumerate_C(3, 3, n):
                by_len[len(parts)] = by_len.get(len(parts), 0) + 1
            if biv is not None:
                tally.check(by_len == biv.coeffs[n], "companion", (n, by_len, biv.coeffs[n]))
    for params in PRODUCT_PARAMS:
        with tracer.unit("product"):
            prod = _series_or_none(api.bressoud_product, tally, "product", params, qmax)
        for n in range(qmax + 1):
            with tracer.unit("product"):
                count = len(api.enumerate_B(params, n))
                if prod is not None:
                    tally.check(prod[n] == count, "product", (params, n, prod[n], count))
    for k, r in inputs["cell_krs"]:
        tallies: dict[tuple, list] = {}
        for n in range(qmax + 1):
            with tracer.unit("cell_tally"):
                for parts in api.enumerate_E(k, r, n):
                    mp = api.gg_mark(parts)
                    key = tuple(mp.N(i) for i in range(1, k))
                    tallies.setdefault(key, [0] * (qmax + 1))[n] += 1
        keys = sorted(set(tallies) | set(_lead_bounded(k - 1, inputs["max_lead"])))
        for key in keys:
            with tracer.unit("cell"):
                try:
                    cell = api.kursungoz_cell(key, r, qmax)
                    want = tallies.get(key, [0] * (qmax + 1))
                    ok = list(cell.coeffs) == want
                    what = (k, r, key, cell.coeffs, want)
                except GGError as exc:
                    ok, what = False, (k, r, key, repr(exc))
                tally.check(ok, "cell", what)


def _series_or_none(fn, tally, kind, *args):
    """A series, or None after charging every coefficient it would have
    checked as failed."""
    try:
        return fn(*args)
    except GGError as exc:
        qmax = args[-1]
        for n in range(qmax + 1):
            tally.check(False, kind, (fn.__name__, args[:-1], n, repr(exc)))
        return None


# -- series_deep -------------------------------------------------------


def setup_series_deep(api, seed, qmax, companion_qmax):
    return {"qmax": qmax, "companion_qmax": companion_qmax, "digest": _digest((qmax, companion_qmax)),
            "record": {"seed": seed, "seed_independent": True}}


def run_series_deep(api, tracer, tally, inputs) -> None:
    """bressoud_multisum == bressoud_product to q^qmax for each parameter
    set, and gg_companion_bivariate(companion_qmax) at x = 1 equal to the
    companion product.  Item: one coefficient."""
    qmax, cq = inputs["qmax"], inputs["companion_qmax"]
    checks = [("sum_product", params, qmax) for params in SERIES_PARAMS]
    checks.append(("companion", COMPANION, cq))
    for kind, params, q in checks:
        with tracer.unit(kind):
            try:
                if kind == "companion":
                    lhs = api.gg_companion_bivariate(q).at_x1()
                else:
                    lhs = api.bressoud_multisum(params, q)
                rhs = api.bressoud_product(params, q)
            except GGError as exc:
                for n in range(q + 1):
                    tally.check(False, kind, (params, n, repr(exc)))
                continue
            for n in range(q + 1):
                tally.check(lhs[n] == rhs[n], kind, (params, n, lhs[n], rhs[n]))


WORKLOADS = {
    "roundtrip": (setup_roundtrip, run_roundtrip),
    "classify_scan": (setup_classify_scan, run_classify_scan),
    "identity_enum": (setup_identity_enum, run_identity_enum),
    "series_deep": (setup_series_deep, run_series_deep),
}


def run_pass(name, seed, sizes, api, tracer):
    """Set up and run one workload once.

    Returns (inputs, tally, clock reading when set-up ended, pass seconds)."""
    setup, run = WORKLOADS[name]
    with tracer.root("setup"):
        inputs = setup(api, seed, **sizes)
    ready = perf_counter()
    tally = Tally()
    with tracer.root("pass"):
        t0 = perf_counter()
        run(api, tracer, tally, inputs)
        pass_s = perf_counter() - t0
    return inputs, tally, ready, pass_s
