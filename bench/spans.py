"""Call tracing for the benchmark.

The benchmark reaches the library only through an `api` namespace holding the
public functions of the five layers.  Untraced, the namespace holds the
functions themselves.  Traced, each function is wrapped so that every call
becomes a span: name, start, end, parent span and item id, plus its outcome
(hit, miss or error).  Spans are kept in flat arrays in memory and written out
once the pass is over; the per-layer figures are derived from them.  Traced
or not, each unit of work is timed and reference slices run between units
(UnitClock), so that run.py can give times at a fixed host speed.

Calls are timed inclusively: classification done inside `phi_pt` is billed to
`maps`, because the spans sit around the benchmark's own calls.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter
from types import SimpleNamespace

LAYERS = {
    "marking": ("gg_mark",),
    "membership": ("enumerate_B", "enumerate_C", "enumerate_E", "enumerate_F33"),
    "classify": (
        "classify_lt",
        "classify_sim",
        "classify_eq",
        "find_pt_lt",
        "find_pt_eq",
        "find_m_eq33",
    ),
    "maps": (
        "dilate",
        "insert_odd",
        "separate_odd",
        "reduce",
        "phi_pt",
        "psi_pt",
        "phi_global",
        "psi_global",
    ),
    "series": (
        "bressoud_multisum",
        "bressoud_product",
        "gg_companion_bivariate",
        "kursungoz_cell",
    ),
}

MISS, HIT, ERROR = 0, 1, 2


def layer_functions():
    """(layer, name, function) for every public function the benchmark calls."""
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"ggpart.{layer}")
        for name in names:
            yield layer, name, getattr(module, name)


REF_EVERY_S = 0.05  # least seconds from the end of one reference slice to the next


_TABLE: list = []  # filled on first use, so that importing this costs no set-up time


def _partitions(n: int, most: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, most), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def reference_slice() -> int:
    """A fixed piece of plain Python of the library's kind: every partition
    of 20 with its multiplicities tallied in a dict and the lot sorted, then
    scattered look-ups over a table of 20,000 tuples.  Its time says how fast
    the host runs this interpreter at that moment; it never changes.  Both
    halves are needed: the host's slow spells hit the scattered look-ups and
    the library alike, and a small, cache-resident loop alone slows down
    more than the library does, so it over-corrects."""
    if not _TABLE:
        _TABLE.extend(((i * 7919) % 100003, i % 17, i % 5) for i in range(20000))
    tally: dict = {}
    found = []
    for parts in _partitions(20, 20):
        mult: dict = {}
        for v in parts:
            mult[v] = mult.get(v, 0) + 1
        key = tuple(sorted(mult.items()))
        tally[key] = tally.get(key, 0) + 1
        found.append((len(parts), parts))
    found.sort()
    seen: dict = {}
    acc = 0
    for i in range(0, 20000, 2):
        row = _TABLE[(i * 31) % 20000]
        seen[row] = seen.get(row, 0) + 1
        acc += row[1]
    return acc + len(seen) + len(tally) + len(found)


class UnitClock:
    """Seconds of the units of a pass (one member, pair or identity check
    each) and, between units at least REF_EVERY_S apart, the seconds of one
    reference slice, so that every stretch of the pass has a reading of how
    fast the host was then.  Neither is counted in the other.  stretch_s[i]
    is the unit time just before slice i; the last entry is the unit time
    after the last slice."""

    def __init__(self):
        self.work_s = 0.0
        self.units = 0
        self.ref_s: list[float] = []
        self.stretch_s: list[float] = [0.0]
        self._next_ref = 0.0

    def record(self, seconds: float) -> None:
        self.work_s += seconds
        self.units += 1
        self.stretch_s[-1] += seconds
        t0 = perf_counter()
        if t0 >= self._next_ref:
            reference_slice()
            t1 = perf_counter()
            self.ref_s.append(t1 - t0)
            self.stretch_s.append(0.0)
            self._next_ref = t1 + REF_EVERY_S


class _TimedUnit:
    __slots__ = ("_clock", "_t0")

    def __init__(self, clock: UnitClock):
        self._clock = clock

    def __enter__(self):
        self._t0 = perf_counter()

    def __exit__(self, *exc):
        self._clock.record(perf_counter() - self._t0)


class NullTracer:
    """Tracing off: the api is the library itself; only units are timed."""

    def __init__(self):
        self.clock = UnitClock()

    def api(self) -> SimpleNamespace:
        return SimpleNamespace(**{name: fn for _, name, fn in layer_functions()})

    def unit(self, kind: str):
        return _TimedUnit(self.clock)

    def root(self, name: str):
        return nullcontext()


class Tracer:
    """Spans around every api call, nested under unit spans (one per member,
    pair or identity check) and root spans (set-up and the timed pass)."""

    def __init__(self):
        from ggpart.errors import GGError

        self._error_type = GGError
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.outcome = array("b")
        self.members: dict[str, int] = {}
        self.clock = UnitClock()
        self._open = -1  # innermost open span
        self._item = -1  # id of the open unit

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _append(self, nid: int, t0: float, t1: float, outcome: int) -> int:
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(self._open)
        self.item.append(self._item)
        self.outcome.append(outcome)
        return len(self.name) - 1

    @contextmanager
    def _span(self, name: str, is_item: bool):
        idx = self._append(self._intern(name), perf_counter(), 0.0, MISS)
        outer_open, outer_item = self._open, self._item
        self._open = idx
        if is_item:
            self._item = idx
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self._open, self._item = outer_open, outer_item
            if is_item:
                self.clock.record(self.end[idx] - self.start[idx])

    def root(self, name: str):
        return self._span(f"bench.{name}", False)

    def unit(self, kind: str):
        return self._span(f"bench.{kind}", True)

    def api(self) -> SimpleNamespace:
        return SimpleNamespace(
            **{name: self._wrap(layer, name, fn) for layer, name, fn in layer_functions()}
        )

    def _wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        nid = self._intern(qual)
        append, error_type = self._append, self._error_type
        members = self.members if layer == "membership" else None

        def traced(*args):
            t0 = perf_counter()
            try:
                out = fn(*args)
            except error_type:
                append(nid, t0, perf_counter(), ERROR)
                raise
            append(nid, t0, perf_counter(), MISS if out is None else HIT)
            if members is not None:
                members[qual] = members.get(qual, 0) + len(out)
            return out

        traced.__name__ = name
        return traced

    # -- read-out ------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, hits, errors, total seconds, seconds spent
        inside the timed pass and, for maps, every duration in ns."""
        root = self.name.index(self._name_ids["bench.pass"])
        pass_t0, pass_t1 = self.start[root], self.end[root]
        out: dict[str, dict] = {}
        layer_names = {f"{layer}.{n}" for layer, names in LAYERS.items() for n in names}
        for i, nid in enumerate(self.name):
            qual = self.names[nid]
            if qual not in layer_names:
                continue
            rec = out.get(qual)
            if rec is None:
                rec = out[qual] = {"calls": 0, "hits": 0, "errors": 0, "total_s": 0.0, "pass_s": 0.0}
                if qual.startswith("maps."):
                    rec["durations_ns"] = []
            dt = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_s"] += dt
            oc = self.outcome[i]
            if oc == HIT:
                rec["hits"] += 1
            elif oc == ERROR:
                rec["errors"] += 1
            if pass_t0 <= self.start[i] <= pass_t1:
                rec["pass_s"] += dt
            if "durations_ns" in rec:
                rec["durations_ns"].append(round(dt * 1e9))
        for qual, n in self.members.items():
            out[qual]["members"] = n
        return out

    def write(self, path) -> None:
        """Every span as CSV: times in microseconds from the first span."""
        origin = self.start[0] if self.start else 0.0
        names = self.names
        with open(path, "w") as fh:
            fh.write("span,name,start_us,end_us,parent,item,outcome\n")
            for i, nid in enumerate(self.name):
                fh.write(
                    f"{i},{names[nid]},{(self.start[i] - origin) * 1e6:.3f},"
                    f"{(self.end[i] - origin) * 1e6:.3f},{self.parent[i]},"
                    f"{self.item[i]},{self.outcome[i]}\n"
                )
