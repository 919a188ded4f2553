"""Benchmark entry point for ggpart.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: roundtrip, classify_scan, identity_enum, series_deep (see
workloads.py for what each checks and why).  Run from the root of a checkout;
the library is imported from its `src/`, with GGPART_DEBUG unset.

Every pass runs in a fresh interpreter (passrun.py), so each pass pays its
own set-up and no library cache carries over from one pass to the next.
Passes repeat until their timed seconds add up to --seconds, and never fewer
than MIN_PASSES.  With --trace 0 the result holds the end-to-end metrics,
each the median over the passes:

    setup_s      fresh interpreter to inputs ready: import ggpart, enumerate,
                 sample, gg_mark the sample
    items_per_s  checked items per second of the pass's units
    peak_rss_mb  peak resident memory of a pass process (ru_maxrss)

Both times are given at a fixed host speed.  Reference slices, a fixed piece
of plain Python, run between the units of a pass (spans.UnitClock); each
stretch of unit time between two slices is scaled by REF_NOMINAL_S over the
median of the three slices around it, and set-up time by REF_NOMINAL_S over
the pass's median slice.  On a shared host the speed at which this
interpreter runs swings by half and more from one minute to the next, and
within a pass; the slices slow down with the units around them, and the
ratio of the two is what the library's code costs.  The raw, unscaled
figures are kept in the run record.  Per-layer times are scaled by the
pass's median slice.

The share of failed items, fail_frac, is `failed` / `attempted` in the result
line.  With --trace 1 untraced and traced passes alternate; the result holds
the per-layer metrics of the traced passes and trace.overhead_frac, which
compares the two kinds.  A summary line and the location of the full run
record (written under bench/results/) precede the JSON result, which is the
last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
MIN_PASSES = 3
REF_NOMINAL_S = 0.005  # a reference slice at the nominal host speed
WALL_LIMIT_S = 120  # start no pass after this
DEADLINE_S = 170  # kill a pass still running then, so a run ends within 180 s

UNITS = {"calls": "count", "members": "count", "errors": "count", "hit_ratio": "ratio",
         "share": "frac", "overhead_frac": "frac", "ms_per_call": "ms"}


def per_layer_names(layers: dict) -> list[str]:
    """Names of the per-layer metrics, in output order."""
    names = ["marking.gg_mark.calls", "marking.gg_mark.us_per_call",
             "membership.enumerate.members", "membership.enumerate.us_per_member"]
    for fn in layers["classify"]:
        names += [f"classify.{fn}.{m}" for m in ("calls", "us_per_call", "hit_ratio")]
    for fn in layers["maps"]:
        names += [f"maps.{fn}.{m}" for m in ("calls", "us_per_call", "p50_us", "p99_us", "errors")]
    names += [f"series.{fn}.ms_per_call" for fn in layers["series"]]
    names += [f"{layer}.share" for layer in layers]
    names.append("trace.overhead_frac")
    return names


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[1], "us")


def _quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _blank() -> dict:
    return {"calls": 0, "hits": 0, "errors": 0, "total_s": 0.0, "pass_s": 0.0, "members": 0,
            "durations_ns": []}


def layer_metrics(layers: dict, traced: list[dict], overhead_frac: float) -> dict:
    """Per-layer figures over the traced passes: counts are per pass, times
    are totals over all traced calls divided by their number, each scaled to
    the nominal host speed like the end-to-end times.  A function the
    workload never calls reads 0."""
    npass = len(traced)
    merged: dict[str, dict] = {}
    for child in traced:
        scale = host_scale(child)
        for qual, rec in child["layers"].items():
            m = merged.setdefault(qual, _blank())
            for key, value in rec.items():
                if key in ("total_s", "pass_s"):
                    value *= scale
                elif key == "durations_ns":
                    value = [d * scale for d in value]
                m[key] += value

    def get(layer, fn):
        return merged.get(f"{layer}.{fn}", _blank())

    def per_call(rec, scale):
        return rec["total_s"] * scale / rec["calls"] if rec["calls"] else 0.0

    out = {}
    mark = get("marking", "gg_mark")
    out["marking.gg_mark.calls"] = mark["calls"] / npass
    out["marking.gg_mark.us_per_call"] = per_call(mark, 1e6)
    enums = [get("membership", fn) for fn in layers["membership"]]
    members = sum(r["members"] for r in enums)
    out["membership.enumerate.members"] = members / npass
    out["membership.enumerate.us_per_member"] = (
        sum(r["total_s"] for r in enums) * 1e6 / members if members else 0.0
    )
    for fn in layers["classify"]:
        rec = get("classify", fn)
        out[f"classify.{fn}.calls"] = rec["calls"] / npass
        out[f"classify.{fn}.us_per_call"] = per_call(rec, 1e6)
        out[f"classify.{fn}.hit_ratio"] = rec["hits"] / rec["calls"] if rec["calls"] else 0.0
    for fn in layers["maps"]:
        rec = get("maps", fn)
        durations = sorted(rec["durations_ns"])
        out[f"maps.{fn}.calls"] = rec["calls"] / npass
        out[f"maps.{fn}.us_per_call"] = per_call(rec, 1e6)
        out[f"maps.{fn}.p50_us"] = _quantile(durations, 0.5) / 1e3 if durations else 0.0
        out[f"maps.{fn}.p99_us"] = _quantile(durations, 0.99) / 1e3 if durations else 0.0
        out[f"maps.{fn}.errors"] = rec["errors"] / npass
    for fn in layers["series"]:
        out[f"series.{fn}.ms_per_call"] = per_call(get("series", fn), 1e3)
    pass_total = sum(child["work_s"] * host_scale(child) for child in traced)
    for layer, fns in layers.items():
        out[f"{layer}.share"] = sum(get(layer, fn)["pass_s"] for fn in fns) / pass_total
    out["trace.overhead_frac"] = overhead_frac
    return out


def host_scale(child: dict) -> float:
    """Factor that takes a pass's seconds to seconds at the nominal host
    speed, from the pass's median reference slice."""
    return REF_NOMINAL_S / statistics.median(child["ref_s"])


def items_rate(child: dict) -> float:
    """Checked items per second of unit time, at the nominal host speed: each
    stretch of unit time is scaled by the slices on either side of it."""
    refs = child["ref_s"] + child["ref_s"][-1:]  # the last stretch has no slice after it
    scaled = sum(
        work * REF_NOMINAL_S / statistics.median(refs[max(0, i - 1):i + 2])
        for i, work in enumerate(child["stretch_s"])
    )
    return child["attempted"] / scaled


def run_record() -> dict:
    """Where and on what the run was made, next to its timings."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "src_lines": src_lines,
        "ggpart_debug": False,
    }


def start_pass(workload: str, seed: int, traced: bool, spans_path, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "passrun.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ggpart" / "__init__.py").is_file():
        print(f"error: no ggpart sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("GGPART_DEBUG", None)
    sys.path.insert(0, str(SRC))
    import ggpart
    from ggpart import debug

    if not Path(ggpart.__file__).resolve().is_relative_to(SRC):
        print(f"error: ggpart imported from {ggpart.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if debug.enabled():
        print("error: ggpart debug checks are on", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    record = run_record()
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}.spans.csv"
    started = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            plain.append(start_pass(args.workload, args.seed, False, None,
                                    started + DEADLINE_S - time.monotonic()))
            if args.trace:
                traced.append(start_pass(args.workload, args.seed, True, None if traced else spans_path,
                                         started + DEADLINE_S - time.monotonic()))
            timed = sum(c["pass_s"] for c in plain)
            enough = timed >= (args.seconds / 2 if args.trace else args.seconds)
            if (enough and len(plain) >= MIN_PASSES) or time.monotonic() - started > WALL_LIMIT_S:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    children = plain + traced
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    same_inputs = len({(c["digest"], json.dumps(c["by_kind"], sort_keys=True), c["units"])
                       for c in children}) == 1
    correct = failed == 0 and same_inputs
    e2e = {
        "setup_s": statistics.median(c["setup_s"] * host_scale(c) for c in plain),
        "items_per_s": statistics.median(items_rate(c) for c in plain),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
    }
    raw = {
        "setup_s": statistics.median(c["setup_s"] for c in plain),
        "items_per_s": statistics.median(c["attempted"] / c["work_s"] for c in plain),
        "ref_s": statistics.median(statistics.median(c["ref_s"]) for c in plain),
    }
    if args.trace:
        traced_rate = statistics.median(items_rate(c) for c in traced)
        values = layer_metrics(spans.LAYERS, traced, 1 - traced_rate / e2e["items_per_s"])
        metrics = {name: {"value": values[name], "unit": unit_of(name)}
                   for name in per_layer_names(spans.LAYERS)}
    else:
        units = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in e2e.items()}

    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "items_per_pass": plain[0]["by_kind"],
        "inputs": plain[0]["inputs"],
        "fail_frac": failed / attempted,
        "failures": [f for c in children for f in c["failures"]][:10],
        "same_inputs_every_pass": same_inputs,
        "end_to_end": e2e,
        "end_to_end_unscaled": raw,
        "per_pass": [{k: c[k] for k in ("setup_s", "pass_s", "work_s", "units", "ref_s", "stretch_s",
                                        "attempted", "failed", "peak_rss_mb")}
                     for c in plain],
        "metrics": metrics,
    })
    if args.trace:
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=list) + "\n")

    print(
        f"{args.workload} seed={args.seed}: {len(plain)} untraced passes"
        f"{f' + {len(traced)} traced' if traced else ''}, medians over the untraced passes; "
        f"items/pass={plain[0]['attempted']} {plain[0]['by_kind']}; "
        f"fail_frac={failed / attempted:.6g} ({failed}/{attempted}); "
        + "; ".join(f"{k}={v:.6g}" for k, v in e2e.items())
        + "; unscaled " + "; ".join(f"{k}={v:.6g}" for k, v in raw.items())
        + f"; record {out_path.relative_to(ROOT)}"
    )
    print(" ".join(f"{k}={record[k]}" for k in ("commit", "python", "nproc", "loadavg_start", "src_lines")))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
