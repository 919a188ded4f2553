"""One pass of one workload in a fresh interpreter.

    python3 bench/passrun.py --workload NAME --seed N [--trace] [--spans FILE]

Sets up the workload's inputs, runs every item once and prints one JSON
object: set-up and pass seconds, the seconds spent in the pass's units (one
member, pair or identity check each) with the seconds of the reference slices
run between them (spans.UnitClock), items attempted and failed, peak RSS, an
input digest and, with --trace, the per-function span summary.
run.py starts one of these per pass, so no cache of the library outlives a
pass and each pass pays set-up from a cold interpreter.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before ggpart is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import ggpart  # noqa: E402
from ggpart import debug  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write every span to this CSV file")
    args = ap.parse_args()
    if not Path(ggpart.__file__).resolve().is_relative_to(SRC):
        print(f"error: ggpart imported from {ggpart.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if debug.enabled():
        print("error: ggpart debug checks are on; unset GGPART_DEBUG", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    inputs, tally, ready, pass_s = workloads.run_pass(
        args.workload, args.seed, workloads.SIZES[args.workload], tracer.api(), tracer
    )
    out = {
        "setup_s": ready - T0,
        "pass_s": pass_s,
        "work_s": tracer.clock.work_s,
        "units": tracer.clock.units,
        "ref_s": tracer.clock.ref_s,
        "stretch_s": tracer.clock.stretch_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "by_kind": tally.by_kind,
        "failures": tally.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": inputs["digest"],
        "inputs": inputs["record"],
    }
    if args.trace:
        out["layers"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
