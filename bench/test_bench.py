"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py

Checks that every workload passes its own checks, that a wrong answer or a
GGError is counted as a failed item without cutting the pass short, that the
exhaustive roundtrip sweep reproduces the counts `ggpart roundtrip` prints,
and that the benchmark's metric names match BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ggpart import cli  # noqa: E402
from ggpart.errors import MissingEntryError  # noqa: E402
from ggpart.series import TruncatedSeries  # noqa: E402


def _tiny(name, api=None, tracer=None, seed=7, sizes=None):
    tracer = tracer or spans.NullTracer()
    return workloads.run_pass(name, seed, sizes or workloads.TINY[name], api or tracer.api(), tracer)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks_traced_and_untraced(name):
    untraced = spans.NullTracer()
    _, plain, _, _ = _tiny(name, tracer=untraced)
    tracer = spans.Tracer()
    _, traced, _, _ = _tiny(name, tracer=tracer)
    assert plain.attempted > 0 and plain.failed == 0, plain.failures
    assert (traced.attempted, traced.failed, traced.by_kind) == (plain.attempted, 0, plain.by_kind)
    assert tracer.clock.units == untraced.clock.units > 0 and untraced.clock.ref_s
    assert sum(untraced.clock.stretch_s) == pytest.approx(untraced.clock.work_s)
    summary = tracer.summary()
    assert summary and all(rec["calls"] > 0 and rec["errors"] == 0 for rec in summary.values())


def _with(api, **overrides):
    return SimpleNamespace(**{**vars(api), **overrides})


def _off_by_one(fn):
    def wrong(params, qmax):
        good = fn(params, qmax)
        return TruncatedSeries([c + (n == 3) for n, c in enumerate(good.coeffs)], qmax)

    return wrong


def _raises(*args):
    raise MissingEntryError("injected")


def _injections():
    api = spans.NullTracer().api()
    return {
        "roundtrip": [
            _with(api, dilate=_raises),
            _with(api, psi_global=lambda mp: (api.psi_global(mp)[0], (1,))),
        ],
        "classify_scan": [_with(api, find_pt_lt=lambda *a: None)],
        "identity_enum": [_with(api, bressoud_product=_off_by_one(api.bressoud_product))],
        "series_deep": [
            _with(api, bressoud_product=_off_by_one(api.bressoud_product)),
            _with(api, bressoud_multisum=_raises),
        ],
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_injected_wrong_answer_counts_as_failure(name):
    _, clean, _, _ = _tiny(name)
    for api in _injections()[name]:
        _, tally, _, _ = _tiny(name, api=api)
        assert tally.failed > 0
        assert tally.attempted == clean.attempted
        assert tally.failures


def test_exhaustive_roundtrip_reproduces_cli_counts(capsys):
    sizes = {"kr_sets": ((3, 3),), "max_weight": 20, "per_weight": None, "global_weight": 20}
    _, tally, _, _ = _tiny("roundtrip", sizes=sizes)
    assert tally.failed == 0
    assert tally.by_kind == {"lt": 341, "eq": 341, "global": 405}
    assert cli.main(["roundtrip", "-k", "3", "-r", "3", "--max-weight", "20"]) == 0
    printed = capsys.readouterr().out
    assert f"phi(psi) round-trips checked={tally.by_kind['eq']}" in printed
    assert f"psi(phi) round-trips checked={tally.by_kind['lt']}" in printed
    assert f"global round-trips checked={tally.by_kind['global']} failures=0" in printed


def test_seed_changes_members_not_weight_mix():
    api = spans.NullTracer().api()
    sizes = workloads.TINY["classify_scan"]
    a, b, c = (workloads.setup_classify_scan(api, seed, **sizes) for seed in (1, 1, 2))
    assert a["digest"] == b["digest"] != c["digest"]
    assert a["record"]["per_weight_counts"] == c["record"]["per_weight_counts"]


def test_host_scaling_cancels_a_slowdown():
    quiet = {"attempted": 100, "stretch_s": [0.5, 0.5, 1.0], "ref_s": [0.002, 0.002], "setup_s": 0.5}
    slow = {**quiet, "stretch_s": [0.75, 0.75, 1.5], "ref_s": [0.003, 0.003], "setup_s": 0.75}
    assert run.items_rate(quiet) == pytest.approx(run.items_rate(slow))
    assert quiet["setup_s"] * run.host_scale(quiet) == pytest.approx(slow["setup_s"] * run.host_scale(slow))
    # a pass that slows down half way: each stretch is scaled by its own slices
    steady = {**quiet, "stretch_s": [0.5] * 6, "ref_s": [0.002] * 5}
    slowing = {**quiet, "stretch_s": [0.5] * 3 + [1.5] * 3, "ref_s": [0.002] * 3 + [0.006] * 2}
    assert run.items_rate(slowing) == pytest.approx(run.items_rate(steady))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "items_per_s", "peak_rss_mb"]
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names(spans.LAYERS)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
