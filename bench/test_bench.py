"""Tests of the benchmark itself (not part of tier-1).

    python -m pytest bench -q

Quick sizes: driver-mode runs measure for one second, in-process checks
run a single round.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as w  # noqa: E402
from run import spawn  # noqa: E402
from harness import OUT_DIR, Goldens, Tracer, load_contract  # noqa: E402
from repro.analysis.schedule import build_static_schedule  # noqa: E402
from repro.apps.suite import BENCHMARK_PROCESSOR  # noqa: E402
from repro.transform import CompileOptions  # noqa: E402

CONTRACT = load_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: In-process workloads (``serve_tenants`` boots a server; the driver-mode
#: test covers it).
LOCAL = ("sim_steady", "sim_observed", "compile_search", "sweep_cold",
         "sweep_warm")


def one_round(name: str, seed: int, goldens: Goldens | None = None):
    workload = w.WORKLOADS[name](seed, Tracer(enabled=False),
                                 goldens or Goldens(),
                                 OUT_DIR / f"test-{name}-{seed}")
    try:
        workload.setup()
        workload.round()
        workload.finish()
    finally:
        workload.teardown()
    return workload


def test_contract_names_and_workloads():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += [x["name"] for x in CONTRACT["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [x["name"] for x in CONTRACT["workloads"]] == list(w.WORKLOADS)
    assert "setup_s" in names


@pytest.mark.parametrize("name", list(w.WORKLOADS))
def test_driver_mode_reports_every_end_to_end_metric(name):
    result = spawn(name, seed=0, seconds=1, trace=0)
    assert {"correct", "attempted", "failed", "metrics"} <= set(result)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [
        m["name"] for m in CONTRACT["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_mode_reports_every_layer_metric_and_repeats_counts():
    first, second = (spawn("compile_search", seed=3, seconds=1, trace=1)
                     for _ in range(2))
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert list(first["metrics"]) == list(declared)
    assert first["metrics"]["transform.compile_ms"]["value"] > 0
    assert first["metrics"]["bench.trace_overhead"]["value"] > 0
    for name, unit in declared.items():
        if unit == "count":
            assert first["metrics"][name] == second["metrics"][name], name
    spans = json.loads(
        (OUT_DIR / "trace-compile_search.json").read_text())["spans"]
    assert {"name", "start", "end", "parent", "request"} <= set(spans[0])
    assert any(s["parent"] is not None for s in spans)


@pytest.mark.parametrize("name", LOCAL)
def test_a_round_is_the_same_work_for_every_seed(name):
    first, again, other = (one_round(name, seed) for seed in (5, 5, 6))
    assert not first.failures and not other.failures
    assert first.attempted == again.attempted == other.attempted
    assert first.counts == again.counts
    assert first.units == again.units


def test_pass_mirror_equals_compile_application():
    tracer = Tracer(enabled=True)
    for key, bench in w.SUITE.items():
        for mapping in w.MAPPINGS:
            real = w.compile_suite_app(key, mapping)
            mirror = w.mirror_compile(
                bench.application(), BENCHMARK_PROCESSOR,
                CompileOptions(mapping=mapping), tracer)
            schedule = build_static_schedule(real)
            assert (w.compile_summary(mirror, schedule)
                    == w.compile_summary(real, schedule))


def test_a_wrong_golden_is_a_failed_request():
    goldens = Goldens()  # a fresh load: edits stay in this object
    goldens.data["compile"]["compile|SS|greedy"]["processors"] += 1
    goldens.data["compile"]["rate|10"]["probes"] += 1
    workload = one_round("compile_search", 0, goldens)
    assert len(workload.failures) == 2
    assert any("compile|SS|greedy" in f for f in workload.failures)
    assert workload.units["compile|SS|greedy"] == 0
