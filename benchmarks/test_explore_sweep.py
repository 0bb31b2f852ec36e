"""EXT — the Figure 11 grid as a parallel, cached design-space sweep.

Runs the Figure 11 size/rate grid (both mappings) through the
``repro.explore`` engine in worker processes, then re-runs it against the
cache.  Asserts the engine-level guarantees at figure scale: every point
gets exactly one terminal record, the re-run is answered entirely from
cache, and the aggregate report reproduces Figure 11's shape (the
greedy-mapped grid meets real time everywhere, faster rates need more
processors).
"""

import timeit

from conftest import once

from repro.explore import ResultCache, SweepSpec, run_sweep, SweepOptions
from repro.faults import FaultSpec

SPEC = {
    "name": "fig11_sweep",
    "app": "image_pipeline",
    "axes": {
        "width": [24, 48],
        "rate_hz": [100.0, 400.0],
        "mapping": ["greedy", "1:1"],
    },
    "fixed": {"height": 16, "clock_mhz": 20, "memory_words": 512},
    "frames": 3,
    "timeout_s": 120,
}


def test_explore_sweep_engine(benchmark, tmp_path):
    jobs = SweepSpec.from_dict(SPEC).jobs()
    cache = ResultCache(tmp_path / "cache")
    options = SweepOptions(workers=2, retries=1)

    first = once(benchmark, lambda: run_sweep(
        jobs, cache=cache, options=options,
    ))
    assert len(first.records) == len(jobs) == 8
    assert first.failed == 0 and first.cache_hits == 0

    # Greedy-mapped points all meet real time (Figure 11); faster rates
    # never need fewer processors at equal size.
    by_label = {r["label"]: r["stats"] for r in first.records}
    for label, stats in by_label.items():
        if "mapping=greedy" in label:
            assert stats["meets"], label
    for width in (24, 48):
        slow = by_label["image_pipeline(height=16, rate_hz=100.0, "
                        f"width={width}, clock_mhz=20, memory_words=512, "
                        "mapping=greedy)"]
        fast = by_label["image_pipeline(height=16, rate_hz=400.0, "
                        f"width={width}, clock_mhz=20, memory_words=512, "
                        "mapping=greedy)"]
        assert fast["processor_count"] >= slow["processor_count"]

    second = run_sweep(jobs, cache=cache, options=options)
    assert second.cache_hits == len(jobs)
    assert second.succeeded == len(jobs)

    report = second.report()
    frontier = report.frontier()
    assert frontier, "no design point met real time"
    print()
    print(f"EXPLORE sweep: {len(jobs)} points, re-run "
          f"{second.cache_hits}/{len(jobs)} cached "
          f"in {second.elapsed_s:.2f}s")
    print(report.describe())

    # What the typed record loader costs where a sweep pays it: spec
    # load + expansion per job (every value checked once per spec), and
    # a fault scenario's load + canonical JSON (once per fault job).
    # Reported in docs/performance.md, not gated.
    scenario = {"seed": 3, "transient": {"probability": 0.02},
                "recovery": {"max_retries": 3, "backoff_cycles": 8}}
    expand_s = min(timeit.repeat(
        lambda: SweepSpec.from_dict(SPEC).jobs(), number=200, repeat=5))
    fault_s = min(timeit.repeat(
        lambda: FaultSpec.from_dict(scenario).canonical_json(),
        number=2000, repeat=5))
    print(f"expand_us_per_job {expand_s / 200 / len(jobs) * 1e6:.1f}  "
          f"fault_spec_load_us {fault_s / 2000 * 1e6:.1f}")
