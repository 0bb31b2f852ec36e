"""Simulator hot-path benchmark: optimized loop vs the frozen seed loop.

Times ``repro.sim.simulate`` against ``repro.sim.reference_simulate``
on the five Figure 13 applications at two chip sizes, and writes the
results to ``BENCH_sim.json`` at the repository root (events/sec, wall
time, peak event-heap occupancy, speedups).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_sim_hotpath.py -q

Timing methodology: the application is compiled *once* outside the
timed region; each loop is then timed best-of-``ROUNDS`` around the
``simulate`` call alone with ``time.perf_counter``.  Best-of (not mean)
because scheduler noise is strictly additive.  An acceptance bar is
asserted on the headline entry (the Figure 1 image pipeline, suite key
``5``, at the 64-processor chip) so regressions fail CI's benchmark job
rather than silently shipping: the event loop must beat the seed loop
by ``HEADLINE_MIN_SPEEDUP``.  The ``telemetry`` entry times what
collecting telemetry costs, and the ``content`` entry what a run that
asks for no content (``simulate(..., content=())``, every sweep job)
saves.

See ``docs/performance.md`` for what the loop does and
``tests/test_sim_conformance.py`` / ``tests/test_sim_differential.py``
for the proof that it and the seed loop are observably identical.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time
from functools import lru_cache

import pytest

from repro.apps.suite import BENCHMARK_PROCESSOR
from repro.apps.suite import benchmark as suite_benchmark
from repro.machine import ManyCoreChip, ProcessorSpec
from repro.sim import SimulationOptions, reference_simulate, simulate
from repro.transform import CompileOptions, compile_application

from conftest import once

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sim.json"

#: The five Figure 13 applications.
APP_KEYS = ("1", "2", "3", "4", "5")

#: Two chip sizes: the paper's 64-element Ambric-class array of
#: benchmark tiles, and a 256-element mesh of larger tiles (more local
#: store shifts the compiler away from buffer splits, so the second
#: size exercises a different compiled shape, not just more room).
CHIPS = {
    "64": ManyCoreChip(cols=8, rows=8, processor=BENCHMARK_PROCESSOR),
    "256": ManyCoreChip(
        cols=16, rows=16,
        processor=ProcessorSpec(clock_hz=20e6, memory_words=2048),
    ),
}

#: Timed repetitions per loop; best-of is reported.  Five rounds, not
#: three: the headline entries assert ratio bars, and a single noisy
#: round on the wrong side of the ratio shifts it by ±25% on a shared
#: runner.  Noise is additive, so more rounds only tightens the best.
ROUNDS = 5

#: The acceptance bars on the headline entry (app "5" on the 64-PE chip).
HEADLINE = ("5", "64")
HEADLINE_MIN_SPEEDUP = 2.0

#: Telemetry-on wall time may cost at most this factor over telemetry-off
#: (measured ~1.7x on the headline entry since the collector binds its
#: metric handles once and records rows; 3.2x before).  The ceiling
#: leaves CI headroom; ``scripts/bench_gate.py`` additionally fails a
#: > 15% rise over the committed ``telemetry.overhead``.
TELEMETRY_MAX_OVERHEAD = 2.5

#: A run nobody reads the pixels of (``content=()``: what every sweep
#: job and verdict-only CLI command asks for) may cost at most this
#: fraction of the full run's wall (measured 0.57-0.63 on the headline
#: entry: the compute bodies are gone, and the buffers and insets run
#: only their positional bodies, so what is left is the event loop;
#: 0.68-0.70 while the buffers still stored and copied).
#: ``scripts/bench_gate.py`` additionally fails a > 15% rise over the
#: committed ``content.ratio``.
CONTENT_MAX_RATIO = 0.75

_entries: list[dict] = []
_telemetry_entry: dict = {}
_content_entry: dict = {}


@lru_cache(maxsize=None)
def _compiled(key: str, chip_name: str):
    bench = suite_benchmark(key)
    chip = CHIPS[chip_name]
    compiled = compile_application(
        bench.application(), chip.processor, CompileOptions(mapping="greedy")
    )
    return bench, compiled


def _best_of(fn, rounds: int = ROUNDS):
    """Best-of-``rounds`` wall time for a single callable."""
    (best,), (result,) = _best_of_each([fn], rounds)
    return best, result


def _best_of_each(fns, rounds: int = ROUNDS):
    """Best-of-``rounds`` wall time for each callable, rounds interleaved.

    Two methodology points, both about keeping the *ratios* honest:

    * Rounds are interleaved (engine A, engine B, ..., repeat), not
      blocked per engine.  Load bursts on a shared runner are
      time-correlated; timing one engine's rounds back-to-back lets a
      burst land entirely on one side of a speedup ratio and swing it
      by ±25%.  Interleaving gives every engine a shot at each quiet
      window, so best-of converges to the same conditions for all.
    * ``gc.collect()`` runs before every timed region.  Earlier tests in
      the same process leave thousands of live objects (cached compiled
      apps, prior results); a generational collection triggered by
      *their* garbage landing inside one engine's region but not
      another's can skew a single entry by 4-5x.  The GC stays enabled —
      its steady-state cost is part of each engine's real performance.
    """
    bests = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            gc.collect()
            started = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - started
            if elapsed < bests[i]:
                bests[i], results[i] = elapsed, out
    return bests, results


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json():
    """Collect every entry, then publish BENCH_sim.json once."""
    yield
    if not _entries:
        return
    payload = {
        "suite": "sim_hotpath",
        "rounds": ROUNDS,
        "headline": {
            "app": HEADLINE[0],
            "chip": HEADLINE[1],
            "min_speedup": HEADLINE_MIN_SPEEDUP,
        },
        "entries": _entries,
    }
    if _telemetry_entry:
        payload["telemetry"] = _telemetry_entry
    if _content_entry:
        payload["content"] = _content_entry
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.parametrize("chip_name", list(CHIPS))
@pytest.mark.parametrize("key", APP_KEYS)
def test_sim_hotpath(benchmark, key, chip_name):
    bench, compiled = _compiled(key, chip_name)
    chip = CHIPS[chip_name]
    assert compiled.processor_count <= chip.tile_count, (
        f"app {key} needs {compiled.processor_count} PEs; "
        f"chip has {chip.tile_count}"
    )

    options = SimulationOptions(frames=bench.frames)
    (opt_wall, ref_wall), (opt, ref) = _best_of_each([
        lambda: simulate(compiled, options),
        lambda: reference_simulate(compiled, options),
    ])
    # Sanity only — full observational identity lives in the
    # conformance and differential suites.
    assert opt.events_processed == ref.events_processed

    once(benchmark, lambda: simulate(compiled, options))

    speedup = ref_wall / opt_wall
    _entries.append({
        "app": key,
        "title": bench.title,
        "chip": {
            "name": chip_name,
            "cols": chip.cols,
            "rows": chip.rows,
            "processors": chip.tile_count,
            "clock_hz": chip.processor.clock_hz,
            "memory_words": chip.processor.memory_words,
        },
        "mapping": "greedy",
        "frames": bench.frames,
        "processors_used": compiled.processor_count,
        "events": opt.events_processed,
        "firings": sum(opt.firings.values()),
        "wall_s": opt_wall,
        "events_per_s": opt.events_processed / opt_wall,
        "peak_heap": opt.peak_heap,
        "reference": {
            "wall_s": ref_wall,
            "events_per_s": ref.events_processed / ref_wall,
            "peak_heap": ref.peak_heap,
        },
        "speedup": speedup,
    })

    if (key, chip_name) == HEADLINE:
        assert speedup >= HEADLINE_MIN_SPEEDUP, (
            f"hot path regressed: {speedup:.2f}x < "
            f"{HEADLINE_MIN_SPEEDUP}x on the Figure 1 pipeline"
        )


def test_telemetry_overhead(benchmark):
    """Telemetry off must not move the hot path; on must stay bounded.

    Off-mode zero cost is structural — the loop carries a single
    precomputed ``None`` local, the exact seam the fault injector uses —
    and is held two ways: the headline 2x-vs-seed assertion above runs
    with telemetry off, and this test asserts the off-mode run matches
    the default-options run event for event.  On-mode is allowed to cost
    real time (it records a row per observable and updates the metrics)
    but the factor is pinned so a hook that quietly grows stays visible
    in CI.
    """
    bench, compiled = _compiled(*HEADLINE)

    default_opts = SimulationOptions(frames=bench.frames)
    off_opts = SimulationOptions(frames=bench.frames, telemetry=False)
    on_opts = SimulationOptions(frames=bench.frames, telemetry=True)

    # telemetry=False normalizes to the None (default) configuration:
    # identical options object, identical code path, zero overhead.
    assert off_opts == default_opts

    (off_wall, on_wall), (off, on) = _best_of_each([
        lambda: simulate(compiled, off_opts),
        lambda: simulate(compiled, on_opts),
    ])

    # Telemetry is purely observational: the simulated schedule, the
    # event count, and every output are unchanged by collection.
    assert on.events_processed == off.events_processed
    assert on.makespan_s == off.makespan_s
    assert off.telemetry is None and on.telemetry is not None

    once(benchmark, lambda: simulate(compiled, on_opts))

    overhead = on_wall / off_wall
    _telemetry_entry.update({
        "app": HEADLINE[0],
        "chip": HEADLINE[1],
        "frames": bench.frames,
        "events": on.events_processed,
        "spans": sum(on.telemetry.span_counts().values()),
        "off_wall_s": off_wall,
        "on_wall_s": on_wall,
        "overhead": overhead,
        "max_overhead": TELEMETRY_MAX_OVERHEAD,
    })
    assert overhead <= TELEMETRY_MAX_OVERHEAD, (
        f"telemetry collection costs {overhead:.2f}x > "
        f"{TELEMETRY_MAX_OVERHEAD}x the telemetry-off run"
    )


def test_content_ratio(benchmark):
    """What not computing unread pixels buys, as a same-process ratio.

    ``content=()`` is how ``repro.explore.executor.measure`` — every
    sweep job, ``repro serve`` and the verdict-only CLI commands — calls
    ``simulate``: kernels whose values nothing times emit stand-ins at
    their declared cost, and buffers and insets nobody reads run only
    their positional bodies.  The two runs are the same schedule event for
    event (the differential harness proves the whole timing plane
    equal); the no-content one must stay well under the full one.
    """
    bench, compiled = _compiled(*HEADLINE)
    options = SimulationOptions(frames=bench.frames)
    (on_wall, off_wall), (on, off) = _best_of_each([
        lambda: simulate(compiled, options),
        lambda: simulate(compiled, options, content=()),
    ])
    assert off.events_processed == on.events_processed
    assert off.makespan_s == on.makespan_s
    assert off.firings == on.firings
    assert set(on.outputs) == set(on.output_times) and off.outputs == {}

    once(benchmark, lambda: simulate(compiled, options, content=()))

    ratio = off_wall / on_wall
    _content_entry.update({
        "app": HEADLINE[0],
        "chip": HEADLINE[1],
        "frames": bench.frames,
        "events": off.events_processed,
        "on_wall_s": on_wall,
        "off_wall_s": off_wall,
        "ratio": ratio,
        "max_ratio": CONTENT_MAX_RATIO,
    })
    assert ratio <= CONTENT_MAX_RATIO, (
        f"a run that asks for no content costs {ratio:.2f}x > "
        f"{CONTENT_MAX_RATIO}x the run that computes every pixel"
    )
