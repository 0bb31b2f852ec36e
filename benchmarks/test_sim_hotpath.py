"""Simulator hot-path benchmark: optimized loop vs the frozen seed loop.

Times ``repro.sim.simulate`` (interpreted *and* quasi-static replay,
``SimulationOptions(replay=True)``, with and without batched period
execution) against ``repro.sim.reference_simulate`` on the five
Figure 13 applications at two chip sizes, and writes the results to
``BENCH_sim.json`` at the repository root (events/sec, wall time, peak
event-heap occupancy, speedups, replay engagement, batch coverage).
Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_sim_hotpath.py -q

Timing methodology: the application is compiled *once* outside the
timed region; each loop is then timed best-of-``ROUNDS`` around the
``simulate`` call alone with ``time.perf_counter``.  Best-of (not mean)
because scheduler noise is strictly additive.  Two acceptance bars are
asserted on the headline entry (the Figure 1 image pipeline, suite key
``5``, at the 64-processor chip) so regressions fail CI's benchmark job
rather than silently shipping: the interpreted loop must beat the seed
loop by ``HEADLINE_MIN_SPEEDUP``, and the replay engine must beat it by
``REPLAY_MIN_SPEEDUP`` while actually engaging (a replay engine that
silently never locks a period would otherwise "pass" at interpreted
speed).  Kernel execution — these runs ask for every output's content,
so every pixel is computed — is about half the replay-mode wall time,
which is what bounds the replay bar well below the event-dispatch
savings alone; the ``content`` entry times what a run that asks for no
content (``simulate(..., content=())``, every sweep job) saves.

See ``docs/performance.md`` for what each engine changes and
``tests/test_sim_conformance.py`` / ``tests/test_sim_differential.py``
for the proof that all three are observably identical.
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
#: three: the headline entries assert ratio floors, and a single noisy
#: round on the wrong side of the ratio shifts it by ±25% on a shared
#: runner.  Noise is additive, so more rounds only tightens the best.
ROUNDS = 5

#: The acceptance bars on the headline entry (app "5" on the 64-PE chip).
HEADLINE = ("5", "64")
HEADLINE_MIN_SPEEDUP = 2.0

#: Replay's own headline runs the same app at a longer horizon
#: (steady state: the detector's warmup — interpreted events spent
#: finding the period — is amortized away, and the longer timed region
#: shrinks relative scheduler noise).  Three bars, together raising the
#: effective hot-path floor above the interpreted loop's 2x:
#: replay must keep the 2x-vs-seed win, must not lose to the
#: interpreted loop it was compiled from (measured 0.94-1.02x; ratios
#: between the two in-process engines are stable where ratios against
#: the seed loop swing ±25% with runner load), and must demonstrably
#: engage (measured ~71% of events replayed at this horizon — an
#: engine that never locks a period would otherwise "pass" at
#: interpreted speed).  Kernel execution — every pixel, since these
#: runs ask for all content — is about half the replay-mode wall time,
#: which is what Amdahl-bounds the vs-seed ratio near 2.4x rather than
#: the dispatch-only savings.
HEADLINE_FRAMES = 12
REPLAY_MIN_SPEEDUP = 2.0
REPLAY_VS_INTERPRETED_MAX = 1.05
REPLAY_MIN_ENGAGEMENT = 0.60

#: Batched quasi-static execution (``repro.sim.batch``) bars, same
#: methodology as the replay bars: the vs-seed ratio swings ±25% with
#: runner load, so the *defended* floor is the stable in-process ratio —
#: the batched walk must beat the per-firing walk it specializes
#: (measured ~0.83x wall) — plus a coverage floor proving the batch
#: compiler still vectorizes the bulk of the period (measured ~86% of
#: replayed firings batched; an executor that silently fell back to
#: scalar would otherwise "pass" at no-batch speed).  The vs-seed floor
#: is kept above the replay bar so the batch win registers against the
#: frozen loop too (measured 2.7-3.4x best-of on a loaded runner;
#: interpreted demotion gaps Amdahl-bound it well below the
#: batched-region savings).
BATCH_MIN_SPEEDUP = 2.4
BATCH_VS_NOBATCH_MAX = 0.95
BATCH_MIN_COVERAGE = 0.50

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
_replay_headline: dict = {}
_batch_headline: dict = {}


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
    if _replay_headline:
        payload["replay_headline"] = _replay_headline
    if _batch_headline:
        payload["batch_headline"] = _batch_headline
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
    replay_options = SimulationOptions(frames=bench.frames, replay=True)
    (opt_wall, rep_wall, ref_wall), (opt, rep, ref) = _best_of_each([
        lambda: simulate(compiled, options),
        lambda: simulate(compiled, replay_options),
        lambda: reference_simulate(compiled, options),
    ])
    # Sanity only — full observational identity lives in the
    # conformance and differential suites.
    assert opt.events_processed == ref.events_processed
    assert rep.events_processed == ref.events_processed
    rstats = rep.replay
    assert rstats is not None and rstats.eligible

    once(benchmark, lambda: simulate(compiled, options))

    speedup = ref_wall / opt_wall
    replay_speedup = ref_wall / rep_wall
    engagement = rstats.events_replayed / max(1, rep.events_processed)
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
        "replay": {
            "wall_s": rep_wall,
            "events_per_s": rep.events_processed / rep_wall,
            "speedup": replay_speedup,
            "engaged": rstats.engaged,
            "engagement": engagement,
            "events_replayed": rstats.events_replayed,
            "periods_compiled": rstats.periods_compiled,
            "periods_replayed": rstats.periods_replayed,
            "period_firings": rstats.period_firings,
            "demotions": dict(rstats.demotions),
        },
    })

    if (key, chip_name) == HEADLINE:
        assert speedup >= HEADLINE_MIN_SPEEDUP, (
            f"hot path regressed: {speedup:.2f}x < "
            f"{HEADLINE_MIN_SPEEDUP}x on the Figure 1 pipeline"
        )


def test_replay_headline_steady_state(benchmark):
    """The raised hot-path bar: quasi-static replay at steady state.

    Runs the Figure 1 pipeline (app "5", 64-PE chip) for
    ``HEADLINE_FRAMES`` frames — long enough that the detector's warmup
    is amortized — and asserts the replay engine (a) keeps the 2x win
    over the frozen seed loop, (b) is at least as fast as the
    interpreted hot path it demotes to, and (c) replays a majority of
    all events.  See the bar constants above for why the vs-interpreted
    ratio, not a bigger vs-seed multiple, is the stable raised floor.
    """
    bench, compiled = _compiled(*HEADLINE)
    options = SimulationOptions(frames=HEADLINE_FRAMES)
    replay_options = SimulationOptions(frames=HEADLINE_FRAMES, replay=True)
    (opt_wall, rep_wall, ref_wall), (opt, rep, ref) = _best_of_each([
        lambda: simulate(compiled, options),
        lambda: simulate(compiled, replay_options),
        lambda: reference_simulate(compiled, options),
    ])
    assert rep.events_processed == opt.events_processed == ref.events_processed
    rstats = rep.replay
    assert rstats is not None and rstats.eligible

    once(benchmark, lambda: simulate(compiled, replay_options))

    replay_speedup = ref_wall / rep_wall
    vs_interpreted = rep_wall / opt_wall
    engagement = rstats.events_replayed / max(1, rep.events_processed)
    _replay_headline.update({
        "app": HEADLINE[0],
        "chip": HEADLINE[1],
        "frames": HEADLINE_FRAMES,
        "events": rep.events_processed,
        "wall_s": rep_wall,
        "interpreted_wall_s": opt_wall,
        "reference_wall_s": ref_wall,
        "speedup": replay_speedup,
        "vs_interpreted": vs_interpreted,
        "engagement": engagement,
        "periods_replayed": rstats.periods_replayed,
        "period_firings": rstats.period_firings,
        "demotions": dict(rstats.demotions),
        "bars": {
            "min_speedup": REPLAY_MIN_SPEEDUP,
            "vs_interpreted_max": REPLAY_VS_INTERPRETED_MAX,
            "min_engagement": REPLAY_MIN_ENGAGEMENT,
        },
    })
    assert replay_speedup >= REPLAY_MIN_SPEEDUP, (
        f"replay engine regressed: {replay_speedup:.2f}x < "
        f"{REPLAY_MIN_SPEEDUP}x vs the seed loop on the Figure 1 pipeline"
    )
    assert vs_interpreted <= REPLAY_VS_INTERPRETED_MAX, (
        f"replay lost to the interpreted loop it was compiled from: "
        f"{vs_interpreted:.3f}x wall (> {REPLAY_VS_INTERPRETED_MAX}x); "
        f"stats: {rstats.as_dict()}"
    )
    assert rstats.engaged and engagement >= REPLAY_MIN_ENGAGEMENT, (
        f"replay engagement collapsed on the headline entry: "
        f"{engagement:.0%} of events replayed "
        f"(< {REPLAY_MIN_ENGAGEMENT:.0%}); stats: {rstats.as_dict()}"
    )


def test_batch_headline_steady_state(benchmark):
    """Batched quasi-static execution vs the per-firing walk and the seed.

    Runs the Figure 1 pipeline (app "5", 64-PE chip) for
    ``HEADLINE_FRAMES`` frames under three engines — replay with batched
    execution (the default), replay with ``batch=False`` (the
    per-firing walk the batch executor specializes), and the frozen
    seed loop — and asserts the three bars documented at
    ``BATCH_MIN_SPEEDUP`` above.  The byte-identity of the three runs is
    proven by the conformance and differential suites; here only a
    cheap event-count cross-check plus the strategy-ledger invariant
    (batched + scalar firings exactly cover the no-batch run's scalar
    count) guard against benchmarking two different schedules.
    """
    bench, compiled = _compiled(*HEADLINE)
    options = SimulationOptions(frames=HEADLINE_FRAMES)
    batch_options = SimulationOptions(frames=HEADLINE_FRAMES, replay=True)
    scalar_options = SimulationOptions(
        frames=HEADLINE_FRAMES, replay=True, batch=False
    )
    (bat_wall, sca_wall, ref_wall), (bat, sca, ref) = _best_of_each([
        lambda: simulate(compiled, batch_options),
        lambda: simulate(compiled, scalar_options),
        lambda: reference_simulate(compiled, options),
    ])
    assert bat.events_processed == sca.events_processed == ref.events_processed
    bstats = bat.replay
    sstats = sca.replay
    assert bstats is not None and bstats.eligible and bstats.engaged
    assert sstats.firings_batched == 0
    assert bstats.firings_batched > 0, (
        f"batched executor never engaged on the headline entry: "
        f"{bstats.as_dict()}"
    )
    assert (bstats.firings_batched + bstats.firings_scalar
            == sstats.firings_scalar), (
        f"strategy ledger mismatch: {bstats.as_dict()} vs {sstats.as_dict()}"
    )

    once(benchmark, lambda: simulate(compiled, batch_options))

    speedup = ref_wall / bat_wall
    vs_nobatch = bat_wall / sca_wall
    walked = bstats.firings_batched + bstats.firings_scalar
    coverage = bstats.firings_batched / walked
    _batch_headline.update({
        "app": HEADLINE[0],
        "chip": HEADLINE[1],
        "frames": HEADLINE_FRAMES,
        "events": bat.events_processed,
        "wall_s": bat_wall,
        "nobatch_wall_s": sca_wall,
        "reference_wall_s": ref_wall,
        "speedup": speedup,
        "vs_nobatch": vs_nobatch,
        "firings_batched": bstats.firings_batched,
        "firings_scalar": bstats.firings_scalar,
        "coverage": coverage,
        "batched_kernels": list(bstats.batched_kernels),
        "bars": {
            "min_speedup": BATCH_MIN_SPEEDUP,
            "vs_nobatch_max": BATCH_VS_NOBATCH_MAX,
            "min_coverage": BATCH_MIN_COVERAGE,
        },
    })
    assert speedup >= BATCH_MIN_SPEEDUP, (
        f"batched replay regressed: {speedup:.2f}x < {BATCH_MIN_SPEEDUP}x "
        f"vs the seed loop on the Figure 1 pipeline"
    )
    assert vs_nobatch <= BATCH_VS_NOBATCH_MAX, (
        f"batched execution lost to the per-firing walk it specializes: "
        f"{vs_nobatch:.3f}x wall (> {BATCH_VS_NOBATCH_MAX}x); "
        f"stats: {bstats.as_dict()}"
    )
    assert coverage >= BATCH_MIN_COVERAGE, (
        f"batch coverage collapsed: {coverage:.0%} of replayed firings "
        f"batched (< {BATCH_MIN_COVERAGE:.0%}); stats: {bstats.as_dict()}"
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
