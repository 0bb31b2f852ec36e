"""Randomized differential testing: four ways through a run, one observable.

The conformance suite pins the five Figure 13 applications; this harness
complements it with *generated* programs.  A seed-deterministic fuzzer
builds random linear pipelines from the same kernel palette as
``test_random_pipelines`` and runs each through:

* the frozen seed loop (``repro.sim.reference``),
* the optimized event loop (``repro.sim.simulate``),
* that loop with the quasi-static replay recorder attached
  (``SimulationOptions(replay=True)``), which batches period firings by
  default (``repro.sim.batch``), and
* the same with batching disabled (``batch=False``),

then asserts the four ``SimulationResult.as_dict()`` canonical forms,
makespans, and raw output buffers are identical.  Any divergence the
replay engine's per-op verification fails to catch lands here as a
digest mismatch with the case's generator seed in the message, so a
failure reproduces with ``_build_case(random.Random(seed))``.

The batch axis also pins the execution-strategy ledger: with batching
off every replayed firing is scalar, and the batched run must account
for exactly the same firings (``firings_batched + firings_scalar``
equal to the no-batch run's scalar count) — batching may only change
*how* a planned firing runs, never *whether* it runs.

Two aggregate checks keep the harness honest: if the replay engine
never compiled and replayed a single period across the whole fuzz
corpus the differential proof would be vacuous (replay-on would just be
the event loop twice), and if no corpus case ever batched a firing the
batch axis would be vacuous too.

The *content* axis rides the same corpus: every case re-runs the event
loop, and every fourth one of the two replay ways, with ``content=()``
— nobody reads a pixel, so every compute kernel emits stand-ins — and
must reproduce the full run on everything but the pixel digests,
``ReplayStats`` included; a strided sample grows a second output off a random stage, so
a random subset of the outputs keeps a prefix of the pipeline computing
and leaves the rest dead, under both replay ways, with bounded
channels and with a NoC model under telemetry.

A sample of the same corpus also runs under :mod:`repro.obs` telemetry
(alone, with a NoC model, with seeded faults, and with a span cap):
the collector records flat rows and builds typed spans only on demand,
so the harness holds the two views to each other and to the simulator's
own accounting on programs no fixture pins.

See ``docs/performance.md`` ("Debugging a replay divergence") for how to
use this harness to bisect a divergence to its first mismatched period.
"""

from __future__ import annotations

import collections
import json
import random

import numpy as np
import pytest

from hypothesis import given, settings

from test_random_pipelines import PALETTE, pipelines

from repro.geometry import Size2D, Step2D, iteration_grid
from repro.graph import ApplicationGraph
from repro.kernels import ApplicationOutput, BufferKernel
from repro.faults import FaultSpec
from repro.machine import NocModel, ProcessorSpec, fit_chip, row_major_placement
from repro.obs import span_as_dict, spans_digest
from repro.obs.spans import span_line
from repro.sim import SimulationOptions, reference_simulate, simulate
from repro.transform import CompileOptions, compile_application

#: Fuzzed pipelines per run.  Deterministic: case ``i`` always gets the
#: generator seeded with ``_SEED0 + i``.
N_CASES = 200
_SEED0 = 0xD1FF00

_PROC = ProcessorSpec(clock_hz=50e6, memory_words=2048)


def _build_case(rng: random.Random):
    """One random pipeline plus its simulation horizon (mirrors the
    Hypothesis generator in ``test_random_pipelines``, but driven by
    ``random.Random`` so 200 cases stay fast and re-runnable by seed)."""
    width = rng.randint(8, 20)
    height = rng.randint(8, 16)
    rate = rng.choice([50.0, 200.0, 800.0])
    frames = rng.randint(1, 3)
    n_stages = rng.randint(1, 4)

    app = ApplicationGraph("fuzz")
    src = app.add_input("Input", width, height, rate)
    frame = np.arange(float(width * height)).reshape(height, width)
    src._pattern = frame

    extent = Size2D(width, height)
    prev, prev_port = "Input", "out"
    for i in range(n_stages):
        ctor, window, step = PALETTE[rng.randrange(len(PALETTE))]
        win = Size2D(*window)
        stp = Step2D(*step)
        if not win.fits_in(extent):
            continue
        grid = iteration_grid(extent, win, stp)
        kernel = ctor(i)
        app.add_kernel(kernel)
        app.connect(prev, prev_port, kernel.name, "in")
        prev, prev_port = kernel.name, "out"
        extent = grid
    app.add_kernel(ApplicationOutput("Out", 1, 1))
    app.connect(prev, prev_port, "Out", "in")
    return app, frames


def _canonical(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


def test_differential_reference_fast_replay(monkeypatch):
    engaged = 0
    events_replayed = 0
    firings_batched = 0
    # Firings of a buffer nobody reads (its positional body), per way
    # through a content=() run, and dead buffers the batch walk took.
    dead_stores = collections.Counter()
    dead_batched = 0
    count_windows = BufferKernel.count_windows
    stores = collections.Counter()

    def counted(self):
        stores["dead"] += 1
        return count_windows(self)

    monkeypatch.setattr(BufferKernel, "count_windows", counted)
    for case in range(N_CASES):
        seed = _SEED0 + case
        app, frames = _build_case(random.Random(seed))
        compiled = compile_application(
            app, _PROC, CompileOptions(mapping="greedy")
        )
        opts = SimulationOptions(frames=frames)
        ropts = SimulationOptions(frames=frames, replay=True)
        sopts = SimulationOptions(frames=frames, replay=True, batch=False)

        ref = reference_simulate(compiled, opts)
        fast = simulate(compiled, opts)
        rep = simulate(compiled, ropts)
        scalar = simulate(compiled, sopts)

        cref = _canonical(ref)
        assert _canonical(fast) == cref, (
            f"fast path diverged from reference (case {case}, seed {seed:#x})"
        )
        assert _canonical(rep) == cref, (
            f"replay diverged from reference (case {case}, seed {seed:#x}): "
            f"{rep.replay.as_dict()}"
        )
        assert _canonical(scalar) == cref, (
            f"no-batch replay diverged from reference "
            f"(case {case}, seed {seed:#x}): {scalar.replay.as_dict()}"
        )
        assert (rep.makespan_s == ref.makespan_s == fast.makespan_s
                == scalar.makespan_s)
        for name, chunks in ref.outputs.items():
            got = rep.outputs[name]
            got_scalar = scalar.outputs[name]
            assert len(got) == len(chunks) == len(got_scalar), (
                case, seed, name
            )
            for a, b, c in zip(chunks, got, got_scalar):
                assert np.array_equal(a, b) and np.array_equal(a, c), (
                    f"output buffer mismatch (case {case}, seed {seed:#x}, "
                    f"output {name})"
                )

        # Content axis: with nobody reading the pixels every compute
        # kernel emits stand-ins, and nothing but the digests may move.
        ways = [("fast", fast)]
        if case % 8 == 0:
            ways.append(("replay", rep))
        elif case % 8 == 4:
            ways.append(("no-batch", scalar))
        for way, full in ways:
            before = stores["dead"]
            bare = simulate(compiled, full.options, content=())
            dead_stores[way] += stores["dead"] - before
            where = f"{way}, content=() (case {case}, seed {seed:#x})"
            want = full.as_dict()
            want["outputs"]["Out"]["sha256"] = None
            assert bare.as_dict() == want, where
            assert bare.outputs == {}, where
            if full.replay is not None:
                assert bare.replay.as_dict() == full.replay.as_dict(), where
                dead_batched += sum(
                    isinstance(compiled.graph.kernels[name], BufferKernel)
                    for name in bare.replay.batched_kernels)

        stats = rep.replay
        assert stats is not None and stats.eligible
        # Batching changes *how* planned firings execute, never *whether*:
        # the batched run's strategy ledger must cover exactly the firings
        # the no-batch run executed (all scalar there, by construction).
        sstats = scalar.replay
        assert sstats.firings_batched == 0, (case, seed)
        assert (stats.firings_batched + stats.firings_scalar
                == sstats.firings_scalar), (
            f"strategy ledger mismatch (case {case}, seed {seed:#x}): "
            f"batched {stats.firings_batched} + scalar "
            f"{stats.firings_scalar} != no-batch {sstats.firings_scalar}"
        )
        if stats.engaged:
            engaged += 1
            events_replayed += stats.events_replayed
        firings_batched += stats.firings_batched

    # Non-vacuity: the corpus must actually exercise the replay executor
    # (measured: 185/200 cases engage, ~38% of all events replayed).
    assert engaged >= 50, (
        f"only {engaged}/{N_CASES} fuzzed pipelines engaged replay — "
        "the differential proof is near-vacuous; retune the generator"
    )
    assert events_replayed > 0
    # ... and the batched executor (measured: tens of thousands of
    # batched firings across the corpus).
    assert firings_batched > 0, (
        "no fuzzed pipeline batched a single firing — the batch axis of "
        "the differential proof is vacuous; retune the generator"
    )
    # ... and the content axis covers a buffer nobody reads under the
    # interpreted loop and both replay ways, including buffers the batch
    # walk took (its head check is by identity, and every stand-in of a
    # shape is one object).
    assert all(dead_stores[way] > 0
               for way in ("fast", "replay", "no-batch")), dead_stores
    assert dead_batched > 0


@given(pipelines())
@settings(max_examples=15, deadline=None)
def test_batch_axis_is_observation_free(case):
    """Hypothesis form of the batch-axis invariants.

    For arbitrary generated pipelines, disabling batched execution
    (``SimulationOptions(batch=False)``) must change nothing observable —
    canonical form, makespan, every output buffer — and the batched
    run's strategy ledger must account for exactly the firings the
    scalar run executed (``firings_batched + firings_scalar`` equal to
    the no-batch run's all-scalar count).
    """
    app, extent, rate = case
    compiled = compile_application(app, _PROC, CompileOptions(mapping="greedy"))
    on = simulate(compiled, SimulationOptions(frames=2, replay=True))
    off = simulate(
        compiled, SimulationOptions(frames=2, replay=True, batch=False)
    )
    assert _canonical(on) == _canonical(off), (
        f"batch changed observables: on={on.replay.as_dict()} "
        f"off={off.replay.as_dict()}"
    )
    assert on.makespan_s == off.makespan_s
    for name, chunks in off.outputs.items():
        got = on.outputs[name]
        assert len(got) == len(chunks)
        for a, b in zip(chunks, got):
            assert np.array_equal(a, b)
    son, soff = on.replay, off.replay
    assert soff.firings_batched == 0
    assert son.firings_batched + son.firings_scalar == soff.firings_scalar


#: Every ``TELEMETRY_STRIDE``-th corpus case also runs observed.
TELEMETRY_STRIDE = 8
TELEMETRY_CAP = 40

_TELEMETRY_FAULTS = {
    "seed": 11,
    "transient": {"probability": 0.05},
    "recovery": {"max_retries": 2, "backoff_cycles": 8, "shed": True},
}


def _check_rows_against_objects(tele, where) -> None:
    """The row stream and the typed spans are one stream, two views."""
    rows, spans = tele.rows, tele.spans
    assert len(rows) == len(spans), where
    for row, span in zip(rows, spans):
        # Byte-equal to the dict-and-encoder form the digest used to hash.
        assert span_line(row) == json.dumps(
            span_as_dict(span), sort_keys=True), (where, row)
    assert spans_digest(spans) == tele.sha256 == tele.as_dict()["sha256"], where


def test_telemetry_rows_match_objects_and_stats():
    checked = fault_spans = routed = 0
    for case in range(0, N_CASES, TELEMETRY_STRIDE):
        seed = _SEED0 + case
        app, frames = _build_case(random.Random(seed))
        compiled = compile_application(
            app, _PROC, CompileOptions(mapping="greedy")
        )
        noc = NocModel(row_major_placement(
            compiled.mapping,
            fit_chip(compiled.processor_count, compiled.processor),
        ))
        variants = {
            "telemetry": {},
            "noc": {"noc": noc},
            "faults": {"faults": FaultSpec.from_dict(_TELEMETRY_FAULTS)},
        }
        for variant, extra in variants.items():
            where = f"case {case}, seed {seed:#x}, {variant}"
            off = simulate(compiled, SimulationOptions(frames=frames, **extra))
            on = simulate(compiled, SimulationOptions(
                frames=frames, telemetry=True, **extra))
            tele = on.telemetry

            # Observation-free: every non-telemetry key is untouched.
            observed = on.as_dict()
            observed.pop("telemetry")
            assert observed == off.as_dict(), where

            # seq is the collector's emission counter: no gaps uncapped.
            assert [row[1] for row in tele.rows] == list(
                range(1, len(tele.rows) + 1)), where
            assert tele.dropped_spans == 0, where
            _check_rows_against_objects(tele, where)

            # Busy time from rows equals the simulator's own accounting.
            busy = tele.busy_by_processor()
            stats = on.utilization.processors
            assert set(busy) == set(stats), where
            for proc, ps in stats.items():
                assert busy[proc] == pytest.approx(ps.busy_s, rel=1e-12), where

            counts = tele.span_counts()
            fault_spans += counts.get("fault", 0)
            routed += sum(1 for row in tele.rows
                          if row[0] == "transfer" and row[-1])
            checked += 1

            if variant != "telemetry":
                continue
            # A span cap keeps a prefix of the event rows and counts the
            # rest; the metrics still cover the whole run.
            capped = simulate(compiled, SimulationOptions(
                frames=frames, telemetry={"max_spans": TELEMETRY_CAP},
            )).telemetry
            events = [row for row in tele.rows if row[0] != "idle"]
            assert capped.rows == events[:TELEMETRY_CAP], where
            assert len(capped.rows) + capped.dropped_spans >= len(events), where
            assert (capped.metrics.as_dict()["counters"]
                    == tele.metrics.as_dict()["counters"]), where
            _check_rows_against_objects(capped, where)

    # Non-vacuity: the sample must reach the fault and NoC row shapes.
    assert checked == 3 * len(range(0, N_CASES, TELEMETRY_STRIDE))
    assert fault_spans > 0, "no sampled case recorded a fault span"
    assert routed > 0, "no sampled case routed a transfer over the NoC"


def test_content_axis_partial_slices():
    """A random subset of the outputs: the kernels it reaches compute,
    the rest emit stand-ins, and only the digests can tell.

    Every ``TELEMETRY_STRIDE``-th case grows a second output, ``Tap``,
    off a random stage (or the input), so asking for ``Tap`` alone keeps
    a prefix of the pipeline live and leaves the suffix dead.  Each way
    through the run — replay with and without batching, and the event
    loop with bounded channels and with a NoC model under telemetry —
    must agree with its own full run on every ``as_dict()`` key (the
    telemetry section's span digest and metrics included) but the
    digests of outputs not asked for, and on ``ReplayStats``.
    """
    proper = 0
    for case in range(0, N_CASES, TELEMETRY_STRIDE):
        seed = _SEED0 + case
        rng = random.Random(seed)
        app, frames = _build_case(rng)
        app.add_kernel(ApplicationOutput("Tap", 1, 1))
        app.connect(rng.choice([n for n in app.kernels
                                if n not in ("Out", "Tap")]),
                    "out", "Tap", "in")
        compiled = compile_application(
            app, _PROC, CompileOptions(mapping="greedy")
        )
        noc = NocModel(row_major_placement(
            compiled.mapping,
            fit_chip(compiled.processor_count, compiled.processor),
        ))
        content = tuple(n for n in ("Out", "Tap") if rng.random() < 0.5)
        proper += len(content) == 1
        ways = {
            "replay": {"replay": True},
            "no-batch": {"replay": True, "batch": False},
            "noc": {"noc": noc, "telemetry": True},
            "capacity": {"channel_capacity": 4},
        }
        for way, extra in ways.items():
            where = f"{way}, content={content} (case {case}, seed {seed:#x})"
            options = SimulationOptions(frames=min(frames, 2), **extra)
            full = simulate(compiled, options)
            got = simulate(compiled, options, content=content)
            want = full.as_dict()
            for name in {"Out", "Tap"}.difference(content):
                want["outputs"][name]["sha256"] = None
            assert got.as_dict() == want, where
            assert set(got.outputs) == set(content), where
            if full.replay is not None:
                assert got.replay.as_dict() == full.replay.as_dict(), where
    # Non-vacuity: some sampled subset is a proper, non-empty one.
    assert proper > 0


def test_differential_case_generator_is_deterministic():
    """The same seed must rebuild the same pipeline (failure messages
    promise reproduction by seed)."""
    a, fa = _build_case(random.Random(_SEED0))
    b, fb = _build_case(random.Random(_SEED0))
    assert fa == fb
    assert [k.name for k in a.kernels.values()] == [
        k.name for k in b.kernels.values()
    ]
