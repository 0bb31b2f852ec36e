"""Randomized differential testing: the fast loop against the seed loop.

The conformance suite pins the five Figure 13 applications; this harness
complements it with *generated* programs.  A seed-deterministic fuzzer
builds random linear pipelines from the same kernel palette as
``test_random_pipelines`` and runs each through the frozen seed loop
(``repro.sim.reference``) and the optimized event loop
(``repro.sim.simulate``) — every ``REPLAY_STRIDE``-th case also with
``SimulationOptions(replay=True)``, which runs the same loop — then
asserts the ``SimulationResult.as_dict()`` canonical forms, makespans,
and raw output buffers are identical.  A divergence lands here as a
digest mismatch with the case's generator seed in the message, so a
failure reproduces with ``_build_case(random.Random(seed))``.

The *content* axis rides the same corpus: every case re-runs the event
loop with ``content=()`` — nobody reads a pixel, so every compute kernel
emits stand-ins — and must reproduce the full run on everything but the
pixel digests; a strided sample grows a second output off a random
stage, so a random subset of the outputs keeps a prefix of the pipeline
computing and leaves the rest dead, with bounded channels and with a
NoC model under telemetry.

A sample of the same corpus also runs under :mod:`repro.obs` telemetry
(alone, with a NoC model, with seeded faults, and with a span cap):
the collector records flat rows and builds typed spans only on demand,
so the harness holds the two views to each other and to the simulator's
own accounting on programs no fixture pins.
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


#: Every ``REPLAY_STRIDE``-th corpus case also runs with ``replay=True``.
REPLAY_STRIDE = 8


def test_differential_reference_fast_replay(monkeypatch):
    # Firings of a buffer nobody reads (its positional body) in a
    # content=() run.
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

        ref = reference_simulate(compiled, opts)
        fast = simulate(compiled, opts)

        cref = _canonical(ref)
        assert _canonical(fast) == cref, (
            f"fast path diverged from reference (case {case}, seed {seed:#x})"
        )
        assert ref.makespan_s == fast.makespan_s
        for name, chunks in ref.outputs.items():
            got = fast.outputs[name]
            assert len(got) == len(chunks), (case, seed, name)
            for a, b in zip(chunks, got):
                assert np.array_equal(a, b), (
                    f"output buffer mismatch (case {case}, seed {seed:#x}, "
                    f"output {name})"
                )
        if case % REPLAY_STRIDE == 0:
            rep = simulate(compiled, SimulationOptions(frames=frames,
                                                       replay=True))
            assert _canonical(rep) == cref, (
                f"replay-on diverged (case {case}, seed {seed:#x})")
            assert rep.replay.events_interpreted == ref.events_processed

        # Content axis: with nobody reading the pixels every compute
        # kernel emits stand-ins, and nothing but the digests may move.
        where = f"content=() (case {case}, seed {seed:#x})"
        bare = simulate(compiled, opts, content=())
        want = fast.as_dict()
        want["outputs"]["Out"]["sha256"] = None
        assert bare.as_dict() == want, where
        assert bare.outputs == {}, where

    # Non-vacuity: the content axis covers a buffer nobody reads.
    assert stores["dead"] > 0


@given(pipelines())
@settings(max_examples=15, deadline=None)
def test_batch_axis_is_observation_free(case):
    """``batch`` selects nothing: ``replay=True, batch=False`` runs the
    same loop as ``replay=True`` and changes nothing observable —
    canonical form, makespan, every output buffer, the replay ledger."""
    app, extent, rate = case
    compiled = compile_application(app, _PROC, CompileOptions(mapping="greedy"))
    on = simulate(compiled, SimulationOptions(frames=2, replay=True))
    off = simulate(
        compiled, SimulationOptions(frames=2, replay=True, batch=False)
    )
    assert _canonical(on) == _canonical(off)
    assert on.makespan_s == off.makespan_s
    for name, chunks in off.outputs.items():
        got = on.outputs[name]
        assert len(got) == len(chunks)
        for a, b in zip(chunks, got):
            assert np.array_equal(a, b)
    assert on.replay.as_dict() == off.replay.as_dict()


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
    through the run — plain, with bounded channels and with a NoC model
    under telemetry — must agree with its own full run on every
    ``as_dict()`` key (the telemetry section's span digest and metrics
    included) but the digests of outputs not asked for.
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
            "plain": {},
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
