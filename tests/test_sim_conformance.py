"""Differential conformance: optimized simulator vs the frozen seed loop.

The hot-path work in :mod:`repro.sim.simulator` is only admissible if it
is *observably identical* to the seed implementation preserved verbatim
in :mod:`repro.sim.reference`.  This suite proves it three ways on the
five Figure 13 applications:

1. **Golden fixtures** — the reference simulator's ``as_dict()`` (stats,
   output times, violation list, per-channel counters, full-trace digest)
   is checked in under ``tests/fixtures/sim_conformance/`` and the
   optimized simulator must reproduce every field exactly.  Regenerate
   with ``PYTHONPATH=src python tests/regen_sim_fixtures.py`` — only when
   semantics intentionally change.
2. **Live differential** — both loops run on the *same* compiled app in
   the same process; ``as_dict()``, the full :class:`TraceEvent`
   sequence, and the raw event count must match.
3. **Functional cross-check** — the timing simulator's pixel outputs for
   the Bayer and convolution apps must equal the untimed golden executor
   (:func:`repro.sim.run_functional`) chunk-for-chunk.

Plus determinism (repeat runs and a pickle round-trip of the compiled
app — the explore worker path — are byte-identical) and a regression
test for the shared-default-options bug.
"""

from __future__ import annotations

import json
import pathlib
import pickle
from functools import lru_cache

import numpy as np
import pytest

from repro.apps.suite import BENCHMARK_PROCESSOR, benchmark, benchmark_suite
from repro.sim import (
    SimulationOptions,
    Simulator,
    reference_simulate,
    run_functional,
    simulate,
)
from repro.transform import CompileOptions, compile_application

from regen_sim_fixtures import TELEMETRY_SCENARIOS, telemetry_golden

APP_KEYS = ("1", "2", "3", "4", "5")

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent / "fixtures" / "sim_conformance"


@lru_cache(maxsize=None)
def compiled_app(key: str):
    bench = benchmark(key)
    return bench, compile_application(
        bench.application(),
        BENCHMARK_PROCESSOR,
        CompileOptions(mapping="greedy"),
    )


def canonical(result_dict: dict) -> str:
    """Byte-exact canonical form (floats via repr, keys sorted)."""
    return json.dumps(result_dict, sort_keys=True)


# ----------------------------------------------------------------------
# 1. Golden fixtures pin the seed behaviour across commits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", APP_KEYS)
def test_optimized_matches_golden_fixture(key):
    fixture = json.loads((FIXTURE_DIR / f"app_{key}.json").read_text())
    bench, compiled = compiled_app(key)
    config = fixture["config"]
    assert config["clock_hz"] == BENCHMARK_PROCESSOR.clock_hz
    assert config["memory_words"] == BENCHMARK_PROCESSOR.memory_words
    assert config["frames"] == bench.frames

    result = simulate(
        compiled, SimulationOptions(frames=bench.frames, trace=True)
    )
    got = json.loads(canonical(result.as_dict()))
    golden = fixture["golden"]
    # Field-by-field first, so a divergence names the field that moved.
    assert set(got) == set(golden)
    for field in golden:
        assert got[field] == golden[field], f"app {key}: {field!r} diverged"


# ----------------------------------------------------------------------
# 2. Live differential: both loops, same compiled app, same process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", APP_KEYS)
@pytest.mark.parametrize("trace", [False, True])
def test_optimized_matches_reference_live(key, trace):
    bench, compiled = compiled_app(key)
    options = SimulationOptions(frames=bench.frames, trace=trace)
    ref = reference_simulate(compiled, options)
    opt = simulate(compiled, options)

    assert opt.events_processed == ref.events_processed
    assert opt.trace == ref.trace  # full TraceEvent sequence, not a digest
    assert canonical(opt.as_dict()) == canonical(ref.as_dict())


def test_reference_matches_golden_fixture():
    """The frozen loop itself still reproduces its own fixtures."""
    key = "5"
    fixture = json.loads((FIXTURE_DIR / f"app_{key}.json").read_text())
    bench, compiled = compiled_app(key)
    result = reference_simulate(
        compiled, SimulationOptions(frames=bench.frames, trace=True)
    )
    assert json.loads(canonical(result.as_dict())) == fixture["golden"]


# ----------------------------------------------------------------------
# 2b. Replay conformance: replay-on against the same pins
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", APP_KEYS)
def test_replay_matches_golden_fixture(key):
    """Replay-on must reproduce the trace-off reference golden exactly.

    These fixtures were recorded trace-off while a replay engine existed
    (trace kept it off); ``replay=True`` now runs the event loop, and the
    fixtures stay as they are — reference-loop output.
    """
    fixture = json.loads((FIXTURE_DIR / f"app_{key}_replay.json").read_text())
    bench, compiled = compiled_app(key)
    assert fixture["config"]["trace"] is False

    result = simulate(
        compiled, SimulationOptions(frames=bench.frames, replay=True)
    )
    got = json.loads(canonical(result.as_dict()))
    golden = fixture["golden"]
    assert set(got) == set(golden)
    for field in golden:
        assert got[field] == golden[field], (
            f"app {key}: {field!r} diverged under replay"
        )


@pytest.mark.parametrize("key", [b.key for b in benchmark_suite()])
def test_replay_matches_event_loop_on_whole_suite(key):
    """Replay-on == replay-off on every suite app, ``events`` included,
    not only the five with fixtures (two frames: enough to cross a frame
    boundary)."""
    _, compiled = compiled_app(key)
    plain = simulate(compiled, SimulationOptions(frames=2))
    replayed = simulate(compiled, SimulationOptions(frames=2, replay=True))
    got, want = replayed.as_dict(), plain.as_dict()
    for field in want:
        assert got[field] == want[field], (
            f"app {key}: {field!r} diverged under replay"
        )
    assert set(got) == set(want)
    assert replayed.replay.events_interpreted == plain.events_processed


def test_replay_faulted_pins_demotion_ineligibility():
    """An *active* fault spec under replay-on is replay-off exactly.

    The frozen reference has no fault seam, so the golden pins the
    optimized loop against itself across commits.  Replay-on must
    reproduce it bit-for-bit and report that the loop ran every event.
    """
    from repro.faults import FaultSpec

    fixture = json.loads((FIXTURE_DIR / "app_5_faulted.json").read_text())
    bench, compiled = compiled_app("5")
    spec = dict(fixture["config"]["faults"])
    faults = FaultSpec(
        seed=spec["seed"],
        slow_pes=tuple((p, m) for p, m in spec["slow_pes"]),
    )
    assert faults.active()

    options = SimulationOptions(frames=bench.frames, faults=faults)
    plain = simulate(compiled, options)
    assert json.loads(canonical(plain.as_dict())) == fixture["golden"]

    ropts = SimulationOptions(frames=bench.frames, faults=faults, replay=True)
    replayed = simulate(compiled, ropts)
    assert canonical(replayed.as_dict()) == canonical(plain.as_dict())
    stats = replayed.replay
    assert stats is not None
    assert stats.events_replayed == 0
    assert stats.events_interpreted == replayed.events_processed


def test_replay_noc_pins_demotion_ineligibility():
    """NoC-timed runs under replay-on: semantics must be untouched."""
    from repro.machine import ManyCoreChip
    from repro.machine.noc import NocModel, row_major_placement

    fixture = json.loads((FIXTURE_DIR / "app_2_noc.json").read_text())
    bench, compiled = compiled_app("2")
    cols, rows = fixture["config"]["noc"]["mesh"]
    chip = ManyCoreChip(cols=cols, rows=rows, processor=BENCHMARK_PROCESSOR)
    noc = NocModel(placement=row_major_placement(compiled.mapping, chip))

    options = SimulationOptions(frames=bench.frames, noc=noc)
    plain = simulate(compiled, options)
    assert json.loads(canonical(plain.as_dict())) == fixture["golden"]

    ropts = SimulationOptions(frames=bench.frames, noc=noc, replay=True)
    replayed = simulate(compiled, ropts)
    assert canonical(replayed.as_dict()) == canonical(plain.as_dict())
    stats = replayed.replay
    assert stats is not None
    assert stats.events_replayed == 0
    assert stats.events_interpreted == replayed.events_processed


# ----------------------------------------------------------------------
# 2c. Telemetry conformance: the span stream and metrics, pinned
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", list(TELEMETRY_SCENARIOS))
def test_telemetry_matches_golden_fixture(scenario):
    """``repro.obs`` must keep emitting the same spans and metrics.

    The goldens were recorded by the per-event dataclass collector; any
    cheaper way of collecting has to reproduce its span counts, span
    ``sha256`` and ``metrics.as_dict()`` exactly, and stay
    observation-free against the scenario's base golden.
    """
    key, base_name, options = TELEMETRY_SCENARIOS[scenario]
    fixture = json.loads(
        (FIXTURE_DIR / f"app_{scenario}_telemetry.json").read_text())
    base = json.loads((FIXTURE_DIR / base_name).read_text())["golden"]
    _, compiled = compiled_app(key)

    result = simulate(compiled, options())
    got = telemetry_golden(result.telemetry)
    for field, want in fixture["golden"].items():
        assert got[field] == want, f"{scenario}: telemetry {field!r} diverged"
    observed = json.loads(canonical(result.as_dict()))
    observed.pop("telemetry")
    assert observed == base, f"{scenario}: telemetry moved the result"


# ----------------------------------------------------------------------
# 3. Pixel outputs vs the untimed golden executor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", ["1", "4"])  # Bayer demosaic, convolutions
def test_outputs_match_functional_executor(key):
    bench, compiled = compiled_app(key)
    sim = simulate(compiled, SimulationOptions(frames=bench.frames))
    fn = run_functional(compiled.graph, frames=bench.frames)
    assert set(sim.outputs) == set(fn.outputs)
    for name, chunks in sim.outputs.items():
        golden = fn.output(name)
        assert len(chunks) == len(golden)
        for i, (got, want) in enumerate(zip(chunks, golden)):
            np.testing.assert_array_equal(
                got, want, err_msg=f"app {key} output {name!r} chunk {i}"
            )


# ----------------------------------------------------------------------
# Determinism: repeat runs and the explore-worker pickle path
# ----------------------------------------------------------------------
def test_repeat_runs_are_byte_identical():
    bench, compiled = compiled_app("5")
    options = SimulationOptions(frames=bench.frames, trace=True)
    first = simulate(compiled, options)
    second = simulate(compiled, options)
    assert first.events_processed == second.events_processed
    assert canonical(first.as_dict()) == canonical(second.as_dict())


def test_pickle_round_trip_is_byte_identical():
    """The explore engine ships CompiledApps to workers via pickle."""
    bench, compiled = compiled_app("2")
    clone = pickle.loads(pickle.dumps(compiled))
    options = SimulationOptions(frames=bench.frames, trace=True)
    local = simulate(compiled, options)
    shipped = simulate(clone, options)
    assert local.events_processed == shipped.events_processed
    assert canonical(local.as_dict()) == canonical(shipped.as_dict())


# ----------------------------------------------------------------------
# Regression: SimulationOptions must not be shared across Simulators
# ----------------------------------------------------------------------
def test_default_options_are_per_instance():
    _, compiled = compiled_app("2")
    a = Simulator(compiled.graph, compiled.mapping, compiled.processor)
    b = Simulator(compiled.graph, compiled.mapping, compiled.processor)
    assert a.options is not b.options
    assert a.options == b.options == SimulationOptions()
    # The signature default is None (constructed per call), not a shared
    # mutable-default instance evaluated once at def time.
    import inspect

    sig = inspect.signature(Simulator.__init__)
    assert sig.parameters["options"].default is None
    assert inspect.signature(simulate).parameters["options"].default is None
