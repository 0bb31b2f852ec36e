"""Regenerate the simulator conformance fixtures.

Usage (from the repository root)::

    PYTHONPATH=src python tests/regen_sim_fixtures.py

Runs the **frozen reference simulator** (``repro.sim.reference``) on the
five Figure 13 applications and writes each golden ``as_dict()`` record to
``tests/fixtures/sim_conformance/app_<key>.json``.  The conformance suite
(``tests/test_sim_conformance.py``) asserts the optimized simulator
reproduces these records exactly.

Three further fixture families:

* ``app_<key>_replay.json`` — the reference loop *without* trace
  recording.  The suite asserts a ``SimulationOptions(replay=True)`` run
  reproduces every field.
* ``app_5_faulted.json`` — an *active* fault scenario.  The frozen
  reference has no fault seam, so the golden here is the optimized loop
  (pinned against itself across commits); the suite asserts replay-on
  matches it exactly.
* ``app_2_noc.json`` — same shape for a NoC-timed run.

A fourth family pins :mod:`repro.obs` telemetry, which the reference
loop cannot produce: ``app_<key>_telemetry.json`` for the five apps plus
``app_2_noc_telemetry.json`` and ``app_5_faulted_telemetry.json`` hold
the span counts by kind, the span-stream ``sha256``, a canonical digest
of ``metrics.as_dict()`` and ``dropped_spans`` of the optimized loop with
``telemetry=True``.  Each is written only if that run reproduces its
base golden (``app_<key>_replay.json``, ``app_2_noc.json``,
``app_5_faulted.json``) on every non-telemetry key, so a collector that
perturbs the simulation cannot be baked in.

A fifth fixture, ``lattice.json``, pins the optimized loop across the
option lattice (:data:`LATTICE_APPS` x :data:`LATTICE_FAULTS` x
:data:`LATTICE_MODES`): each case stores the sha256 of its canonical
``as_dict()``, its makespan and its fault counters, or the exception
class and message when the run raises.  Like the faulted and NoC
goldens it is the loop pinned against itself across commits.

Only rerun this when the *observable* simulation semantics intentionally
change (new cost model, new stat, ...) — never to paper over a divergence
introduced by a hot-path optimization.  Review the fixture diff: every
changed field is a behaviour change the PR must justify.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from functools import lru_cache

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.apps.suite import BENCHMARK_PROCESSOR, benchmark  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.faults import FaultSpec  # noqa: E402
from repro.machine import ManyCoreChip  # noqa: E402
from repro.machine.noc import NocModel, row_major_placement  # noqa: E402
from repro.sim import (  # noqa: E402
    SimulationOptions,
    reference_simulate,
    simulate,
)
from repro.transform import CompileOptions, compile_application  # noqa: E402

#: The five Figure 13 applications pinned by the conformance suite.
APP_KEYS = ("1", "2", "3", "4", "5")

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent / "fixtures" / "sim_conformance"

#: The faulted conformance scenario: deterministic (seed-driven) and
#: *active*.
FAULTED_APP = "5"
FAULT_SPEC = dict(seed=7, slow_pes=((3, 2.0),))

#: The NoC conformance scenario: row-major placement on an 8x8 mesh of
#: benchmark tiles with default link timing.
NOC_APP = "2"
NOC_MESH = (8, 8)


@lru_cache(maxsize=None)
def _compiled(key: str):
    bench = benchmark(key)
    return bench, compile_application(
        bench.application(),
        BENCHMARK_PROCESSOR,
        CompileOptions(mapping="greedy"),
    )


def build_fixture(key: str) -> dict:
    bench, compiled = _compiled(key)
    options = SimulationOptions(frames=bench.frames, trace=True)
    result = reference_simulate(compiled, options)
    return {
        "key": bench.key,
        "title": bench.title,
        "config": {
            "clock_hz": BENCHMARK_PROCESSOR.clock_hz,
            "memory_words": BENCHMARK_PROCESSOR.memory_words,
            "mapping": "greedy",
            "frames": bench.frames,
            "trace": True,
        },
        "golden": result.as_dict(),
    }


def build_replay_fixture(key: str) -> dict:
    bench, compiled = _compiled(key)
    options = SimulationOptions(frames=bench.frames)
    result = reference_simulate(compiled, options)
    return {
        "key": bench.key,
        "title": bench.title,
        "config": {
            "clock_hz": BENCHMARK_PROCESSOR.clock_hz,
            "memory_words": BENCHMARK_PROCESSOR.memory_words,
            "mapping": "greedy",
            "frames": bench.frames,
            "trace": False,
        },
        "golden": result.as_dict(),
    }


def faulted_options(**extra) -> SimulationOptions:
    return SimulationOptions(
        frames=benchmark(FAULTED_APP).frames, faults=FaultSpec(**FAULT_SPEC),
        **extra
    )


def noc_options(**extra) -> SimulationOptions:
    bench, compiled = _compiled(NOC_APP)
    chip = ManyCoreChip(
        cols=NOC_MESH[0], rows=NOC_MESH[1], processor=BENCHMARK_PROCESSOR
    )
    noc = NocModel(placement=row_major_placement(compiled.mapping, chip))
    return SimulationOptions(frames=bench.frames, noc=noc, **extra)


def build_faulted_fixture() -> dict:
    bench, compiled = _compiled(FAULTED_APP)
    result = simulate(compiled, faulted_options())
    return {
        "key": bench.key,
        "title": bench.title,
        "config": {
            "clock_hz": BENCHMARK_PROCESSOR.clock_hz,
            "memory_words": BENCHMARK_PROCESSOR.memory_words,
            "mapping": "greedy",
            "frames": bench.frames,
            "faults": {"seed": FAULT_SPEC["seed"],
                       "slow_pes": [list(p) for p in FAULT_SPEC["slow_pes"]]},
        },
        "golden": result.as_dict(),
    }


def build_noc_fixture() -> dict:
    bench, compiled = _compiled(NOC_APP)
    result = simulate(compiled, noc_options())
    return {
        "key": bench.key,
        "title": bench.title,
        "config": {
            "clock_hz": BENCHMARK_PROCESSOR.clock_hz,
            "memory_words": BENCHMARK_PROCESSOR.memory_words,
            "mapping": "greedy",
            "frames": bench.frames,
            "noc": {"mesh": list(NOC_MESH), "placement": "row-major"},
        },
        "golden": result.as_dict(),
    }


#: Telemetry conformance scenarios: fixture stem -> (app key, the base
#: fixture the telemetry-on run must reproduce on every other key, a
#: function building the options of that run).
TELEMETRY_SCENARIOS = {
    **{
        key: (key, f"app_{key}_replay.json",
              lambda key=key: SimulationOptions(
                  frames=benchmark(key).frames, telemetry=True))
        for key in APP_KEYS
    },
    f"{NOC_APP}_noc": (
        NOC_APP, f"app_{NOC_APP}_noc.json",
        lambda: noc_options(telemetry=True)),
    f"{FAULTED_APP}_faulted": (
        FAULTED_APP, f"app_{FAULTED_APP}_faulted.json",
        lambda: faulted_options(telemetry=True)),
}


def telemetry_golden(telemetry) -> dict:
    """What a telemetry rewrite must reproduce, compactly."""
    summary = telemetry.as_dict()
    metrics = json.dumps(summary["metrics"], sort_keys=True)
    return {
        "spans": summary["spans"],
        "sha256": summary["sha256"],
        "metrics_sha256": hashlib.sha256(metrics.encode()).hexdigest(),
        "dropped_spans": summary["dropped_spans"],
    }


def build_telemetry_fixture(scenario: str, base_golden: dict) -> dict | None:
    """The scenario's telemetry pin, or None when collecting telemetry
    moved the simulated result off ``base_golden``."""
    key, _, options = TELEMETRY_SCENARIOS[scenario]
    bench, compiled = _compiled(key)
    result = simulate(compiled, options())
    observed = json.loads(json.dumps(result.as_dict()))
    observed.pop("telemetry")
    if observed != base_golden:
        return None
    return {
        "key": bench.key,
        "title": bench.title,
        "scenario": scenario,
        "golden": telemetry_golden(result.telemetry),
    }


#: Lattice applications: ``(key, frames)``, greedy with one spare.  ``2``
#: compiles to one element (PE 0, spare 1) and ``5`` to four (PEs 0-3,
#: spare 4), so the element-indexed scenarios below name PE 0.
LATTICE_APPS = (("2", 2), ("5", 1))

#: Lattice fault scenarios: name -> fault spec mapping (None: no spec).
#: Together they drive every :class:`~repro.faults.FaultStats` counter.
LATTICE_FAULTS = {
    "none": None,
    "retry": {"seed": 3, "transient": {"probability": 0.05},
              "recovery": {"max_retries": 3, "backoff_cycles": 100.0}},
    "shed": {"seed": 3, "transient": {"probability": 0.05},
             "recovery": {"shed": True}},
    "corrupt": {"seed": 3, "transient": {"probability": 0.05}},
    "slow": {"slow_pes": [[0, 2.0]]},
    "migrate": {"pe_failures": [{"processor": 0, "time_s": 0.001}],
                "recovery": {"migrate": True, "migration_cycles": 1000.0}},
    "stall": {"pe_failures": [{"processor": 0, "time_s": 0.001}]},
    "drop": {"seed": 5, "channel": {"drop_probability": 0.01},
             "recovery": {"shed": True}},
    "dup": {"seed": 5, "channel": {"duplicate_probability": 0.01}},
    "mixed": {"seed": 11, "transient": {"probability": 0.02},
              "slow_pes": [[0, 1.5]],
              "pe_failures": [{"processor": 0, "time_s": 0.002}],
              "channel": {"drop_probability": 0.005,
                          "duplicate_probability": 0.005},
              "recovery": {"max_retries": 1, "backoff_cycles": 50.0,
                           "migrate": True, "migration_cycles": 500.0,
                           "shed": True}},
}

#: Lattice observer / substrate modes: name -> extra SimulationOptions.
LATTICE_MODES = ("plain", "observed", "bounded")


def lattice_cases() -> list[tuple[str, str, int, str, str]]:
    """``(case id, app key, frames, fault scenario, mode)`` per case."""
    return [
        (f"{key}@F{frames}/{fault}/{mode}", key, frames, fault, mode)
        for key, frames in LATTICE_APPS
        for fault in LATTICE_FAULTS
        for mode in LATTICE_MODES
    ]


@lru_cache(maxsize=None)
def _lattice_compiled(key: str):
    return compile_application(
        benchmark(key).application(),
        BENCHMARK_PROCESSOR,
        CompileOptions(mapping="greedy", spare_processors=1),
    )


def lattice_options(key: str, frames: int, fault: str,
                    mode: str) -> SimulationOptions:
    extra: dict = {}
    if mode != "plain":
        extra.update(trace=True, telemetry=True)
    if mode == "bounded":
        chip = ManyCoreChip(cols=NOC_MESH[0], rows=NOC_MESH[1],
                            processor=BENCHMARK_PROCESSOR)
        extra.update(
            channel_capacity=8,
            noc=NocModel(placement=row_major_placement(
                _lattice_compiled(key).mapping, chip)),
        )
    spec = LATTICE_FAULTS[fault]
    return SimulationOptions(
        frames=frames,
        faults=None if spec is None else FaultSpec.from_dict(spec),
        **extra,
    )


def lattice_record(key: str, frames: int, fault: str, mode: str) -> dict:
    """One lattice case as the fixture stores it."""
    compiled = _lattice_compiled(key)
    try:
        result = simulate(compiled, lattice_options(key, frames, fault, mode))
    except SimulationError as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}
    canonical = json.dumps(result.as_dict(), sort_keys=True)
    return {
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "makespan_s": result.makespan_s,
        "faults": result.fault_stats.as_dict(),
    }


def build_lattice_fixture() -> dict:
    return {
        "cases": {
            case: lattice_record(key, frames, fault, mode)
            for case, key, frames, fault, mode in lattice_cases()
        },
    }


def _serialize(fixture: dict) -> str:
    return json.dumps(fixture, indent=2, sort_keys=True) + "\n"


def main() -> int:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for key in APP_KEYS:
        fixture = build_fixture(key)
        path = FIXTURE_DIR / f"app_{key}.json"
        path.write_text(_serialize(fixture))
        golden = fixture["golden"]
        print(
            f"app {key}: {golden['events']} events, "
            f"{golden['trace']['events']} trace events -> {path}"
        )
    for key in APP_KEYS:
        fixture = build_replay_fixture(key)
        path = FIXTURE_DIR / f"app_{key}_replay.json"
        path.write_text(_serialize(fixture))
        print(
            f"app {key} (replay surface): "
            f"{fixture['golden']['events']} events -> {path}"
        )
    fixture = build_faulted_fixture()
    path = FIXTURE_DIR / f"app_{FAULTED_APP}_faulted.json"
    path.write_text(_serialize(fixture))
    print(f"app {FAULTED_APP} (faulted): {fixture['golden']['events']} "
          f"events -> {path}")
    fixture = build_noc_fixture()
    path = FIXTURE_DIR / f"app_{NOC_APP}_noc.json"
    path.write_text(_serialize(fixture))
    print(f"app {NOC_APP} (noc): {fixture['golden']['events']} "
          f"events -> {path}")

    fixture = build_lattice_fixture()
    path = FIXTURE_DIR / "lattice.json"
    path.write_text(_serialize(fixture))
    raised = sum("raises" in case for case in fixture["cases"].values())
    print(f"lattice: {len(fixture['cases'])} cases "
          f"({raised} raise) -> {path}")

    # Telemetry pins last: each must reproduce the base golden written
    # above before its own golden is accepted.
    telemetry: dict[str, str] = {}
    for scenario, (_, base_name, _) in TELEMETRY_SCENARIOS.items():
        base_golden = json.loads((FIXTURE_DIR / base_name).read_text())
        fixture = build_telemetry_fixture(scenario, base_golden["golden"])
        if fixture is None:
            print(
                f"refusing to write the telemetry goldens: scenario "
                f"{scenario} with telemetry on does not reproduce "
                f"{base_name} — collection must be observation-free",
                file=sys.stderr,
            )
            return 1
        telemetry[scenario] = _serialize(fixture)
    for scenario, text in telemetry.items():
        path = FIXTURE_DIR / f"app_{scenario}_telemetry.json"
        path.write_text(text)
        golden = json.loads(text)["golden"]
        print(f"app {scenario} (telemetry): "
              f"{sum(golden['spans'].values())} spans -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
