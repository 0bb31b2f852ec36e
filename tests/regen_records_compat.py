"""Regenerate the wire-format byte-compatibility fixture.

Usage (from the repository root)::

    PYTHONPATH=src python tests/regen_records_compat.py

Writes ``tests/fixtures/records_compat.json``: a corpus of *valid*
inputs next to the bytes the tree produces for them —
``FaultSpec`` / ``ChaosSpec`` ``canonical_json()`` and every expanded
job's ``Job.to_dict()`` (fingerprint included).  ``tests/test_records.py``
asserts the working tree still produces exactly those bytes, so cached
results, stored records and ``bench/golden/jobs.json`` keys keep
answering.

The committed fixture was captured at the parent of the commit that
introduced :mod:`repro.records` (the hand-written loaders).  Only rerun
this when a canonical form changes **on purpose** (and
``FINGERPRINT_SCHEMA`` is bumped with it) — never to make a loader
change pass.

The corpus: the scenario of ``examples/fault_sweep.json``, the
``bench/workloads.py::fault_spec(seed)`` scenarios, the nine chaos specs
``repro chaos --seed 7`` arms, ints-for-floats and integral-floats-for-
ints spellings of each record; every point of the 720-job
``sweep_cold`` / ``serve_tenants`` grid (as one digest plus its first
and last job), every ``APP_TEMPLATES`` default, and one NoC / faults /
telemetry / replay / as-written point each.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.chaos import ChaosSpec
from repro.explore.spec import APP_TEMPLATES, SweepSpec
from repro.faults import FaultSpec

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "records_compat.json"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fault_inputs() -> list[dict]:
    example = json.loads((ROOT / "examples" / "fault_sweep.json").read_text())
    inputs = [example["fixed"]["faults"]]
    inputs += [
        {"seed": seed, "transient": {"probability": 0.02},
         "recovery": {"max_retries": 3, "backoff_cycles": 8}}
        for seed in range(8)
    ]
    # Every field spelled, ints for floats, integral floats for ints.
    inputs.append({
        "seed": 3.0,
        "transient": {"probability": 0, "kernels": ["conv"],
                      "schedule": [["conv", 2.0], ["median", 0]]},
        "pe_failures": [{"processor": 1.0, "time_s": 1}],
        "slow_pes": [[0, 2], [2.0, 1.5]],
        "channel": {"drop_probability": 0, "duplicate_probability": 1,
                    "edges": [["a", "out", "b", "in"]]},
        "recovery": {"max_retries": 2.0, "backoff_cycles": 8,
                     "migrate": True, "migration_cycles": 100,
                     "shed": False},
    })
    inputs.append({})
    return inputs


def chaos_inputs() -> list[dict]:
    victim, seed = "rate_hz=40", 7  # chaos/suite.py's _VICTIM, --seed 7
    return [
        {"seed": seed, "worker": {"crash_probability": 0.6}},
        {"seed": seed, "worker": {"hang_probability": 1.0, "match": victim}},
        {"seed": seed, "worker": {"slow_probability": 1.0, "slow_s": 0.2}},
        {"seed": seed, "storage": {"cache_corrupt_probability": 1.0}},
        {"seed": seed, "storage": {"store_torn_write_probability": 0.7}},
        {"seed": seed, "http": {"reset_probability": 0.2,
                                "stream_break_probability": 0.35}},
        {"seed": seed, "worker": {"crash_probability": 1.0, "match": victim}},
        {"seed": seed, "worker": {"crash_probability": 0.75}},
        {"seed": seed, "worker": {"crash_probability": 0.55}},
        {"seed": 11.0, "worker": {"crash_probability": 1, "slow_s": 2},
         "storage": {"cache_truncate_probability": 0},
         "http": {"reset_probability": 1}},
        {},
    ]


#: bench/workloads.py: WIDTHS x RATE_POOL x MAPPINGS at SWEEP_HEIGHT,
#: SWEEP_FRAMES — the 720 keys of bench/golden/jobs.json.
GRID = {
    "name": "bench-grid", "app": "image_pipeline",
    "axes": {"width": [16, 24], "rate_hz": list(range(40, 400, 2)),
             "mapping": ["greedy", "1:1"]},
    "fixed": {"height": 12}, "frames": 2,
}


def small_specs() -> list[dict]:
    point = {"width": 16, "height": 12, "rate_hz": 40}
    faults = fault_inputs()
    return [
        *({"app": name, "frames": 2} for name in APP_TEMPLATES),
        {"app": "image_pipeline", "fixed": {**point, "noc": True}},
        {"app": "image_pipeline",
         "fixed": {**point, "noc": {"per_hop_cycles": 2, "mesh": 4.0},
                   "placement": "energy"}},
        {"app": "image_pipeline", "axes": {"fault_seed": [1, 2.0]},
         "fixed": {**point, "faults": faults[0]}},
        {"app": "image_pipeline", "fixed": {**point, "faults": faults[1]}},
        {"app": "image_pipeline", "fixed": {**point, "telemetry": True}},
        {"app": "image_pipeline", "fixed": {**point, "replay": True}},
        # The caller's spelling survives: 20 vs 20.0, 40 vs 40.0.
        {"app": "image_pipeline", "name": "as-written", "timeout_s": 120,
         "axes": {"clock_mhz": [20, 20.0], "rate_hz": [40, 40.0]},
         "fixed": {"width": 16, "height": 12, "memory_words": 512,
                   "utilization_target": 1, "spare_processors": 1,
                   "parallelize": True, "alignment_policy": "pad"}},
        {"app": "2", "frames": 2.0,
         "points": [{"mapping": "1:1"},
                    {"frames": 3.0, "telemetry": False}]},
    ]


def jobs_of(spec: dict) -> list[dict]:
    return [job.to_dict() for job in SweepSpec.from_dict(spec).jobs()]


def grid_digest(jobs: list[dict]) -> str:
    return hashlib.sha256(canonical(jobs).encode("utf-8")).hexdigest()


def build() -> dict:
    grid = jobs_of(GRID)
    return {
        "fault_specs": [
            {"input": data,
             "canonical": FaultSpec.from_dict(data).canonical_json()}
            for data in fault_inputs()
        ],
        "chaos_specs": [
            {"input": data,
             "canonical": ChaosSpec.from_dict(data).canonical_json()}
            for data in chaos_inputs()
        ],
        "sweeps": [{"spec": spec, "jobs": jobs_of(spec)}
                   for spec in small_specs()],
        "grid": {"spec": GRID, "count": len(grid), "first": grid[0],
                 "last": grid[-1], "sha256": grid_digest(grid)},
    }


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE.relative_to(ROOT)}")
