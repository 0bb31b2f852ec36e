#!/usr/bin/env python3
"""Generate ``bench/golden/``: what the benchmark's outputs must equal.

    python3 bench/regen_golden.py [--force] [sim|compile|jobs ...]

The oracle is the frozen seed loop ``reference_simulate``, never the
engine a workload measures:

* ``sim.json`` — per (app, mapping, frames, variant) the event count and
  a digest of the rest of ``SimulationResult.as_dict()``.  ``plain``,
  ``trace`` and ``bounded`` come from the seed loop.  The seed loop
  cannot run ``telemetry``, ``noc`` or ``faults``, so those come from
  the interpreted loop at this commit (``source`` says which); telemetry
  is observation-free, so its entry is first held to the seed loop on
  everything but the ``telemetry`` section.
* ``compile.json`` — compile summaries, ``find_max_rate`` answers and
  annealed placements of the ``compile_search`` queries.
* ``jobs.json`` — per sweep point a digest of the job ``stats`` minus
  host-time fields, rebuilt here from ``reference_simulate`` rather than
  taken from ``execute_job``.
* ``meta.json`` — the python/numpy versions the digests were made with.

An existing entry that differs is an error unless ``--force`` is given:
a changed golden is a changed behaviour, not a refresh.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy  # noqa: E402

from repro.analysis.schedule import build_static_schedule  # noqa: E402
from repro.explore import SweepSpec  # noqa: E402
from repro.machine import anneal_placement, fit_chip  # noqa: E402
from repro.sim import (  # noqa: E402
    SimulationOptions,
    reference_simulate,
    simulate,
)
from repro.transform import compile_application  # noqa: E402

import workloads as w  # noqa: E402
from harness import GOLDEN_DIR, job_golden, job_key, sim_golden  # noqa: E402


def sim_goldens() -> dict:
    out = {}
    for app, frames in w.SimSteady.KINDS:
        result = reference_simulate(w.compile_suite_app(app),
                                    SimulationOptions(frames=frames))
        out[w.sim_key(app, frames, "plain")] = {
            **sim_golden(result.as_dict()), "source": "reference"}

    for app, frames in w.SimObserved.FRAMES.items():
        compiled = w.compile_suite_app(app)
        seed_loop = {
            "plain": SimulationOptions(frames=frames),
            "trace": SimulationOptions(frames=frames, trace=True),
            "bounded": SimulationOptions(frames=frames, channel_capacity=64),
        }
        for variant, options in seed_loop.items():
            result = reference_simulate(compiled, options)
            out[w.sim_key(app, frames, variant)] = {
                **sim_golden(result.as_dict()), "source": "reference"}

        interpreted = {
            "telemetry": SimulationOptions(frames=frames, telemetry=True),
            "noc": SimulationOptions(frames=frames, noc=w.noc_model(compiled)),
        }
        for seed in w.FAULT_SEEDS:
            interpreted[f"faults{seed}"] = SimulationOptions(
                frames=frames, faults=w.fault_spec(seed))
        for variant, options in interpreted.items():
            observed = simulate(compiled, options).as_dict()
            if variant == "telemetry":
                plain = reference_simulate(
                    compiled, seed_loop["plain"]).as_dict()
                observed_rest = {k: v for k, v in observed.items()
                                 if k != "telemetry"}
                if observed_rest != plain:
                    raise SystemExit(
                        f"{app}: telemetry changed the simulated result")
            out[w.sim_key(app, frames, variant)] = {
                **sim_golden(observed), "source": "interpreted"}
    return out


def compile_goldens() -> dict:
    out = {}
    for key in w.SUITE:
        for mapping in w.MAPPINGS:
            compiled = w.compile_suite_app(key, mapping)
            out[f"compile|{key}|{mapping}"] = w.compile_golden(
                compiled, build_static_schedule(compiled))
    for budget in w.CompileSearch.RATE_BUDGETS:
        out[f"rate|{budget}"] = w.rate_golden(w.rate_search(budget))
    for key in w.CompileSearch.ANNEAL_APPS:
        compiled = w.compile_suite_app(key)
        chip = fit_chip(compiled.processor_count, compiled.processor)
        out[f"anneal|{key}"] = w.anneal_golden(anneal_placement(
            compiled.mapping, compiled.dataflow, chip, seed=0))
    return out


def reference_job_stats(job) -> dict:
    """``execute_job``'s stats payload, from the seed loop."""
    compiled = compile_application(
        job.build_app(), job.build_processor(), job.build_options())
    result = reference_simulate(compiled,
                                SimulationOptions(frames=job.frames))
    output, chunks_per_frame, rate_hz = job.measurement()
    verdict = result.verdict(output, rate_hz=rate_hz,
                             chunks_per_frame=chunks_per_frame,
                             frames=job.frames)
    return {
        "processor_count": compiled.processor_count,
        "kernel_count": compiled.kernel_count(),
        "avg_utilization": result.utilization.average_utilization,
        "components": result.utilization.component_fractions(),
        "meets": verdict.meets,
        "worst_interval_s": (None if verdict.worst_interval_s == float("inf")
                             else verdict.worst_interval_s),
        "input_overruns": verdict.input_overruns,
        "rate_hz": rate_hz,
        "frames": job.frames,
        "makespan_s": result.makespan_s,
        "events": result.events_processed,
    }


def job_goldens() -> dict:
    spec = w.sweep_spec(
        "golden",
        {"width": list(w.WIDTHS), "rate_hz": list(w.RATE_POOL),
         "mapping": list(w.MAPPINGS)},
        {},
    )
    return {
        job_key(job.to_dict()): job_golden(reference_job_stats(job))
        for job in SweepSpec.from_dict(spec).jobs()
    }


SECTIONS = {"sim": sim_goldens, "compile": compile_goldens,
            "jobs": job_goldens}


def write(section: str, fresh: dict, force: bool) -> None:
    path = GOLDEN_DIR / f"{section}.json"
    if path.exists() and not force:
        existing = json.loads(path.read_text())
        changed = sorted(k for k in existing
                         if k in fresh and existing[k] != fresh[k])
        if changed:
            raise SystemExit(
                f"{path.name}: {len(changed)} entries differ from the "
                f"committed golden (first: {changed[0]}); a changed golden "
                "is a changed behaviour — rerun with --force only if that "
                "change is intended")
    path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"{path.name}: {len(fresh)} entries")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite entries that differ")
    parser.add_argument("sections", nargs="*", choices=list(SECTIONS),
                        help="sections to rebuild (default: all; jobs "
                             "takes about a minute)")
    args = parser.parse_args()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for section in args.sections or SECTIONS:
        write(section, SECTIONS[section](), args.force)
    (GOLDEN_DIR / "meta.json").write_text(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
