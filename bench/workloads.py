"""The six workloads: what each request is, how it is checked, and which
layer numbers its traced pass produces.

Every workload is closed-loop: a request is issued only after the
previous one of the same client returned.  ``round()`` runs one pass over
the workload's fixed request list in a seeded order; the caller repeats
rounds until ``--seconds`` are spent.  Timed blocks land in ``walls``
(by block kind), request latencies in ``latencies`` (by round), and
verification happens between timed blocks, never inside one.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis.dataflow import analyze_dataflow
from repro.analysis.resources import analyze_resources
from repro.analysis.schedule import build_static_schedule
from repro.analysis.validate import validate_application, validate_physical
from repro.apps import build_image_pipeline
from repro.apps.suite import BENCHMARK_PROCESSOR, benchmark_suite
from repro.dash import MetricsAggregator
from repro.errors import GraphError
from repro.explore import (
    JobCacheHit,
    JobFailed,
    JobFinished,
    JobRetried,
    JobStarted,
    ResultCache,
    ResultStore,
    SweepFinished,
    SweepOptions,
    SweepSpec,
    execute_job,
    run_job_isolated,
    run_sweep,
)
from repro.faults import FaultSpec
from repro.graph.serialize import fingerprint as graph_fingerprint
from repro.machine import (
    NocModel,
    anneal_placement,
    fit_chip,
    row_major_placement,
)
from repro.obs import analyze_critical_path, spans_digest, to_perfetto
from repro.serve import (
    ServiceClient,
    ServiceConfig,
    ServiceStorage,
    SweepService,
    decode_event,
    encode_event,
)
from repro.sim import (
    SimulationOptions,
    Simulator,
    reference_simulate,
    run_functional,
    simulate,
)
from repro.transform import CompiledApp, CompileOptions, compile_application
from repro.transform.align import align_application
from repro.transform.buffering import insert_buffers
from repro.transform.multiplex import map_greedy, map_one_to_one
from repro.transform.parallelize import parallelize_application
from repro.transform.rate_search import find_max_rate

from harness import (
    ROOT,
    Goldens,
    Tracer,
    digest,
    geomean,
    job_golden,
    job_key,
    median,
    sim_golden,
)

SUITE = {bench.key: bench for bench in benchmark_suite()}

#: Input rates the sweep workloads draw from; every (width, rate,
#: mapping) point has a committed golden, so any seed's draw is checkable.
RATE_POOL = tuple(range(40, 400, 2))
WIDTHS = (16, 24)
MAPPINGS = ("greedy", "1:1")
SWEEP_HEIGHT = 12
SWEEP_FRAMES = 2
#: Seeds the ``faults`` variant of ``sim_observed`` draws from.
FAULT_SEEDS = tuple(range(8))

#: Deviations from the oracle that HEAD is known to have; the check
#: accepts exactly the oracle value or exactly this delta, and the
#: traced pass reports the delta as ``sim.events_vs_oracle`` so it stays
#: visible until fixed.  ``BF`` under replay counts one event per frame
#: boundary more than the seed loop; every other field matches.
KNOWN_EVENTS_DELTA = {"BF|greedy|F1|plain": 1}


def compile_suite_app(key: str, mapping: str = "greedy") -> CompiledApp:
    return compile_application(
        SUITE[key].application(), BENCHMARK_PROCESSOR,
        CompileOptions(mapping=mapping),
    )


def sim_key(app: str, frames: int, variant: str) -> str:
    return f"{app}|greedy|F{frames}|{variant}"


def fault_spec(seed: int) -> FaultSpec:
    """Seeded transient upsets that bounded retry always recovers."""
    return FaultSpec.from_dict({
        "seed": seed,
        "transient": {"probability": 0.02},
        "recovery": {"max_retries": 3, "backoff_cycles": 8},
    })


def noc_model(compiled: CompiledApp) -> NocModel:
    chip = fit_chip(compiled.processor_count, compiled.processor)
    return NocModel(row_major_placement(compiled.mapping, chip))


def sweep_spec(name: str, axes: dict[str, list],
               fixed: dict[str, Any]) -> dict[str, Any]:
    return {
        "name": name,
        "app": "image_pipeline",
        "axes": axes,
        "fixed": {"height": SWEEP_HEIGHT, **fixed},
        "frames": SWEEP_FRAMES,
    }


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - started, out


class Workload:
    """Base: measurement state plus the bookkeeping every workload shares."""

    name = ""

    def __init__(self, seed: int, tracer: Tracer, goldens: Goldens,
                 tmp: Path) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.trace = tracer
        self.goldens = goldens
        #: Scratch directory inside the checkout (``bench/out/...``).
        self.tmp = tmp
        self.reset()

    def reset(self) -> None:
        #: Block kind -> wall seconds of every timed block of that kind.
        self.walls: dict[str, list[float]] = defaultdict(list)
        #: Block kind -> verified work units one block of that kind does.
        self.units: dict[str, int] = {}
        #: Latency of every request, seconds, one list per round.
        self.latencies: list[list[float]] = [[]]
        #: Other named timings the traced pass summarises, seconds.
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []
        self.verify_s = 0.0
        self.rounds = 0
        #: Counters the traced pass turns into per-round layer counts.
        self.counts: dict[str, float] = defaultdict(float)

    # -- lifecycle -----------------------------------------------------

    def setup(self) -> None:
        """Everything before the timed region, warm-ups included."""

    def teardown(self) -> None:
        """Release what :meth:`setup` acquired."""

    def round(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run (after the timed region)."""

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the traced pass (probes included)."""
        return {}

    # -- bookkeeping ---------------------------------------------------

    def block(self, kind: str, wall_s: float, units: int) -> None:
        self.walls[kind].append(wall_s)
        self.units[kind] = units

    def request(self, latency_s: float, problem: str | None) -> None:
        self.attempted += 1
        self.latencies[-1].append(latency_s)
        if problem is not None:
            self.failures.append(problem)

    def end_round(self) -> None:
        self.rounds += 1
        self.latencies.append([])

    def per_round(self, total: float) -> float:
        return total / self.rounds if self.rounds else 0.0

    def span_ms_per_round(self, *names: str) -> float:
        """Self time of the named spans, in ms per round."""
        self_s = self.trace.self_seconds()
        return self.per_round(sum(self_s.get(n, 0.0) for n in names)) * 1e3


# ---------------------------------------------------------------------------
# repro.sim


class SimWorkload(Workload):
    """Requests are single ``simulate`` calls on pre-compiled apps."""

    def setup(self) -> None:
        self.compiled = {
            key: compile_suite_app(key)
            for key in dict.fromkeys(app for app, *_ in self.kinds())
        }

    def kinds(self) -> list[tuple]:
        raise NotImplementedError

    def simulate(self, compiled: CompiledApp, options: SimulationOptions):
        if not self.trace.enabled:
            return simulate(compiled, options)
        with self.trace.span("sim.construct"):
            sim = Simulator(compiled.graph, compiled.mapping,
                            compiled.processor, options)
        with self.trace.span("sim.run"):
            return sim.run()

    def check(self, key: str, result) -> str | None:
        started = time.perf_counter()
        try:
            expected = self.goldens.data["sim"].get(key)
            if expected is None:
                return f"sim[{key}]: no golden"
            actual = sim_golden(result.as_dict())
            if actual["digest"] != expected["digest"]:
                return f"sim[{key}]: result digest differs from the oracle"
            delta = actual["events"] - expected["events"]
            self.counts["events_vs_oracle"] += abs(delta)
            if delta not in (0, KNOWN_EVENTS_DELTA.get(key, 0)):
                return (f"sim[{key}]: events {actual['events']} vs oracle "
                        f"{expected['events']}")
            return None
        finally:
            self.verify_s += time.perf_counter() - started

    def run_request(self, kind: str, app: str, golden: str,
                    options: SimulationOptions):
        with self.trace.span("request", request=f"{self.rounds}:{kind}"):
            wall, result = timed(self.simulate, self.compiled[app], options)
        problem = self.check(golden, result)
        self.block(kind, wall, 0 if problem else result.events_processed)
        self.request(wall, problem)
        self.counts["events"] += result.events_processed
        return result


class SimSteady(SimWorkload):
    """``repro.sim`` replay+batch engine on a mix where it wins and loses.

    Seven kinds, with frame counts that put ``4``, ``1`` and ``2`` at
    about the same latency, so the median of the mixed latency
    distribution falls inside that cluster and the p90 inside the
    slowest kind's samples, not on the edge between two kinds.  ``5``
    runs at a long horizon (replay wins once warm) and at the suite's
    default 4 frames (warm-up and period detection dominate); ``BF``
    carries the documented event-count deviation; ``3``/``4``/``1``/``2``
    are where replay loses to the interpreted loop at HEAD.
    """

    name = "sim_steady"
    KINDS = (("5", 12), ("5", 4), ("BF", 1), ("3", 2), ("4", 2),
             ("1", 12), ("2", 12))
    PROBE_REPEATS = 2

    def kinds(self):
        return list(self.KINDS)

    def setup(self) -> None:
        super().setup()
        for app, frames in self.KINDS:
            simulate(self.compiled[app],
                     SimulationOptions(frames=frames, replay=True))

    def round(self) -> None:
        order = self.kinds()
        self.rng.shuffle(order)
        for app, frames in order:
            self.run_request(
                f"{app}@F{frames}", app, sim_key(app, frames, "plain"),
                SimulationOptions(frames=frames, replay=True),
            )
        self.end_round()

    def layer_metrics(self) -> dict[str, float]:
        engines = {
            "reference": lambda c, f: reference_simulate(
                c, SimulationOptions(frames=f)),
            "interpreted": lambda c, f: simulate(
                c, SimulationOptions(frames=f)),
            "replay_nobatch": lambda c, f: simulate(
                c, SimulationOptions(frames=f, replay=True, batch=False)),
            "replay": lambda c, f: simulate(
                c, SimulationOptions(frames=f, replay=True)),
        }
        best: dict[tuple, float] = {}
        results: dict[tuple, Any] = {}
        functional_s = 0.0
        # Engines interleaved per app so a load burst cannot land on one
        # side of a ratio; best-of because scheduler noise is additive.
        for _ in range(self.PROBE_REPEATS):
            for app, frames in self.KINDS:
                for engine, run in engines.items():
                    wall, result = timed(run, self.compiled[app], frames)
                    key = (app, frames, engine)
                    best[key] = min(wall, best.get(key, wall))
                    results[key] = result
        for app, frames in self.KINDS:
            wall, _ = timed(run_functional, self.compiled[app].graph, frames)
            functional_s += wall

        out: dict[str, float] = {}
        for engine in engines:
            out[f"sim.{engine}.events_per_s"] = geomean(
                results[app, frames, engine].events_processed
                / best[app, frames, engine]
                for app, frames in self.KINDS
            )
        ratios = {
            (app, frames): best[app, frames, "replay"]
            / best[app, frames, "interpreted"]
            for app, frames in self.KINDS
        }
        for (app, frames), ratio in ratios.items():
            if (app, frames) != ("5", 4):
                out[f"sim.replay_vs_interpreted.{app}"] = ratio
        out["sim.replay_vs_interpreted"] = geomean(ratios.values())
        out["sim.replay_f4_vs_interpreted"] = ratios["5", 4]

        replays = [results[app, frames, "replay"]
                   for app, frames in self.KINDS]
        stats = [r.replay for r in replays]
        events = sum(r.events_processed for r in replays)
        fired = sum(s.firings_batched + s.firings_scalar for s in stats)
        out["sim.engagement"] = sum(s.events_replayed for s in stats) / events
        out["sim.batch_coverage"] = (
            sum(s.firings_batched for s in stats) / fired if fired else 0.0
        )
        out["sim.periods_compiled"] = sum(s.periods_compiled for s in stats)
        out["sim.demotions"] = sum(sum(s.demotions.values()) for s in stats)
        out["sim.restarts"] = sum(s.restarts for s in stats)
        out["sim.peak_heap"] = max(r.peak_heap for r in replays)
        out["sim.construct_ms"] = self.span_ms_per_round("sim.construct")
        out["sim.run_ms"] = self.span_ms_per_round("sim.run")
        out["sim.events_per_round"] = self.per_round(self.counts["events"])
        out["sim.events_vs_oracle"] = self.per_round(
            self.counts["events_vs_oracle"])
        out["kernels.functional_ms"] = functional_s * 1e3
        replay_s = sum(best[app, frames, "replay"]
                       for app, frames in self.KINDS)
        out["kernels.body_share"] = functional_s / replay_s
        out.update(self.cost_model(best, results))
        return out

    def cost_model(self, best, results) -> dict[str, float]:
        """wall ~ a*events_interpreted + b*events_replayed + c*firings,
        least squares over every (kind, engine) point of the in-tree
        engines; the worst relative residual says how much of the wall
        the breakdown does not explain."""
        rows, walls = [], []
        for (app, frames, engine), wall in best.items():
            if engine == "reference":
                continue
            result = results[app, frames, engine]
            replayed = result.replay.events_replayed if result.replay else 0
            rows.append([result.events_processed - replayed, replayed,
                         sum(result.firings.values())])
            walls.append(wall)
        # Rows scaled by 1/wall so residuals are relative.  The columns
        # are nearly collinear (firings track events), so plain least
        # squares returns negative unit costs; with three unknowns the
        # non-negative optimum is the best fit over column subsets.
        a = np.array(rows, dtype=float) / np.array(walls)[:, None]
        coef, residual = np.zeros(3), np.ones(len(walls))
        for subset in ([0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]):
            part, *_ = np.linalg.lstsq(a[:, subset], np.ones(len(walls)),
                                       rcond=None)
            miss = np.abs(a[:, subset] @ part - 1.0)
            if (part >= 0).all() and miss @ miss < residual @ residual:
                coef, residual = np.zeros(3), miss
                coef[subset] = part
        return {
            "sim.unit_interp_us": float(coef[0]) * 1e6,
            "sim.unit_replay_us": float(coef[1]) * 1e6,
            "sim.unit_firing_us": float(coef[2]) * 1e6,
            "sim.model_err": float(residual.max()),
        }


class SimObserved(SimWorkload):
    """The interpreted loop under each observer: exactly the runs
    ``_ineligible_reason`` keeps off the replay engine.

    Four apps x six variants plus one run that *asks* for replay with
    trace on and is demoted.  Frame counts equalise the apps' event
    counts, so the four telemetry requests (3-4x the rest) are the top
    16 % of the 25 kinds and the p90 falls inside them.
    """

    name = "sim_observed"
    FRAMES = {"1": 5, "2": 5, "5": 2, "SS": 2}
    APPS = tuple(FRAMES)
    VARIANTS = ("plain", "trace", "telemetry", "noc", "faults", "bounded")

    def kinds(self):
        return ([(app, variant) for app in self.APPS
                 for variant in self.VARIANTS] + [("5", "demoted")])

    def setup(self) -> None:
        super().setup()
        self.noc = {app: noc_model(c) for app, c in self.compiled.items()}
        self.fault_seed = random.Random(self.seed).choice(FAULT_SEEDS)
        self.faults = fault_spec(self.fault_seed)
        for app in self.APPS:
            simulate(self.compiled[app], self.options(app, "plain"))
        for variant in self.VARIANTS[1:] + ("demoted",):
            simulate(self.compiled["2"], self.options("2", variant))

    def options(self, app: str, variant: str) -> SimulationOptions:
        extra: dict[str, Any] = {
            "plain": {},
            "trace": {"trace": True},
            "telemetry": {"telemetry": True},
            "noc": {"noc": self.noc[app]},
            "faults": {"faults": self.faults},
            "bounded": {"channel_capacity": 64},
            "demoted": {"replay": True, "trace": True},
        }[variant]
        return SimulationOptions(frames=self.FRAMES[app], **extra)

    def golden_key(self, app: str, variant: str) -> str:
        if variant == "faults":
            variant = f"faults{self.fault_seed}"
        elif variant == "demoted":
            variant = "trace"  # replay is excluded from as_dict()
        return sim_key(app, self.FRAMES[app], variant)

    def round(self) -> None:
        order = self.kinds()
        self.rng.shuffle(order)
        for app, variant in order:
            result = self.run_request(
                f"{app}|{variant}", app, self.golden_key(app, variant),
                self.options(app, variant),
            )
            if variant == "faults":
                self.counts["injected"] += result.fault_stats.injected
                self.counts["recovered"] += result.fault_stats.recovered
        self.end_round()

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for variant in self.VARIANTS[1:]:
            out[f"sim.{variant}.overhead"] = geomean(
                median(self.walls[f"{app}|{variant}"])
                / median(self.walls[f"{app}|plain"])
                for app in self.APPS
            )
        out["sim.construct_ms"] = self.span_ms_per_round("sim.construct")
        out["sim.run_ms"] = self.span_ms_per_round("sim.run")
        out["sim.events_per_round"] = self.per_round(self.counts["events"])
        out["sim.events_vs_oracle"] = self.per_round(
            self.counts["events_vs_oracle"])
        out["faults.injected"] = self.per_round(self.counts["injected"])
        out["faults.recovered"] = self.per_round(self.counts["recovered"])

        spans = critical = perfetto = hashing = noc_setup = 0.0
        for app in self.APPS:
            compiled = self.compiled[app]
            telemetry = simulate(
                compiled, self.options(app, "telemetry")).telemetry
            spans += len(telemetry.spans)
            critical += timed(analyze_critical_path, telemetry)[0]
            perfetto += timed(to_perfetto, telemetry, app=app)[0]
            hashing += timed(spans_digest, telemetry.spans)[0]
            noc_setup += timed(noc_model, compiled)[0]
        out["obs.spans"] = spans
        out["obs.critical_path_ms"] = critical * 1e3
        out["obs.perfetto_ms"] = perfetto * 1e3
        out["obs.spans_digest_ms"] = hashing * 1e3
        out["machine.noc_setup_ms"] = noc_setup * 1e3
        return out


# ---------------------------------------------------------------------------
# repro.graph / analysis / transform / machine


def compile_summary(compiled: CompiledApp, schedule) -> dict[str, Any]:
    """What a compile must reproduce: the golden digests this."""
    return {
        "kernels": sorted(compiled.graph.kernels),
        "processors": compiled.processor_count,
        "alignment": list(compiled.inserted_alignment),
        "buffers": list(compiled.inserted_buffers),
        "degrees": dict(compiled.parallelization.degrees),
        "assignment": dict(compiled.mapping.assignment),
        "admissible": schedule.admissible,
    }


def compile_golden(compiled: CompiledApp, schedule) -> dict[str, Any]:
    return {
        "kernels": compiled.kernel_count(),
        "processors": compiled.processor_count,
        "digest": digest(compile_summary(compiled, schedule)),
    }


def rate_golden(result) -> dict[str, Any]:
    return {"best_rate_hz": result.best_rate_hz, "probes": result.probes}


def anneal_golden(placement) -> dict[str, Any]:
    return {
        "energy": placement.energy,
        "initial_energy": placement.initial_energy,
        "tiles": digest({str(p): [t.x, t.y]
                         for p, t in placement.tiles.items()}),
    }


def rate_search(budget: int):
    return find_max_rate(
        lambda rate: build_image_pipeline(24, 16, rate),
        BENCHMARK_PROCESSOR, processor_budget=budget,
    )


def mirror_compile(app, processor, options: CompileOptions,
                   tracer: Tracer) -> CompiledApp:
    """The pass sequence of ``transform/compile.py`` from the public pass
    functions, one span per pass.  ``CompileSearch`` asserts its output
    equal to ``compile_application``'s, so it cannot drift unnoticed."""
    span = tracer.span
    target = options.utilization_target
    with span("transform.compile"):
        with span("graph.copy"):
            work = app.copy(f"{app.name}(compiled)")
        with span("analysis.validate"):
            validate_application(work)
        with span("transform.align"):
            alignment = align_application(
                work, policy=options.alignment_policy)
        with span("analysis.dataflow"):
            dataflow = analyze_dataflow(work)
        with span("transform.buffering"):
            buffers = insert_buffers(work, dataflow)
        with span("analysis.dataflow"):
            dataflow = analyze_dataflow(work)
        with span("analysis.resources"):
            resources = analyze_resources(
                work, processor, dataflow, utilization_target=target)
        with span("transform.parallelize"):
            parallelization = parallelize_application(
                work, processor, dataflow=dataflow, resources=resources,
                utilization_target=target,
                fuse_pipelines=options.fuse_pipelines,
            )
        with span("analysis.dataflow"):
            dataflow = analyze_dataflow(work)
        with span("analysis.validate"):
            validate_physical(work, dataflow)
        with span("analysis.resources"):
            resources = analyze_resources(
                work, processor, dataflow, utilization_target=target)
        with span("transform.multiplex"):
            if options.mapping == "greedy":
                mapping = map_greedy(
                    work, resources,
                    spare_processors=options.spare_processors)
            else:
                mapping = map_one_to_one(
                    work, spare_processors=options.spare_processors)
    return CompiledApp(
        source=app, graph=work, processor=processor, options=options,
        dataflow=dataflow, resources=resources,
        parallelization=parallelization, mapping=mapping,
        inserted_alignment=alignment, inserted_buffers=buffers,
    )


class CompileSearch(Workload):
    """Designer queries the simulator takes no part in: compile +
    static schedule of every suite app under both mappings, the
    maximum-rate search, and placement annealing."""

    name = "compile_search"
    RATE_BUDGETS = (6, 10, 16)
    ANNEAL_APPS = ("FB", "BF", "5")
    ANNEAL_ITERATIONS = 20_000  # anneal_placement's default

    def queries(self) -> list[tuple]:
        return (
            [("compile", key, mapping) for key in SUITE
             for mapping in MAPPINGS]
            + [("rate", budget) for budget in self.RATE_BUDGETS]
            + [("anneal", key) for key in self.ANNEAL_APPS]
        )

    def setup(self) -> None:
        self.placed = {}
        for key in self.ANNEAL_APPS:
            compiled = compile_suite_app(key)
            chip = fit_chip(compiled.processor_count, compiled.processor)
            self.placed[key] = (compiled, chip)
        self.mirror_checked: set[tuple] = set()
        for query in self.queries():
            self.run_query(query)

    def compile_query(self, key: str, mapping: str):
        options = CompileOptions(mapping=mapping)
        if not self.trace.enabled:
            compiled = compile_application(
                SUITE[key].application(), BENCHMARK_PROCESSOR, options)
            return compiled, build_static_schedule(compiled)
        with self.trace.span("graph.build"):
            app = SUITE[key].application()
        compiled = mirror_compile(app, BENCHMARK_PROCESSOR, options,
                                  self.trace)
        with self.trace.span("analysis.schedule"):
            return compiled, build_static_schedule(compiled)

    def run_query(self, query: tuple) -> tuple[float, int, str | None]:
        """Run one query; (wall, compile_application calls, problem)."""
        kind = query[0]
        name = "|".join(str(part) for part in query[1:])
        if kind == "compile":
            wall, (compiled, schedule) = timed(self.compile_query, *query[1:])
            units, actual = 1, compile_golden(compiled, schedule)
        elif kind == "rate":
            with self.trace.span("transform.rate_search"):
                wall, result = timed(rate_search, query[1])
            units, actual = result.probes, rate_golden(result)
            self.counts["rate_probes"] += result.probes
        else:
            compiled, chip = self.placed[query[1]]
            with self.trace.span("machine.anneal"):
                wall, placement = timed(
                    anneal_placement, compiled.mapping, compiled.dataflow,
                    chip, seed=0)
            units, actual = 0, anneal_golden(placement)
        started = time.perf_counter()
        problem = self.goldens.mismatch("compile", f"{kind}|{name}", actual)
        if kind == "compile" and self.trace.enabled \
                and query not in self.mirror_checked:
            self.mirror_checked.add(query)
            real = compile_application(
                SUITE[query[1]].application(), BENCHMARK_PROCESSOR,
                CompileOptions(mapping=query[2]))
            if compile_summary(real, schedule) \
                    != compile_summary(compiled, schedule):
                problem = f"compile|{name}: pass mirror drifted"
            self.counts["kernels_out"] += real.kernel_count()
        self.verify_s += time.perf_counter() - started
        return wall, units, problem

    def round(self) -> None:
        order = self.queries()
        self.rng.shuffle(order)
        for query in order:
            kind = "|".join(str(part) for part in query)
            with self.trace.span("request", request=f"{self.rounds}:{kind}"):
                wall, units, problem = self.run_query(query)
            self.block(kind, wall, 0 if problem else units)
            self.request(wall, problem)
        self.end_round()

    def layer_metrics(self) -> dict[str, float]:
        ms = self.span_ms_per_round
        anneal_s = sum(self.trace.durations("machine.anneal"))
        anneals = len(self.trace.durations("machine.anneal"))
        fingerprint_s = 0.0
        for bench in SUITE.values():
            app = bench.application()
            try:
                fingerprint_s += timed(graph_fingerprint, app)[0]
            except GraphError:
                pass  # procedural input patterns do not serialize
        return {
            "graph.build_ms": ms("graph.build"),
            "graph.copy_ms": ms("graph.copy"),
            "graph.fingerprint_ms": fingerprint_s * 1e3,
            "analysis.validate_ms": ms("analysis.validate"),
            "analysis.dataflow_ms": ms("analysis.dataflow"),
            "analysis.dataflow_calls": self.per_round(
                len(self.trace.durations("analysis.dataflow"))),
            "analysis.resources_ms": ms("analysis.resources"),
            "analysis.schedule_ms": ms("analysis.schedule"),
            "transform.align_ms": ms("transform.align"),
            "transform.buffering_ms": ms("transform.buffering"),
            "transform.parallelize_ms": ms("transform.parallelize"),
            "transform.multiplex_ms": ms("transform.multiplex"),
            "transform.compile_ms": self.per_round(
                sum(self.trace.durations("transform.compile"))) * 1e3,
            "transform.kernels_out": self.counts["kernels_out"],
            "transform.rate_search_ms": ms("transform.rate_search"),
            "transform.rate_search_probes": self.per_round(
                self.counts["rate_probes"]),
            "machine.anneal_ms": ms("machine.anneal"),
            "machine.anneal_iters_per_s": (
                self.ANNEAL_ITERATIONS * anneals / anneal_s
                if anneal_s else 0.0),
        }


# ---------------------------------------------------------------------------
# repro.explore


class SweepWorkload(Workload):
    """A 24-job ``image_pipeline`` grid whose rates come from the seed."""

    def setup(self) -> None:
        rates = sorted(random.Random(self.seed).sample(RATE_POOL, 6))
        self.spec = sweep_spec(
            "bench-grid",
            {"width": list(WIDTHS), "rate_hz": rates,
             "mapping": list(MAPPINGS)},
            {},
        )
        self.jobs_per_sweep = len(WIDTHS) * len(rates) * len(MAPPINGS)
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.store = ResultStore(self.tmp / "results.jsonl")
        self.dirs = 0

    def teardown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fresh_cache(self) -> ResultCache:
        self.dirs += 1
        return ResultCache(self.tmp / f"cache-{self.dirs}")

    def check_record(self, record: dict[str, Any], *,
                     cache_hit: bool) -> str | None:
        label = record.get("label", "?")
        if record.get("kind") != "result":
            return f"{label}: {record.get('failure')}"
        if bool(record.get("cache_hit")) != cache_hit:
            return f"{label}: cache_hit is {record.get('cache_hit')}"
        return self.goldens.mismatch(
            "jobs", job_key(record["job"]), job_golden(record["stats"]))


class SweepCold(SweepWorkload):
    """Every job compiles and simulates: executor overhead (per-job pool
    spawn, ``tick_s`` polling, payload, cache put, store append) against
    ~40 ms of real work per job."""

    name = "sweep_cold"

    def setup(self) -> None:
        super().setup()
        self.sweep()  # warm-up: fork path, lazy imports, profiling memo

    def sweep(self, workers: int = 2):
        """One cold sweep; (wall, result, events, job latencies)."""
        cache = self.fresh_cache()
        events: list = []
        started: dict[str, float] = {}
        latency: dict[str, float] = {}

        def on_event(event) -> None:
            now = time.perf_counter()
            events.append(event)
            if isinstance(event, JobStarted):
                started.setdefault(event.label, now)
            elif isinstance(event, (JobFinished, JobFailed)):
                latency[event.label] = now - started.get(event.label, now)

        def run():
            return run_sweep(
                SweepSpec.from_dict(self.spec).jobs(), cache=cache,
                store=self.store, options=SweepOptions(workers=workers),
                on_event=on_event,
            )

        wall, result = timed(run)
        shutil.rmtree(cache.root, ignore_errors=True)
        return wall, result, events, latency

    def round(self) -> None:
        with self.trace.span("explore.run_sweep",
                             request=f"sweep-{self.rounds}"):
            wall, result, events, latency = self.sweep()
        started = time.perf_counter()
        verified = 0
        terminal = [e.label for e in events
                    if isinstance(e, (JobFinished, JobFailed, JobCacheHit))]
        shape_ok = (
            len(result.records) == self.jobs_per_sweep
            and sorted(terminal) == sorted(r["label"] for r in result.records)
            and isinstance(events[-1], SweepFinished)
            and sum(isinstance(e, SweepFinished) for e in events) == 1
        )
        for record in result.records:
            problem = self.check_record(record, cache_hit=False)
            if problem is None and not shape_ok:
                problem = (f"sweep-{self.rounds}: not exactly one terminal "
                           "event per job, or events after SweepFinished")
            if problem is None and record["label"] not in latency:
                problem = f"{record['label']}: no JobStarted/terminal pair"
            verified += problem is None
            self.request(latency.get(record["label"], wall), problem)
            self.counts["events"] += record.get("stats", {}).get("events", 0)
        self.counts["retries"] += sum(
            isinstance(e, JobRetried) for e in events)
        self.counts["emitted"] += len(events)
        self.verify_s += time.perf_counter() - started
        self.block("sweep", wall, verified)
        self.end_round()

    def layer_metrics(self) -> dict[str, float]:
        jobs = SweepSpec.from_dict(self.spec).jobs()
        bare = [timed(execute_job, job)[0] for job in jobs]
        isolated = [timed(run_job_isolated, job)[0] for job in jobs[:8]]
        serial_s = self.sweep(workers=0)[0]
        pooled_s = median(self.walls["sweep"])
        cache = self.fresh_cache()
        record = {"kind": "result", "stats": execute_job(jobs[0])}
        misses = [timed(cache.get, job.fingerprint)[0] for job in jobs]
        puts = [timed(cache.put, job.fingerprint, record)[0] for job in jobs]
        return {
            "explore.execute_job_ms": median(bare) * 1e3,
            "explore.isolated_job_ms": median(isolated) * 1e3,
            "explore.job_overhead_ms": (median(isolated) - median(bare)) * 1e3,
            "explore.pool_efficiency": sum(bare) / (2 * pooled_s),
            "explore.serial_vs_pooled": serial_s / pooled_s,
            "explore.cache_put_us": median(puts) * 1e6,
            "explore.cache_miss_us": median(misses) * 1e6,
            "explore.retries": self.per_round(self.counts["retries"]),
            "explore.events_emitted": self.per_round(self.counts["emitted"]),
            "sim.events_per_round": self.per_round(self.counts["events"]),
        }


class SweepWarm(SweepWorkload):
    """The same grid answered entirely from cache: expansion,
    fingerprinting, checksummed reads and store appends, zero compile or
    simulation."""

    name = "sweep_warm"
    REQUESTS_PER_ROUND = 10

    def setup(self) -> None:
        super().setup()
        self.cache = self.fresh_cache()
        run_sweep(SweepSpec.from_dict(self.spec).jobs(), cache=self.cache,
                  store=self.store, options=SweepOptions(workers=2))
        self.warm_request()

    def warm_request(self):
        """spec -> jobs -> run_sweep (all hits) -> report dict."""
        span = self.trace.span
        with span("explore.expand"):
            jobs = SweepSpec.from_dict(self.spec).jobs()
        if self.trace.enabled:
            # run_sweep would compute these lazily; forcing them under
            # their own span splits identity from cache I/O.
            with span("explore.fingerprint"):
                for job in jobs:
                    job.fingerprint
        with span("explore.run_sweep"):
            result = run_sweep(jobs, cache=self.cache, store=self.store,
                               options=SweepOptions(workers=2))
        with span("explore.report"):
            return result, result.report().as_dict()

    def round(self) -> None:
        for i in range(self.REQUESTS_PER_ROUND):
            with self.trace.span("request", request=f"{self.rounds}:{i}"):
                wall, (result, report) = timed(self.warm_request)
            started = time.perf_counter()
            problem = None
            if (report["total"], report["succeeded"], report["cache_hits"]) \
                    != (self.jobs_per_sweep,) * 3:
                problem = f"warm report {report['total']}/" \
                          f"{report['succeeded']}/{report['cache_hits']}"
            for record in result.records:
                problem = problem or self.check_record(record, cache_hit=True)
            self.verify_s += time.perf_counter() - started
            self.block("warm", wall, 0 if problem else len(result.records))
            self.request(wall, problem)
            self.counts["hits"] += result.cache_hits
            self.counts["jobs"] += len(result.records)
        self.end_round()

    def layer_metrics(self) -> dict[str, float]:
        requests = self.rounds * self.REQUESTS_PER_ROUND
        self_s = self.trace.self_seconds()
        jobs = SweepSpec.from_dict(self.spec).jobs()
        gets = [timed(self.cache.get, job.fingerprint)[0]
                for _ in range(5) for job in jobs]
        side = ResultStore(self.tmp / "side.jsonl")
        record = self.cache.get(jobs[0].fingerprint)
        appends = [timed(side.append, record)[0] for _ in range(200)]
        graph_s = timed(graph_fingerprint, jobs[0].build_app())[0]
        return {
            "explore.expand_ms": self_s["explore.expand"] / requests * 1e3,
            "explore.fingerprint_us": (
                self_s["explore.fingerprint"]
                / (requests * self.jobs_per_sweep) * 1e6),
            "explore.cache_get_us": median(gets) * 1e6,
            "explore.store_append_us": median(appends) * 1e6,
            "explore.store_load_ms": timed(self.store.load)[0] * 1e3,
            "explore.report_ms": self_s["explore.report"] / requests * 1e3,
            "explore.cache_hit_ratio": (
                self.counts["hits"] / self.counts["jobs"]),
            "graph.fingerprint_ms": graph_s * 1e3,
        }


# ---------------------------------------------------------------------------
# repro.serve / dash / cli


class ServeTenants(Workload):
    """Two tenants in closed loop against ``python -m repro serve``.

    Per round each tenant submits five 4-job runs: four carry fresh
    seeded jobs, half of them shared with the other tenant's run of the
    same index (cross-tenant dedup), and the fifth resubmits the round's
    first run (pure cache).  A request is one run: ``submit()`` call to
    ``RunFinished`` received on ``events()``.
    """

    name = "serve_tenants"
    TENANTS = 2
    RUNS_PER_ROUND = 5
    JOBS_PER_RUN = 4

    def setup(self) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.data_dir = self.tmp / "serve-data"
        rng = random.Random(self.seed)
        self.rates = {}
        for width in WIDTHS:
            self.rates[width] = list(RATE_POOL)
            rng.shuffle(self.rates[width])
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   TMPDIR=str(self.tmp))
        started = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--data-dir", str(self.data_dir)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        line = self.server.stdout.readline()
        if "listening on " not in line:
            self.teardown()
            raise RuntimeError(f"repro serve did not announce a URL: {line!r}")
        self.boot_s = time.perf_counter() - started
        self.url = line.split("listening on ")[1].split()[0]
        self.client = ServiceClient(self.url)
        self.client.health()
        self.observations: list[dict[str, Any]] = []
        self.envelopes: list[dict[str, Any]] = []
        #: Rounds issued to this server; unlike ``rounds`` it survives
        #: ``reset()``, so a second measured segment keeps drawing fresh
        #: rates instead of resubmitting the first segment's.
        self.issued_rounds = 0
        #: Run ids of the first round: the jobs they execute are fixed by
        #: the seed, so their event total repeats exactly run to run.
        self.first_round_runs: set[str] = set()
        # Warm-up run on rates outside the pool: fork path, first plan.
        self.one_run(0, "warm-up", sweep_spec(
            "warm-up", {"rate_hz": [30, 32], "mapping": list(MAPPINGS)},
            {"width": 16}))
        self.observations.clear()
        self.envelopes.clear()

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            if server.poll() is None:
                try:
                    self.client.shutdown(drain=True)
                    server.wait(timeout=30)
                except Exception:  # noqa: BLE001 - must not leak the child
                    server.kill()
                    server.wait()
            server.stdout.close()
            self.server = None
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- request generation --------------------------------------------

    def run_spec(self, tenant: int, index: int) -> tuple[dict, bool]:
        """Spec of ``tenant``'s run ``index`` and whether it resubmits."""
        round_no, slot = divmod(index, self.RUNS_PER_ROUND)
        warm = slot == self.RUNS_PER_ROUND - 1
        if warm:
            slot = 0
        fresh = round_no * (self.RUNS_PER_ROUND - 1) + slot
        width = WIDTHS[fresh % len(WIDTHS)]
        rates = self.rates[width]
        # Three pool rates per fresh run index: one per tenant, one shared.
        base = 3 * (fresh // len(WIDTHS))
        own = rates[(base + tenant) % len(rates)]
        shared = rates[(base + 2) % len(rates)]
        spec = sweep_spec(
            f"t{tenant}-r{index}",
            {"rate_hz": sorted([own, shared]), "mapping": list(MAPPINGS)},
            {"width": width},
        )
        return spec, warm

    def one_run(self, tenant: int, request: str, spec: dict,
                warm: bool = False) -> None:
        observed: dict[str, Any] = {
            "request": request, "warm": warm, "envelopes": [],
            "problem": None,
        }
        client = ServiceClient(self.url)
        started = time.perf_counter()
        try:
            with self.trace.span("serve.run", request=request):
                with self.trace.span("serve.admit"):
                    run = client.submit(spec, tenant=f"tenant{tenant}")
                observed["admit_s"] = time.perf_counter() - started
                for envelope in client.events(run["run"], timeout_s=120.0):
                    now = time.perf_counter()
                    observed.setdefault("first_s", now - started)
                    observed["envelopes"].append(envelope)
                    if envelope.get("event") == "RunFinished":
                        observed["terminal_s"] = now - started
        except Exception as exc:  # noqa: BLE001 - a failed request, reported
            observed["problem"] = f"{request}: {type(exc).__name__}: {exc}"
        observed.setdefault("terminal_s", time.perf_counter() - started)
        self.observations.append(observed)

    def tenant_round(self, tenant: int) -> None:
        first = self.issued_rounds * self.RUNS_PER_ROUND
        for index in range(first, first + self.RUNS_PER_ROUND):
            spec, warm = self.run_spec(tenant, index)
            self.one_run(tenant, f"t{tenant}-r{index}", spec, warm)

    def round(self) -> None:
        threads = [threading.Thread(target=self.tenant_round, args=(t,))
                   for t in range(self.TENANTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        check_started = time.perf_counter()
        jobs = 0
        for observed in self.observations:
            problem = observed["problem"] or self.check_stream(observed)
            jobs += 0 if problem else self.JOBS_PER_RUN
            self.request(observed["terminal_s"], problem)
            kind = "warm" if observed["warm"] else "cold"
            self.samples[f"run.{kind}"].append(observed["terminal_s"])
            self.samples["admit"].append(observed.get("admit_s", 0.0))
            self.samples["first_event"].append(observed.get("first_s", 0.0))
            hits = sum(e.get("event") == "JobCacheHit"
                       for e in observed["envelopes"])
            self.counts["cache_hits" if observed["warm"]
                        else "dedup_hits"] += hits
            self.counts["envelopes"] += len(observed["envelopes"])
            self.counts["runs"] += 1
            self.envelopes.extend(observed["envelopes"])
            if self.issued_rounds == 0:
                self.first_round_runs.update(
                    e["run"] for e in observed["envelopes"])
        self.observations.clear()
        self.verify_s += time.perf_counter() - check_started
        self.block("round", wall, jobs)
        self.end_round()
        self.issued_rounds += 1

    def check_stream(self, observed: dict[str, Any]) -> str | None:
        """Lifecycle invariants of one run's envelope stream."""
        request, envelopes = observed["request"], observed["envelopes"]
        seqs = [e.get("seq") for e in envelopes]
        if seqs != list(range(1, len(envelopes) + 1)):
            return f"{request}: seq not contiguous from 1: {seqs}"
        finished = [i for i, e in enumerate(envelopes)
                    if e.get("event") == "RunFinished"]
        if finished != [len(envelopes) - 1]:
            return f"{request}: RunFinished at {finished} of {len(envelopes)}"
        final = envelopes[-1]
        if (final["status"], final["succeeded"], final["total"]) \
                != ("succeeded", self.JOBS_PER_RUN, self.JOBS_PER_RUN):
            return f"{request}: finished {final}"
        terminal = [e["label"] for e in envelopes if e.get("event") in
                    ("JobFinished", "JobCacheHit", "JobFailed")]
        if len(terminal) != self.JOBS_PER_RUN \
                or len(set(terminal)) != self.JOBS_PER_RUN:
            return f"{request}: terminal job events {terminal}"
        if observed["warm"] and final["cache_hits"] != self.JOBS_PER_RUN:
            return f"{request}: resubmission hit cache {final['cache_hits']}x"
        return None

    def finish(self) -> None:
        """Every terminal record the service stored against its golden,
        and one record per job of every run."""
        records = [r for r in ResultStore(self.data_dir / "results.jsonl")
                   if r.get("sweep") != "warm-up"]
        self.records = records
        expected = (self.issued_rounds * self.TENANTS * self.RUNS_PER_ROUND
                    * self.JOBS_PER_RUN)
        if len(records) != expected:
            self.failures.append(
                f"store holds {len(records)} records, expected {expected}")
        for record in records:
            problem = (
                f"{record.get('label')}: {record.get('failure')}"
                if record.get("kind") != "result" else
                self.goldens.mismatch("jobs", job_key(record["job"]),
                                      job_golden(record["stats"]))
            )
            if problem is not None:
                self.failures.append(problem)
            elif not record.get("cache_hit") \
                    and record.get("run") in self.first_round_runs:
                self.counts["first_round_events"] += record["stats"]["events"]

    # -- traced probes -------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        health = [timed(self.client.health)[0] for _ in range(10)]
        total_jobs = self.counts["runs"] * self.JOBS_PER_RUN
        wall = sum(self.walls["round"])
        warm_s = median(self.samples["run.warm"])

        def codec(envelope):
            return encode_event(decode_event(envelope),
                                seq=envelope["seq"], run_id=envelope["run"])

        codec_s = timed(lambda: [codec(e) for e in self.envelopes])[0]
        aggregator = MetricsAggregator()
        fold_s = timed(
            lambda: [aggregator.envelope(e) for e in self.envelopes])[0]
        record_s = timed(
            lambda: [aggregator.record(r) for r in self.records])[0]
        snapshot_s = timed(aggregator.snapshot)[0]
        refold_s = timed(MetricsAggregator.from_data_dir, self.data_dir)[0]
        inprocess_s = asyncio.run(self.inprocess_warm_run())
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

        def cli(*args: str) -> float:
            return timed(subprocess.run, [sys.executable, *args], env=env,
                         cwd=ROOT, check=True, capture_output=True)[0]

        return {
            "serve.boot_ms": self.boot_s * 1e3,
            "serve.health_ms": median(health) * 1e3,
            "serve.admit_ms": median(self.samples["admit"]) * 1e3,
            "serve.first_event_ms": median(self.samples["first_event"]) * 1e3,
            "serve.terminal_cold_ms": median(self.samples["run.cold"]) * 1e3,
            "serve.terminal_warm_ms": warm_s * 1e3,
            "serve.http_overhead_ms": (warm_s - inprocess_s) * 1e3,
            "serve.jobs_per_s": total_jobs / wall,
            "serve.dedup_hits": self.per_round(self.counts["dedup_hits"]),
            "serve.cache_hits": self.per_round(self.counts["cache_hits"]),
            "serve.events_per_run": (
                self.counts["envelopes"] / self.counts["runs"]),
            "serve.codec_us": codec_s / len(self.envelopes) * 1e6,
            "dash.fold_us": fold_s / len(self.envelopes) * 1e6,
            "dash.record_us": record_s / len(self.records) * 1e6,
            "dash.snapshot_ms": snapshot_s * 1e3,
            "dash.refold_ms": refold_s * 1e3,
            "cli.import_ms": median(
                cli("-c", "import repro") for _ in range(3)) * 1e3,
            "cli.simulate_ms": cli(
                "-m", "repro", "simulate", "5", "--json") * 1e3,
            "sim.events_per_round": self.counts["first_round_events"],
        }

    async def inprocess_warm_run(self) -> float:
        """A resubmitted run through ``SweepService`` directly: what the
        warm request costs without HTTP, for ``serve.http_overhead_ms``."""
        spec, _ = self.run_spec(0, 0)
        service = SweepService(ServiceStorage(self.tmp / "inprocess"),
                               ServiceConfig(workers=2))
        await service.start()

        async def run() -> float:
            started = time.perf_counter()
            handle = await service.submit(spec, tenant="tenant0")
            async for _ in service.watch(handle.plan.run_id):
                pass
            return time.perf_counter() - started

        try:
            await run()  # cold: fills this instance's cache
            return median([await run() for _ in range(5)])
        finally:
            await service.stop()


WORKLOADS = {w.name: w for w in (
    SimSteady, SimObserved, CompileSearch, SweepCold, SweepWarm,
    ServeTenants,
)}
