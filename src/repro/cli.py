"""Command-line interface: inspect, compile, simulate, export.

::

    python -m repro list                      # the Figure 13 suite
    python -m repro describe SS               # logical graph of a benchmark
    python -m repro compile SS                # run the compiler, print report
    python -m repro simulate SS --frames 4    # timing-accurate simulation
    python -m repro profile SS --perfetto out.json   # telemetry + critical path
    python -m repro dot SS --compiled         # Graphviz export
    python -m repro suite                     # the Figure 13 table
    python -m repro explore sweep.json --workers 4   # design-space sweep
    python -m repro serve --port 8765         # resident sweep service
    python -m repro submit sweep.json --watch # run a sweep on the service
    python -m repro watch RUN_ID              # stream a run's events
    python -m repro jobs                      # list the service's runs
    python -m repro dash --data-dir .repro-serve  # metrics web dashboard
    python -m repro chaos --seed 7            # fault-injection scenario matrix

``simulate``, ``schedule``, ``profile``, ``suite``, ``explore``,
``chaos`` and the service client commands take ``--json`` for
machine-readable output.  A command computes its result once and hands
:func:`main` an :class:`Output` — exit code, ``--json`` payload and text
— and ``main`` alone prints the one the flags ask for; only the event
streams (``watch``, ``submit --watch``, sweep progress) print as they go.

Benchmarks are addressed by their Figure 13 keys (1, 1F, 2, 2F, 3, 4, SS,
SF, BS, BF, 5).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Any, NamedTuple

from .apps import BENCHMARK_PROCESSOR, benchmark, benchmark_suite
from .graph.dot import to_dot
from .errors import SimulationError
from .explore.events import TERMINAL_JOB_EVENTS
from .explore.executor import SweepOptions, measure
from .machine import NocModel, ProcessorSpec
from .records import defaults, load_file
from .transform import CompileOptions, compile_application

__all__ = ["main"]


class Output(NamedTuple):
    """What a command hands :func:`main`: its exit code, its ``--json``
    payload and its text.  ``None`` prints nothing in that mode."""

    code: int = 0
    payload: Any = None
    text: str | None = None


def _processor(args: argparse.Namespace) -> ProcessorSpec:
    return ProcessorSpec(
        clock_hz=args.clock_mhz * 1e6,
        memory_words=args.memory_words,
    )


def _compile(args: argparse.Namespace):
    return compile_application(
        benchmark(args.key).application(), _processor(args),
        CompileOptions(mapping=args.mapping),
    )


def _noc_knobs(args: argparse.Namespace) -> dict | None:
    """The NoC model knobs requested by --noc, or None."""
    if not getattr(args, "noc", False):
        for flag, name in ((getattr(args, "placement", None), "--placement"),
                           (getattr(args, "noc_mesh", None), "--mesh")):
            if flag:
                raise SimulationError(
                    f"{name} only affects timing through the NoC model; "
                    "add --noc"
                )
        return None
    return {
        "mesh": args.noc_mesh,
        "per_hop_cycles": args.hop_cycles,
        "serialization_cycles_per_element": args.ser_cycles,
    }


def _measure(args: argparse.Namespace, **sim_options):
    """``(compiled, result, verdict, simulate wall s)`` for ``args.key``
    under whichever of the run flags the command declares."""
    return measure(
        benchmark(args.key).application(), _processor(args),
        CompileOptions(mapping=args.mapping,
                       spare_processors=getattr(args, "spares", 0)),
        frames=args.frames, faults=_fault_spec(args),
        noc=_noc_knobs(args), placement=getattr(args, "placement", None),
        **sim_options,
    )


def _add_noc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noc", action="store_true",
                   help="route inter-element transfers over the 2-D mesh "
                        "NoC with per-link contention (see docs/noc.md)")
    p.add_argument("--placement",
                   choices=("row-major", "energy", "makespan"),
                   default=None,
                   help="NoC placement strategy: naive row-major fill or "
                        "an annealed objective (requires --noc)")
    p.add_argument("--mesh", type=int, default=None, dest="noc_mesh",
                   help="force the NoC mesh side length (requires --noc; "
                        "default: smallest square that fits)")
    noc = defaults(NocModel)
    p.add_argument("--hop-cycles", type=float,
                   default=noc["per_hop_cycles"], dest="hop_cycles",
                   help="router/link traversal cycles per hop")
    p.add_argument("--ser-cycles", type=float,
                   default=noc["serialization_cycles_per_element"],
                   dest="ser_cycles",
                   help="link serialization cycles per payload element")


def _frames(text: str) -> int:
    """``--frames``: every command that takes it judges the run, and a
    verdict over zero frames is a vacuous pass."""
    frames = int(text)
    if frames < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {frames}")
    return frames


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("key")
    p.add_argument("--frames", type=_frames, default=4)
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")


def _add_fault_args(p: argparse.ArgumentParser, see: str = "") -> None:
    p.add_argument("--faults", default=None, metavar="FILE",
                   help=f"inject a fault scenario (JSON FaultSpec file{see})")
    p.add_argument("--fault-seed", type=int, default=None, dest="fault_seed",
                   help="override the fault spec's seed")
    p.add_argument("--spares", type=int, default=0,
                   help="spare processing elements reserved for migration")


def _add_span_args(p: argparse.ArgumentParser, does: str = "",
                   where: str = "") -> None:
    p.add_argument("--perfetto", default=None, metavar="OUT",
                   help=f"{does}write a Perfetto/Chrome trace_event JSON "
                        f"file{where}")
    p.add_argument("--spans", default=None, metavar="OUT",
                   help=f"{does}write the span stream as JSON lines")


def _fault_spec(args: argparse.Namespace):
    from .faults import load_fault_spec

    if getattr(args, "faults", None) is None:
        if getattr(args, "fault_seed", None) is not None:
            raise SimulationError(
                "--fault-seed requires --faults (a scenario to seed)"
            )
        return None
    spec = load_fault_spec(args.faults)
    if args.fault_seed is not None:
        spec = spec.with_seed(args.fault_seed)
    return spec


def _telemetry_files(args: argparse.Namespace, tele, critical_path: bool):
    """Write a telemetry run's ``--perfetto`` / ``--spans`` files; return
    its critical path (when asked for) and the "wrote …" lines."""
    from .obs import analyze_critical_path, write_perfetto, write_spans_jsonl

    wrote = []
    if args.perfetto:
        write_perfetto(tele, args.perfetto, app=args.key)
        wrote.append(f"wrote Perfetto trace to {args.perfetto}")
    if args.spans:
        write_spans_jsonl(tele, args.spans)
        wrote.append(f"wrote span stream to {args.spans}")
    return (analyze_critical_path(tele) if critical_path else None), wrote


def cmd_list(args: argparse.Namespace) -> Output:
    return Output(text="\n".join(f"{bench.key:>3}  {bench.title}"
                                 for bench in benchmark_suite()))


def cmd_describe(args: argparse.Namespace) -> Output:
    return Output(text=benchmark(args.key).application().describe())


def cmd_compile(args: argparse.Namespace) -> Output:
    from .analysis import compile_report

    return Output(text=compile_report(_compile(args)))


def cmd_simulate(args: argparse.Namespace) -> Output:
    telemetry_on = bool(args.perfetto or args.spans or args.critical_path)
    compiled, result, verdict, sim_elapsed = _measure(
        args, telemetry=telemetry_on)
    path_report, wrote = _telemetry_files(args, result.telemetry,
                                          args.critical_path)
    fault_spec = result.options.faults
    payload = {
        "benchmark": args.key,
        "rate_hz": compiled.contract()["rate_hz"],
        "frames": args.frames,
        "processor_count": compiled.processor_count,
        "kernel_count": compiled.kernel_count(),
        "verdict": verdict.as_dict(),
        "utilization": result.utilization.as_dict(),
    }
    text = [verdict.describe()]
    if fault_spec is not None and fault_spec.active():
        payload["faults"] = result.fault_stats.as_dict()
        text.append(result.fault_stats.describe())
    if result.noc_stats is not None:
        payload["noc"] = result.noc_stats.as_dict(result.makespan_s)
        payload["makespan_s"] = result.makespan_s
        text.append(result.noc_stats.describe())
    text += ["", result.utilization.describe()]
    if telemetry_on:
        payload["telemetry"] = {
            "spans": result.telemetry.span_counts(),
            "dropped_spans": result.telemetry.dropped_spans,
        }
        text += wrote
    if path_report is not None:
        payload["critical_path"] = path_report.as_dict()
        text += ["", path_report.describe()]
    if args.bench:
        bench = payload["bench"] = {
            "wall_s": sim_elapsed,
            "events": result.events_processed,
            "events_per_s": (result.events_processed / sim_elapsed
                             if sim_elapsed > 0 else 0.0),
            "peak_heap": result.peak_heap,
        }
        text += ["", f"bench: {sim_elapsed * 1e3:.1f} ms wall, "
                     f"{bench['events']} events, "
                     f"{bench['events_per_s']:,.0f} events/s, "
                     f"peak heap {bench['peak_heap']}"]
    ok = verdict.meets
    if args.strict:
        # CI gate: nonzero on any real-time violation or fault the
        # recovery policy could not absorb.
        ok = (ok and not result.violations
              and result.fault_stats.unrecovered == 0)
    return Output(0 if ok else 1, payload, "\n".join(text))


def cmd_dot(args: argparse.Namespace) -> Output:
    if args.compiled or args.mapped:
        compiled = _compile(args)
        return Output(text=to_dot(
            compiled.graph, mapping=compiled.mapping if args.mapped else None,
        ))
    return Output(text=to_dot(benchmark(args.key).application()))


def cmd_schedule(args: argparse.Namespace) -> Output:
    from .analysis import build_static_schedule

    schedule = build_static_schedule(_compile(args))
    return Output(0 if schedule.admissible else 1,
                  {"benchmark": args.key, **schedule.as_dict()},
                  schedule.describe())


def cmd_energy(args: argparse.Namespace) -> Output:
    from .machine import ManyCoreChip, anneal_placement, estimate_energy

    compiled, result, _, _ = _measure(args)
    placement, text = None, []
    if args.place:
        chip = ManyCoreChip(cols=args.mesh, rows=args.mesh,
                            processor=compiled.processor)
        placement = anneal_placement(
            compiled.mapping, compiled.dataflow, chip, seed=0
        )
        text.append(f"annealed placement: {placement.improvement:.2f}x "
                    "better than row-major")
    report = estimate_energy(
        result, compiled.mapping, compiled.dataflow,
        processor=compiled.processor, placement=placement,
    )
    return Output(text="\n".join([*text, report.describe()]))


def cmd_trace(args: argparse.Namespace) -> Output:
    from .sim import gantt

    _, result, _, _ = _measure(args, trace=True)
    return Output(text=gantt(result.trace, width=args.width))


def cmd_profile(args: argparse.Namespace) -> Output:
    from .obs import timeline

    _, result, _, _ = _measure(args, telemetry=True)
    tele = result.telemetry
    report, wrote = _telemetry_files(args, tele, True)
    payload = {
        "benchmark": args.key,
        "frames": args.frames,
        "makespan_s": result.makespan_s,
        "telemetry": tele.as_dict(),
        "critical_path": report.as_dict(),
    }
    text = [
        f"benchmark {args.key} ({benchmark(args.key).title}): "
        f"{result.makespan_s * 1e3:.3f} ms makespan, "
        + ", ".join(f"{v} {k}" for k, v in tele.span_counts().items())
    ]
    if result.noc_stats is not None:
        payload["noc"] = result.noc_stats.as_dict(result.makespan_s)
        text.append(result.noc_stats.describe())
    rows = sorted(
        ((labels.get("kernel", ""), h)
         for name, labels, h in tele.metrics.histograms()
         if name == "firing_latency_s"),
        key=lambda kv: (-kv[1].total, kv[0]),
    )
    if rows:
        text.append("kernel firing latency (firings / mean / p99):")
        text += [f"  {kernel:<24} {h.count:>7} / {h.mean * 1e6:9.2f} us "
                 f"/ {h.quantile(0.99) * 1e6:9.2f} us"
                 for kernel, h in rows[:8]]
    text += ["", report.describe()]
    if args.timeline:
        text += ["", timeline(tele, width=args.width)]
    return Output(0, payload, "\n".join(text + wrote))


def cmd_suite(args: argparse.Namespace) -> Output:
    rows = []
    for bench in benchmark_suite():
        utils = {}
        counts = {}
        meets = True
        for mapping in ("1:1", "greedy"):
            compiled, result, verdict, _ = measure(
                bench.application(), _processor(args),
                CompileOptions(mapping=mapping), frames=bench.frames,
            )
            utils[mapping] = result.utilization.average_utilization
            counts[mapping] = compiled.processor_count
            meets = meets and verdict.meets
        rows.append({
            "benchmark": bench.key,
            "title": bench.title,
            "rate_hz": compiled.contract()["rate_hz"],
            "utilization_1to1": utils["1:1"],
            "utilization_greedy": utils["greedy"],
            "processors_1to1": counts["1:1"],
            "processors_greedy": counts["greedy"],
            "gain": utils["greedy"] / utils["1:1"],
            "meets": meets,
        })
    geomean = statistics.geometric_mean(row["gain"] for row in rows)
    text = [
        f"{'bench':>6} | {'1:1 util':>9} | {'GM util':>9} | gain | meets",
        *(f"{row['benchmark']:>6} | {row['utilization_1to1']:>9.1%} | "
          f"{row['utilization_greedy']:>9.1%} | {row['gain']:.2f}x | "
          f"{'yes' if row['meets'] else 'NO'}" for row in rows),
        f"geometric-mean improvement: {geomean:.2f}x",
    ]
    return Output(0, {"rows": rows, "geometric_mean_gain": geomean},
                  "\n".join(text))


def cmd_explore(args: argparse.Namespace) -> Output:
    from .explore import (
        ExploreError,
        ResultCache,
        ResultStore,
        SweepOptions,
        completed_records,
        load_spec,
        render_event,
        run_sweep,
    )

    spec = load_spec(args.spec)
    jobs = spec.jobs()
    resume = None
    if args.resume:
        # Checked before the cache and store exist: a typo must not
        # create a directory and re-run the whole sweep from nothing.
        if not os.path.isfile(args.resume):
            raise ExploreError(f"no result store at {args.resume}")
        # Resume from a previous run's JSONL store: every fingerprint
        # with a successful record there is skipped, exactly like a
        # cache hit — the same logic the service applies (see
        # docs/serving.md on resumable sweeps).
        resume = completed_records(ResultStore(args.resume))
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    store = ResultStore(args.store) if args.store else None
    quiet = args.json or args.quiet
    result = run_sweep(
        jobs,
        cache=cache,
        store=store,
        options=SweepOptions(workers=args.workers, retries=args.retries),
        on_event=None if quiet else render_event,
        resume=resume,
    )
    report = result.report()
    return Output(0 if result.failed == 0 else 1, {
        "sweep": result.sweep,
        "jobs": len(jobs),
        "elapsed_s": result.elapsed_s,
        "cache_hits": result.cache_hits,
        **report.as_dict(),
    }, "\n" + report.describe())


def _serve_client(args: argparse.Namespace):
    from .serve import ServiceClient

    return ServiceClient(args.url)


#: Envelope types after which the watch progress line is re-printed
#: (the job-terminal events plus the run's own terminal event).
_PROGRESS_EVENTS = frozenset({*TERMINAL_JOB_EVENTS, "RunFinished"})


def _stream_run(client, run_id: str, as_json: bool,
                head: str | None = None) -> Output:
    """Render a run's event stream; exit 0 iff it ends ``succeeded``.

    Uses the self-healing :meth:`ServiceClient.watch`: a connection
    reset mid-run resumes from the last envelope seen instead of
    silently truncating the stream (and misreporting the exit code).
    Human output opens with ``head`` and folds the same envelopes
    through the dashboard's :class:`~repro.dash.MetricsAggregator`,
    printing a progress line (``done/total jobs, pct, jobs/s``) after
    each terminal job event — the fold, not raw envelope arithmetic,
    decides the numbers.  The stream is the whole output: the returned
    :class:`Output` carries only the exit code.
    """
    from .serve import decode_event

    aggregator = None
    if not as_json:
        from .dash import MetricsAggregator

        aggregator = MetricsAggregator()
        if head is not None:
            print(head)
    started = time.monotonic()
    status = None
    for envelope in client.watch(run_id):
        if as_json:
            print(json.dumps(envelope))
        else:
            aggregator.envelope(envelope)
            try:
                print(decode_event(envelope).describe())
            except ValueError:
                # Newer service, unknown event type: show, don't die.
                print(json.dumps(envelope))
            if envelope.get("event") in _PROGRESS_EVENTS:
                line = aggregator.progress_line(
                    run_id, elapsed_s=time.monotonic() - started,
                )
                if line is not None:
                    print(f"  {line}")
        if envelope.get("event") == "RunFinished":
            status = envelope.get("status")
    return Output(0 if status == "succeeded" else 1)


def cmd_serve(args: argparse.Namespace) -> Output:
    from .serve import ServiceConfig, run_service

    chaos = None
    if args.chaos is not None:
        from .chaos import load_chaos_spec

        chaos = load_chaos_spec(args.chaos)
        if args.chaos_seed is not None:
            chaos = chaos.with_seed(args.chaos_seed)
    return Output(run_service(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        config=ServiceConfig(
            workers=args.workers,
            retries=args.retries,
            retry_timeouts=args.retry_timeouts,
            heartbeat_s=args.heartbeat_s,
            quarantine_after=args.quarantine_after,
        ),
        chaos=chaos,
        dashboard=args.dashboard,
    ))


def cmd_dash(args: argparse.Namespace) -> Output:
    from .dash import MetricsAggregator, serve_dashboard

    if args.snapshot:
        return Output(text=MetricsAggregator.from_data_dir(
            args.data_dir).snapshot().canonical())
    return Output(serve_dashboard(args.data_dir, host=args.host,
                                  port=args.port))


def cmd_chaos(args: argparse.Namespace) -> Output:
    """Run the chaos scenario matrix against live service instances."""
    # Lazy: the suite drives the full serve stack and is only needed
    # here (keeping ``import repro.chaos`` cheap and cycle-free).
    from .chaos.suite import run_matrix, write_report

    names = args.scenarios.split(",") if args.scenarios else None
    try:
        report = run_matrix(
            args.data_dir, seed=args.seed, names=names,
            announce=None if args.json else print,
        )
    except ValueError as exc:  # unknown scenario name
        print(f"error: {exc}", file=sys.stderr)
        return Output(2)
    if args.report is not None:
        write_report(report, args.report)
    return Output(0 if report.ok else 1, report.as_dict(),
                  "\n" + report.describe())


def cmd_submit(args: argparse.Namespace) -> Output:
    from .explore import ExploreError

    # The document as written: the service holds it to the declarations.
    spec = load_file(args.spec, lambda document: document,
                     error=ExploreError, what="sweep spec")
    client = _serve_client(args)
    run = client.submit(spec, priority=args.priority, tenant=args.tenant)
    accepted = (f"accepted run {run['run']} ({run['name']!r}, "
                f"{run['total']} job(s), priority {run['priority']})")
    if args.watch:
        # With --json the stream itself is the machine-readable output
        # (it opens with the RunAccepted envelope).
        return _stream_run(client, run["run"], args.json, head=accepted)
    return Output(0, {"run": run}, accepted)


def cmd_watch(args: argparse.Namespace) -> Output:
    return _stream_run(_serve_client(args), args.run, args.json)


def cmd_jobs(args: argparse.Namespace) -> Output:
    runs = _serve_client(args).runs()
    table = [
        f"{'run':>12} | {'name':>16} | {'state':>9} | {'status':>9} "
        "| done | cached",
        *(f"{run['run']:>12} | {run['name']:>16} "
          f"| {run['state']:>9} | {run.get('status') or '-':>9} "
          f"| {run['done']}/{run['total']} | {run['cache_hits']}"
          for run in runs),
    ]
    return Output(0, {"runs": runs}, "\n".join(table) if runs else "no runs")


def cmd_cancel(args: argparse.Namespace) -> Output:
    run = _serve_client(args).cancel(args.run)
    return Output(0, {"run": run}, f"run {run['run']}: {run['state']}"
                  + (f" ({run['status']})" if run.get("status") else ""))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Block-parallel compiler and simulator (ICPP 2010 repro)",
    )
    parser.add_argument("--clock-mhz", type=float, default=20.0,
                        help="processing-element clock (MHz)")
    parser.add_argument("--memory-words", type=int,
                        default=BENCHMARK_PROCESSOR.memory_words,
                        help="processing-element local store (words)")
    parser.add_argument("--mapping", choices=("greedy", "1:1"),
                        default="greedy")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Figure 13 benchmarks")

    p = sub.add_parser("describe", help="print a benchmark's logical graph")
    p.add_argument("key")

    p = sub.add_parser("compile", help="compile a benchmark and report")
    p.add_argument("key")

    p = sub.add_parser("simulate", help="compile and simulate a benchmark")
    _add_run_args(p)
    p.add_argument("--bench", action="store_true",
                   help="print simulator timing (wall, events/s, peak heap)")
    _add_fault_args(p, see="; see docs/robustness.md")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on real-time violations or "
                        "unrecovered faults (CI gate)")
    _add_span_args(p, does="record telemetry and ",
                   where=" (load at ui.perfetto.dev)")
    p.add_argument("--critical-path", action="store_true",
                   dest="critical_path",
                   help="record telemetry and report the critical path")
    _add_noc_args(p)

    p = sub.add_parser("dot", help="export a benchmark graph as Graphviz dot")
    p.add_argument("key")
    p.add_argument("--compiled", action="store_true",
                   help="export the compiled (transformed) graph")
    p.add_argument("--mapped", action="store_true",
                   help="cluster kernels by processing element (Figure 12)")

    p = sub.add_parser("schedule",
                       help="static SDF-style schedule and admission test")
    p.add_argument("key")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")

    p = sub.add_parser("energy", help="energy estimate for a benchmark")
    p.add_argument("key")
    p.add_argument("--frames", type=_frames, default=4)
    p.add_argument("--place", action="store_true",
                   help="anneal a placement first (network energy uses it)")
    p.add_argument("--mesh", type=int, default=8, help="mesh side length")

    p = sub.add_parser("trace",
                       help="simulate and print a text Gantt chart")
    p.add_argument("key")
    p.add_argument("--frames", type=_frames, default=1)
    p.add_argument("--width", type=int, default=100)

    p = sub.add_parser(
        "profile",
        help="simulate with full telemetry: metrics, critical path, hints",
    )
    _add_run_args(p)
    _add_span_args(p)
    p.add_argument("--timeline", action="store_true",
                   help="print the text Gantt + channel occupancy view")
    p.add_argument("--width", type=int, default=100)
    _add_fault_args(p)
    _add_noc_args(p)

    p = sub.add_parser("suite", help="run the Figure 13 table")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")

    p = sub.add_parser(
        "explore",
        help="run a design-space sweep spec through the parallel engine",
    )
    p.add_argument("spec", help="path to a sweep spec JSON file")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (0 = serial in-process, "
                        "-1 = one per CPU but one, which is left to "
                        "the parent)")
    p.add_argument("--retries", type=int,
                   default=defaults(SweepOptions)["retries"],
                   help="extra attempts for transient job failures")
    p.add_argument("--cache-dir", default=".explore-cache",
                   help="content-addressed result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="execute every job even when cached")
    p.add_argument("--store", default=None,
                   help="append terminal records to this JSONL file")
    p.add_argument("--resume", default=None, metavar="STORE",
                   help="skip jobs with a successful record in this "
                        "JSONL store from an earlier run (failures "
                        "retry); composes with the cache")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress events")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary output")

    from .serve import DEFAULT_PORT, ServiceConfig

    service = defaults(ServiceConfig)
    p = sub.add_parser(
        "serve",
        help="run the resident multi-tenant sweep service "
             "(see docs/serving.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT,
                   help="listening port (0 = ephemeral)")
    p.add_argument("--data-dir", default=".repro-serve", dest="data_dir",
                   help="durable state: sharded cache, JSONL store, "
                        "run registry, event logs")
    p.add_argument("--workers", type=int, default=service["workers"],
                   help="concurrent jobs across all runs (each in its "
                        "own crash-isolated worker process)")
    p.add_argument("--retries", type=int, default=service["retries"],
                   help="extra attempts for transient job failures")
    p.add_argument("--retry-timeouts", action="store_true",
                   dest="retry_timeouts",
                   help="retry timed-out jobs (default: terminal)")
    p.add_argument("--heartbeat-s", type=float, default=None,
                   dest="heartbeat_s", metavar="SECONDS",
                   help="watchdog: kill workers whose heartbeat file goes "
                        "stale for this long (default: off)")
    p.add_argument("--quarantine-after", type=int,
                   default=service["quarantine_after"],
                   dest="quarantine_after", metavar="N",
                   help="park a job fingerprint after N consecutive "
                        "crashes instead of retrying forever (0 = off)")
    p.add_argument("--chaos", default=None, metavar="FILE",
                   help="arm deterministic fault injection from a "
                        "ChaosSpec JSON file (see docs/chaos.md)")
    p.add_argument("--chaos-seed", type=int, default=None,
                   dest="chaos_seed", metavar="N",
                   help="override the chaos spec's seed")
    p.add_argument("--dashboard", action="store_true",
                   help="aggregate live metrics and serve GET /v1/metrics "
                        "+ the /v1/dashboard web page (see "
                        "docs/dashboard.md)")

    p = sub.add_parser(
        "dash",
        help="serve the metrics dashboard over a sweep data dir, "
             "no scheduler needed (see docs/dashboard.md)",
    )
    p.add_argument("--data-dir", default=".repro-serve", dest="data_dir",
                   help="service data dir to aggregate (event logs + "
                        "JSONL store)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listening port (0 = ephemeral)")
    p.add_argument("--snapshot", action="store_true",
                   help="print the canonical JSON metrics snapshot and "
                        "exit instead of serving")

    p = sub.add_parser(
        "chaos",
        help="run the fault-injection scenario matrix against live "
             "service instances (see docs/chaos.md)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="chaos seed; the whole matrix is bit-reproducible "
                        "per (scenario, seed)")
    p.add_argument("--scenarios", default="",
                   help="comma-separated scenario names (default: all)")
    p.add_argument("--data-dir", default=".repro-chaos", dest="data_dir",
                   help="scratch root; each scenario gets a subdirectory "
                        "with its service data dir and event logs")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="also write the full report as JSON to FILE")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")

    def _client_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
                       help="service base URL")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("submit", help="submit a sweep spec to the service")
    p.add_argument("spec", help="path to a sweep spec JSON file")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first on the shared queue")
    p.add_argument("--tenant", default="",
                   help="tenant label recorded on the run and its records")
    p.add_argument("--watch", action="store_true",
                   help="stream the run's events until its terminal event")
    _client_args(p)

    p = sub.add_parser("watch", help="stream a run's typed progress events")
    p.add_argument("run", help="run id (from submit or jobs)")
    _client_args(p)

    p = sub.add_parser("jobs", help="list the service's runs")
    _client_args(p)

    p = sub.add_parser("cancel", help="cancel a run on the service")
    p.add_argument("run", help="run id (from submit or jobs)")
    _client_args(p)
    return parser


_COMMANDS = {
    "list": cmd_list,
    "describe": cmd_describe,
    "compile": cmd_compile,
    "simulate": cmd_simulate,
    "dot": cmd_dot,
    "schedule": cmd_schedule,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "energy": cmd_energy,
    "suite": cmd_suite,
    "explore": cmd_explore,
    "serve": cmd_serve,
    "dash": cmd_dash,
    "chaos": cmd_chaos,
    "submit": cmd_submit,
    "watch": cmd_watch,
    "jobs": cmd_jobs,
    "cancel": cmd_cancel,
}


def main(argv: list[str] | None = None) -> int:
    from .errors import BlockParallelError

    args = build_parser().parse_args(argv)
    as_json = getattr(args, "json", False)
    try:
        out = _COMMANDS[args.command](args)
        shown = out.payload if as_json else out.text
        if shown is not None:
            print(json.dumps(shown, indent=2, default=str) if as_json
                  else shown)
        return out.code
    except KeyError as exc:  # unknown benchmark key
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # output piped into head/less and closed
        return 0
    except (OSError, BlockParallelError) as exc:
        # unreadable sweep spec, malformed spec, cache I/O failure, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
