"""Time every kernel body: ``execute()`` wall per ``(kernel class, method)``.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/body_profile.py APP [--frames N] \
        [--mapping greedy|1:1] [--content all|none] [--top K] [--events]
    PYTHONPATH=src python scripts/body_profile.py --sweep [--seed N] \
        [--content all|none] [--top K] [--events]

``APP`` is a suite key (``repro list``); ``--sweep`` is the 24-job
``image_pipeline`` grid of the ``sweep_cold`` bench workload (widths 16
and 24, height 12, two frames, six rates drawn by ``--seed`` as the
workload draws them, ``greedy`` and ``1:1``), each job compiled and
simulated in this process the way ``repro.explore.execute_job`` does.
``--content none`` asks for no output content (``simulate(...,
content=())``, what every sweep job asks for); ``all`` asks for every
output (``content=None``, the default of a direct ``simulate``).

Every ``RuntimeKernel.execute`` call is timed, so a row is the whole
firing — consumption, the body, emission and cost accounting — not the
body alone; an already-skipped body reads the cost of ``execute``
itself.  Token forwards are the ``<forward>`` rows.  The instrumented
wall is printed with the table: the timer costs about a microsecond a
firing, so it is not the wall of an uninstrumented run.

``--events`` prints what the event loop spent its events on instead,
uninstrumented: :attr:`~repro.sim.SimulationResult.event_counts` summed
over the runs — source deliveries, firing finishes and NoC arrivals by
kind, and polls by outcome (``fire``, ``busy``, ``running``, ``empty``,
``stall``, ``dead``, ``io``).
"""

from __future__ import annotations

import argparse
import collections
import random
import sys
import time

from repro.apps.suite import BENCHMARK_PROCESSOR, benchmark
from repro.explore import SweepSpec
from repro.sim import SimulationOptions, simulate
from repro.sim.runtime import RuntimeKernel
from repro.transform import CompileOptions, compile_application

#: The ``sweep_cold`` grid (bench/workloads.py): axes and the rate pool
#: the seed samples six rates from.
SWEEP_WIDTHS = (16, 24)
SWEEP_MAPPINGS = ("greedy", "1:1")
SWEEP_RATE_POOL = tuple(range(40, 400, 2))


def suite_runs(key: str, frames: int, mapping: str) -> list[tuple]:
    """One ``(compiled, frames)`` run: suite app ``key``."""
    compiled = compile_application(
        benchmark(key).application(), BENCHMARK_PROCESSOR,
        CompileOptions(mapping=mapping))
    return [(compiled, frames)]


def sweep_runs(seed: int) -> list[tuple]:
    """The 24 ``(compiled, frames)`` runs of the bench sweep grid."""
    rates = sorted(random.Random(seed).sample(SWEEP_RATE_POOL, 6))
    jobs = SweepSpec.from_dict({
        "name": "bench-grid", "app": "image_pipeline", "frames": 2,
        "axes": {"width": list(SWEEP_WIDTHS), "rate_hz": rates,
                 "mapping": list(SWEEP_MAPPINGS)},
        "fixed": {"height": 12},
    }).jobs()
    return [(compile_application(job.build_app(), job.build_processor(),
                                 job.build_options()), job.frames)
            for job in jobs]


def profile(runs, content) -> tuple[list[tuple], int, float]:
    """Simulate each run with every ``execute()`` timed.

    Returns ``(rows, firings, wall)``: one ``(class, method, firings,
    seconds)`` row per kernel class and method, slowest first; the
    simulators' own firing count; the instrumented ``simulate`` wall.
    """
    seconds: collections.Counter = collections.Counter()
    counts: collections.Counter = collections.Counter()
    execute = RuntimeKernel.execute
    clock = time.perf_counter

    def timed(self, firing):
        started = clock()
        result = execute(self, firing)
        key = (type(self.kernel).__name__, result.label)
        seconds[key] += clock() - started
        counts[key] += 1
        return result

    firings = 0
    wall = 0.0
    RuntimeKernel.execute = timed
    try:
        for compiled, frames in runs:
            started = clock()
            result = simulate(compiled, SimulationOptions(frames=frames),
                              content=content)
            wall += clock() - started
            firings += sum(result.firings.values())
    finally:
        RuntimeKernel.execute = execute
    rows = sorted(((cls, method, counts[cls, method], s)
                   for (cls, method), s in seconds.items()),
                  key=lambda row: -row[3])
    return rows, firings, wall


def event_counts(runs, content) -> collections.Counter:
    """``SimulationResult.event_counts`` summed over the runs."""
    counts: collections.Counter = collections.Counter()
    for compiled, frames in runs:
        counts.update(simulate(compiled, SimulationOptions(frames=frames),
                               content=content).event_counts)
    return counts


#: Row order of the event table: event kinds, then poll outcomes.
EVENT_ROWS = ("deliver", "finish", "arrive", "fire", "busy", "running",
              "empty", "stall", "dead", "io")


def render_events(counts) -> str:
    total = sum(counts[key] for key in EVENT_ROWS)
    lines = [
        f"{total} events, {counts['source_pops']} source pops",
        "",
        "| event | count | share |",
        "| --- | ---: | ---: |",
    ]
    for key in EVENT_ROWS:
        label = key if key in ("deliver", "finish", "arrive") \
            else f"poll: {key}"
        lines.append(f"| {label} | {counts[key]} "
                     f"| {counts[key] / total:.1%} |")
    return "\n".join(lines)


def render(rows, wall: float, top: int | None = None) -> str:
    body = sum(row[3] for row in rows)
    lines = [
        f"execute() {body * 1e3:.1f} ms of {wall * 1e3:.1f} ms "
        "instrumented simulate wall",
        "",
        "| kernel.method | firings | ms | µs / firing |",
        "| --- | ---: | ---: | ---: |",
    ]
    for cls, method, count, s in rows[:top]:
        lines.append(f"| `{cls}.{method}` | {count} | {s * 1e3:.1f} "
                     f"| {s / count * 1e6:.2f} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="per-(kernel class, method) execute() time")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("app", nargs="?", help="suite key, e.g. 5")
    target.add_argument("--sweep", action="store_true",
                        help="the sweep_cold bench grid (24 jobs)")
    parser.add_argument("--frames", type=int, default=4)
    parser.add_argument("--mapping", default="greedy",
                        choices=("greedy", "1:1"))
    parser.add_argument("--seed", type=int, default=0,
                        help="draws the sweep grid's rates")
    parser.add_argument("--content", default="none",
                        choices=("all", "none"))
    parser.add_argument("--top", type=int, default=None,
                        help="print only the K slowest rows")
    parser.add_argument("--events", action="store_true",
                        help="count events by kind and polls by outcome")
    args = parser.parse_args(argv)
    runs = (sweep_runs(args.seed) if args.sweep
            else suite_runs(args.app, args.frames, args.mapping))
    content = None if args.content == "all" else ()
    if args.events:
        print(render_events(event_counts(runs, content)))
        return 0
    rows, _, wall = profile(runs, content)
    print(render(rows, wall, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
