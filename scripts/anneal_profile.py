"""Time the placement annealer: ms and iterations/s per app and objective.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/anneal_profile.py [--apps FB BF 5] \
        [--objectives energy makespan] [--repeat N] [--iterations N]

Each app is a suite key (``repro list``), compiled with the default
options and placed on ``fit_chip`` — the smallest square mesh holding its
processors, the chip the ``compile_search`` bench workload anneals on.
Every ``(app, objective)`` row is the best of ``--repeat`` seed-0 runs of
``anneal_placement``.  No bench workload runs the ``makespan`` objective,
so this script is where its cost is measured.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.apps.suite import BENCHMARK_PROCESSOR, benchmark
from repro.machine import anneal_placement, fit_chip
from repro.transform import compile_application

APPS = ("FB", "BF", "5")
OBJECTIVES = ("energy", "makespan")


def profile(apps, objectives, repeat: int, iterations: int) -> list[tuple]:
    """One ``(app, mesh side, objective, best seconds)`` row per pair."""
    rows = []
    for key in apps:
        compiled = compile_application(
            benchmark(key).application(), BENCHMARK_PROCESSOR)
        chip = fit_chip(compiled.mapping.processor_count, BENCHMARK_PROCESSOR)
        for objective in objectives:
            best = float("inf")
            for _ in range(repeat):
                started = time.perf_counter()
                anneal_placement(compiled.mapping, compiled.dataflow, chip,
                                 seed=0, iterations=iterations,
                                 objective=objective)
                best = min(best, time.perf_counter() - started)
            rows.append((key, chip.cols, objective, best))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", nargs="+", default=list(APPS))
    parser.add_argument("--objectives", nargs="+", default=list(OBJECTIVES),
                        choices=OBJECTIVES)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--iterations", type=int, default=20_000)
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.iterations < 1:
        parser.error("--repeat and --iterations must be at least 1")
    rows = profile(args.apps, args.objectives, args.repeat, args.iterations)
    print(f"anneal_placement, {args.iterations} iterations, "
          f"best of {args.repeat}")
    print()
    print("| app | mesh | objective | ms | iterations/s |")
    print("| --- | ---: | --- | ---: | ---: |")
    for key, side, objective, seconds in rows:
        print(f"| {key} | {side}x{side} | {objective} | "
              f"{seconds * 1e3:.1f} | {args.iterations / seconds:,.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
