#!/usr/bin/env python3
"""The repo's benchmark: six workloads, every layer, one command.

Two ways in:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process (the form ``BENCHMARK.json`` names).
    The last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``: every
    end-to-end metric with ``--trace 0``, every per-layer metric with
    ``--trace 1``.

``python3 bench/run.py --seed N [--repeat K] [--aa] [--quick]``
    The whole suite: each workload in a fresh subprocess, untraced then
    traced, printed as tables and written to ``bench/out/``.  ``--aa``
    runs the suite twice and hands both result files to ``compare.py``.

See ``bench/README.md`` for what each number means and which workload it
should move.
"""

from __future__ import annotations

import os
import time

_PROCESS_START = time.perf_counter()

# One BLAS/OpenMP thread: the kernels are tiny and a thread pool that
# wakes on a 2-core box is pure run-to-run noise.  Must precede numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from harness import (  # noqa: E402
    OUT_DIR,
    ROOT,
    Goldens,
    Tracer,
    iqr_spread,
    load_contract,
    median,
    percentile,
)

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Share of a traced run's ``--seconds`` spent untraced first, the base
#: of ``bench.trace_overhead``.
BASELINE_SHARE = 0.3
QUICK_SECONDS = 2
#: Fewest request latencies a percentile is taken over.
CHUNK_REQUESTS = 20


def run_rounds(workload, seconds: float) -> None:
    """Whole rounds until ``seconds`` are spent (at least one)."""
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    while True:
        workload.round()
        if time.perf_counter() - started >= seconds:
            break
    gc.unfreeze()


def block_seconds(workload) -> float:
    """One pass over every block kind at its lower-quartile wall.

    Host noise on a shared box is additive — a burst only ever slows a
    block down — so the lower quartile of a kind's walls estimates its
    undisturbed cost more steadily than the median and, unlike the
    minimum, does not hang on one sample.
    """
    return sum(percentile(walls, 25) for walls in workload.walls.values())


def latency_chunks(rounds: list[list[float]]) -> list[list[float]]:
    """Consecutive whole rounds, grouped until a chunk holds
    ``CHUNK_REQUESTS`` latencies.

    Latency percentiles are taken within a chunk and the median over
    chunks is reported: every round issues the same request list, so a
    chunk's percentile is a fixed blend of the kinds' latencies, and an
    interference burst spoils the chunks it hits instead of deciding the
    whole tail.
    """
    chunks: list[list[float]] = [[]]
    for latencies in rounds:
        if len(chunks[-1]) >= CHUNK_REQUESTS:
            chunks.append([])
        chunks[-1].extend(latencies)
    if len(chunks) > 1 and len(chunks[-1]) < CHUNK_REQUESTS:
        chunks[-2].extend(chunks.pop())
    return chunks


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload in this process; the driver-facing result."""
    from workloads import WORKLOADS  # imports repro: part of set-up time

    contract = load_contract()
    tracer = Tracer(enabled=False)
    tmp = OUT_DIR / f"tmp-{name}-{os.getpid()}"
    workload = WORKLOADS[name](seed, tracer, Goldens(), tmp)
    import_s = time.perf_counter() - _PROCESS_START

    setups = []
    try:
        for attempt in range(1 if trace else SETUP_REPEATS):
            if attempt:
                workload.teardown()
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)

        if trace:
            run_rounds(workload, seconds * BASELINE_SHARE)
            untraced_s = block_seconds(workload)
            workload.reset()
            tracer.enabled = True
            run_rounds(workload, seconds * (1.0 - BASELINE_SHARE))
        else:
            run_rounds(workload, seconds)
        workload.finish()

        failed = min(len(workload.failures), workload.attempted)
        for problem in workload.failures[:20]:
            print(f"FAILED {problem}", file=sys.stderr)
        if trace:
            measured = workload.layer_metrics()
            measured["bench.trace_overhead"] = (
                block_seconds(workload) / untraced_s)
            measured["bench.verify_s"] = workload.verify_s
            tracer.write(OUT_DIR / f"trace-{name}.json")
            declared = contract["per_layer"]
        else:
            usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            chunks = latency_chunks(workload.latencies)
            measured = {
                "setup_s": import_s + median(setups),
                "work_per_s": (sum(workload.units.values())
                               / block_seconds(workload)),
                "req_p50_ms": median(percentile(c, 50) for c in chunks) * 1e3,
                "req_p90_ms": median(percentile(c, 90) for c in chunks) * 1e3,
                "peak_rss_mb": usage / 1024.0,
            }
            declared = contract["end_to_end"]
    finally:
        workload.teardown()
        shutil.rmtree(tmp, ignore_errors=True)

    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    # A layer this workload does not cross reports 0 for its metrics.
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in declared
    }
    return {
        "correct": failed == 0,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Suite mode


def environment(seed: int) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.exists():
        sha = head.read_text().strip()
        if sha.startswith("ref: ") and (ROOT / ".git" / sha[5:]).exists():
            sha = (ROOT / ".git" / sha[5:]).read_text().strip()
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": sha,
    }


def spawn(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One workload in a fresh interpreter; its parsed last line."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace={trace}) exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"workload": name, "seed": seed, "trace": trace, **result}


def run_suite(seed: int, seconds: int, repeat: int, trace: bool,
              out: Path) -> dict:
    contract = load_contract()
    runs = []
    for workload in contract["workloads"]:
        name = workload["name"]
        for i in range(repeat):
            runs.append(spawn(name, seed + i, seconds, 0))
            print_run(runs[-1], contract["end_to_end"])
    if trace:
        for workload in contract["workloads"]:
            runs.append(spawn(workload["name"], seed, seconds, 1))
            print_run(runs[-1], contract["per_layer"], skip_zero=True)
    if repeat >= 4:
        print_spreads(runs, contract)
    suite = {"environment": environment(seed), "seconds": seconds,
             "runs": runs}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(suite, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return suite


def print_run(run: dict, declared: list, skip_zero: bool = False) -> None:
    verdict = "ok" if run["correct"] else "INCORRECT"
    print(f"\n== {run['workload']} seed={run['seed']} "
          f"{'traced' if run['trace'] else 'untraced'}: {verdict}, "
          f"{run['attempted']} requests, {run['failed']} failed "
          f"(fail_ratio {run['failed'] / run['attempted']:.4f})")
    for metric in declared:
        value = run["metrics"][metric["name"]]["value"]
        if skip_zero and value == 0.0:
            continue
        print(f"  {metric['name']:<34} {value:>16.4f} {metric['unit']}")


def print_spreads(runs: list, contract: dict) -> None:
    print("\n== spread over seeds: (Q3-Q1)/median, bound from BENCHMARK.json")
    for workload in contract["workloads"]:
        mine = [r for r in runs
                if r["workload"] == workload["name"] and not r["trace"]]
        for metric in contract["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in mine]
            spread = iqr_spread(values)
            flag = "" if spread <= metric["bound"] / 3 else (
                "  > bound/3" if spread <= metric["bound"] else "  > BOUND")
            print(f"  {workload['name']:<15} {metric['name']:<12} "
                  f"median {median(values):>12.4f} {metric['unit']:<8} "
                  f"spread {spread:6.3f} (bound {metric['bound']}){flag}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="timed seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS}-second runs (smoke test sizes)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: untraced runs per workload, seeds "
                             "seed..seed+repeat-1; >= 4 prints spreads")
    parser.add_argument("--no-trace", action="store_true",
                        help="suite: skip the traced pass")
    parser.add_argument("--aa", action="store_true",
                        help="suite twice on the same code, then compare.py")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = (QUICK_SECONDS if args.quick
                   else load_contract()["run_seconds"])

    if args.workload:
        result = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace))
        print(json.dumps(result))
        return 0

    print(f"environment: {json.dumps(environment(args.seed))}")
    first = OUT_DIR / f"suite-seed{args.seed}-a.json"
    run_suite(args.seed, seconds, args.repeat, not args.no_trace, first)
    if args.aa:
        from compare import compare_files

        second = OUT_DIR / f"suite-seed{args.seed}-b.json"
        run_suite(args.seed, seconds, args.repeat, not args.no_trace, second)
        return compare_files(first, second)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
