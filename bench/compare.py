#!/usr/bin/env python3
"""Compare two suite result files under the bounds of ``BENCHMARK.json``.

    python3 bench/compare.py bench/out/a.json bench/out/b.json

One row per (workload, metric): both medians, and ``b/a`` with ``a`` as
the base.  An end-to-end metric is a REGRESSION when ``b`` is worse than
``a`` by more than its bound, and *unresolved* — neither "unchanged" nor
"regressed" — when either side's own run-to-run spread exceeds the
bound (needs ``--repeat 4`` or more).  Count-type layer metrics must be
exactly equal: the simulated work may not change under a host-side
optimisation.  Other layer metrics have no bound and are shown only.
``fail_ratio`` (failed / attempted requests) may not rise at all.
Exit code 1 on any regression, unequal count or risen fail_ratio.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from harness import iqr_spread, load_contract, median


def values(suite: dict, workload: str, metric: str, trace: int) -> list:
    return [run["metrics"][metric]["value"] for run in suite["runs"]
            if run["workload"] == workload and run["trace"] == trace
            and metric in run["metrics"]]


def fail_ratio(suite: dict, workload: str) -> float:
    runs = [r for r in suite["runs"] if r["workload"] == workload]
    return (sum(r["failed"] for r in runs)
            / max(1, sum(r["attempted"] for r in runs)))


def judge(metric: dict, a: list, b: list) -> tuple[str, bool]:
    """(verdict, blocks the comparison)."""
    if metric["unit"] == "count":
        return ("equal", False) if a == b else ("DIFFERS", True)
    bound = metric.get("bound")
    if bound is None:
        return "", False
    if min(len(a), len(b)) >= 4 and max(iqr_spread(a), iqr_spread(b)) > bound:
        return "unresolved (spread > bound)", False
    base, new = median(a), median(b)
    worse = (new - base if metric["better"] == "lower" else base - new) / base
    return ("REGRESSION", True) if worse > bound else ("ok", False)


def compare_files(a_path: Path, b_path: Path) -> int:
    contract = load_contract()
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    blocked = 0
    print(f"{'workload':<15} {'metric':<34} {'a (base)':>14} {'b':>14} "
          f"{'b/a':>7}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for trace, declared in ((0, contract["end_to_end"]),
                                (1, contract["per_layer"])):
            for metric in declared:
                va = values(a, workload, metric["name"], trace)
                vb = values(b, workload, metric["name"], trace)
                if not va or not vb or not (any(va) or any(vb)):
                    continue  # not run, or a layer this workload skips
                verdict, blocks = judge(metric, va, vb)
                blocked += blocks
                ma, mb = median(va), median(vb)
                ratio = f"{mb / ma:7.3f}" if ma else "    n/a"
                print(f"{workload:<15} {metric['name']:<34} {ma:>14.4f} "
                      f"{mb:>14.4f} {ratio}  {verdict}")
        fa, fb = fail_ratio(a, workload), fail_ratio(b, workload)
        blocked += fb > fa
        print(f"{workload:<15} {'fail_ratio':<34} {fa:>14.4f} {fb:>14.4f} "
              f"{'':>7}  {'ROSE' if fb > fa else 'ok'}")
    print(f"{blocked} blocking difference(s)")
    return 1 if blocked else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(compare_files(Path(sys.argv[1]), Path(sys.argv[2])))
