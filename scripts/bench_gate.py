"""CI benchmark regression gate over ``BENCH_sim.json``.

Usage (from the repository root)::

    python scripts/bench_gate.py BASELINE.json FRESH.json \
        [--max-regression 0.15] [--summary PATH]

Compares a freshly generated ``BENCH_sim.json`` against the committed
baseline and fails (exit 1) when either:

* any per-app entry's ``events_per_s`` regresses by more than
  ``--max-regression`` (default 15%) against the baseline entry with the
  same ``(app, chip)`` key, or
* a ratio block (``telemetry``, ``content``) in the fresh payload
  breaks its own published ceiling — the ceilings live in the payload,
  written by the benchmark harness, so the gate and the harness can
  never disagree about what the ceiling is, or
* ``telemetry.overhead`` (telemetry-on wall over telemetry-off wall) or
  ``content.ratio`` (no-content wall over full-content wall) rises by
  more than ``--max-regression`` over the baseline's: each a ratio of
  two runs on one runner, so it is comparable across runner classes and
  a creep under the ceiling still shows.

A per-app delta table (GitHub-flavoured markdown) is always printed; it
is additionally appended to ``--summary`` when given, or to the file
named by ``$GITHUB_STEP_SUMMARY`` when that variable is set, so the
numbers land on the workflow run page whether or not the gate trips.

Speedups *improving* never fail the gate, and a fresh entry with no
baseline counterpart (a newly added app or chip size) is reported but
not gated — the next committed baseline picks it up.  A *missing* fresh
entry for a baseline key fails: silently dropping an app from the
benchmark is itself a regression.

The gate is deliberately asymmetric with the harness's own assertions:
the harness asserts ratio bars (stable across runner classes), the
gate additionally pins absolute throughput against the baseline from
the same runner class, which is what catches a slow creep that keeps
every ratio intact.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

#: Same-process wall ratios, lower is better: block key -> (metric, the
#: key of its published ceiling beside it).  Each is gated against its
#: ceiling and against the baseline's value.
RATIOS = {
    "telemetry": ("overhead", "max_overhead"),
    "content": ("ratio", "max_ratio"),
}


def _entries_by_key(payload: dict) -> dict[tuple[str, str], dict]:
    return {
        (e["app"], e["chip"]["name"]): e for e in payload.get("entries", ())
    }


def gate(
    baseline: dict, fresh: dict, max_regression: float
) -> tuple[list[str], list[str]]:
    """Return ``(table_lines, failures)`` for the comparison."""
    base = _entries_by_key(baseline)
    new = _entries_by_key(fresh)
    failures: list[str] = []
    lines = [
        "| app | chip | baseline ev/s | fresh ev/s | delta | status |",
        "|---|---|---:|---:|---:|---|",
    ]

    for key in sorted(set(base) | set(new)):
        app, chip = key
        b = base.get(key)
        f = new.get(key)
        if f is None:
            failures.append(
                f"entry {app}@{chip} present in the baseline but missing "
                f"from the fresh run"
            )
            lines.append(
                f"| {app} | {chip} | {b['events_per_s']:,.0f} | — | — "
                f"| **missing** |"
            )
            continue
        if b is None:
            lines.append(
                f"| {app} | {chip} | — | {f['events_per_s']:,.0f} | — "
                f"| new (ungated) |"
            )
            continue
        delta = f["events_per_s"] / b["events_per_s"] - 1.0
        ok = delta >= -max_regression
        status = "ok" if ok else f"**regressed > {max_regression:.0%}**"
        lines.append(
            f"| {app} | {chip} | {b['events_per_s']:,.0f} "
            f"| {f['events_per_s']:,.0f} | {delta:+.1%} | {status} |"
        )
        if not ok:
            failures.append(
                f"app {app}@{chip}: events_per_s {b['events_per_s']:,.0f} "
                f"-> {f['events_per_s']:,.0f} ({delta:+.1%}, limit "
                f"-{max_regression:.0%})"
            )

    for block, (metric, ceiling) in RATIOS.items():
        head = fresh.get(block)
        if head is None:
            if block in baseline:
                failures.append(
                    f"{block} present in the baseline but missing from "
                    f"the fresh run"
                )
            continue
        value, bar = head[metric], head[ceiling]
        ok = value <= bar
        status = "ok" if ok else "**above ceiling**"
        lines.append(
            f"| {block} | — | {metric} <= {bar:g} | {value:.3f} "
            f"| — | {status} |"
        )
        if not ok:
            failures.append(
                f"{block}.{metric} = {value:.3f} violates the "
                f"published bar ({metric} <= {bar:g})"
            )
        if block not in baseline:
            continue
        was, now = baseline[block][metric], value
        rise = now / was - 1.0
        ok = rise <= max_regression
        status = "ok" if ok else f"**rose > {max_regression:.0%}**"
        lines.append(
            f"| {block} | — | {metric} {was:.3f} | {now:.3f} "
            f"| {rise:+.1%} | {status} |"
        )
        if not ok:
            failures.append(
                f"{block}.{metric} {was:.3f} -> {now:.3f} ({rise:+.1%}, "
                f"limit +{max_regression:.0%})"
            )

    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when BENCH_sim.json regresses against a baseline."
    )
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("fresh", type=pathlib.Path)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        metavar="FRACTION",
        help="tolerated per-app events_per_s drop (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--summary",
        type=pathlib.Path,
        default=None,
        help="markdown file to append the delta table to "
        "(default: $GITHUB_STEP_SUMMARY when set)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    lines, failures = gate(baseline, fresh, args.max_regression)

    verdict = (
        "bench gate: **FAIL**" if failures else "bench gate: pass"
    )
    table = "\n".join(["### Simulator benchmark gate", "", verdict, ""]
                      + lines) + "\n"
    print(table)

    summary = args.summary
    if summary is None and os.environ.get("GITHUB_STEP_SUMMARY"):
        summary = pathlib.Path(os.environ["GITHUB_STEP_SUMMARY"])
    if summary is not None:
        with summary.open("a") as fh:
            fh.write(table + "\n")

    if failures:
        for failure in failures:
            print(f"bench gate: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
