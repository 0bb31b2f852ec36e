"""Critical-path analysis over the telemetry span stream.

Reconstructs the event-dependency structure of one simulation without
re-simulating: a firing's start time is always *caused* by one of

* the **data** constraint — its last-arriving input (the wait span whose
  arrival equals the firing's start), produced by the upstream firing
  that finished at exactly that instant;
* the **processor** constraint — the firing (or fault-retry window) that
  occupied the same processing element until exactly the start instant
  (time multiplexing, Section V);
* the **source** constraint — the application input had not injected the
  data yet (the paper's unstallable-input axiom: nothing upstream can be
  optimized, the pipeline is keeping up).

Walking those tight constraints backwards from the last-finishing firing
yields a contiguous chain from t=0 to the makespan: the critical path.
Its segment durations sum to the makespan exactly — the property the
acceptance test pins — so "what bounds the makespan" becomes a
composition question: how much of the path is kernel K's firings, fault
recovery, or input pacing.

The backward slack pass then answers the dual question per kernel: how
much later could its firings finish without moving the makespan.
Kernels on the critical path have zero slack; big-slack kernels are
safe to narrow (fewer PEs) when trading area for schedule.

The report ends in actionable hints tied to
:class:`~repro.transform.CompileOptions` — which kernel to widen, which
buffer/channel to split, whether the app is input-bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

from .collect import Telemetry

__all__ = ["PathSegment", "CriticalPathReport", "analyze_critical_path"]


def _tight(a: float, b: float) -> bool:
    """Whether two simulated times are the same instant.

    Event times propagate exactly (a FINISH is pushed with the same
    float the next poll pops), so equality is usually exact; the
    tolerance only absorbs repeated float summation along long chains.
    """
    return a == b or math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


#: Row slots the walk reads (layouts in :mod:`.spans`).  A firing row and
#: a fault row agree on these, so a PE's occupants — its firings and the
#: windows fault retries held it for — are walked as rows, unconverted.
_SEQ, _START, _PROC = 1, 2, 5
_BY_START = itemgetter(_START, _SEQ)


@dataclass(frozen=True, slots=True)
class PathSegment:
    """One link of the critical path, in chronological order."""

    #: "firing" | "fault" | "input" | "drain"
    kind: str
    kernel: str
    method: str
    processor: int | None
    start_s: float
    duration_s: float
    #: What bound this segment's *start*: "data", "processor", "source",
    #: "t0" (the chain reached time zero), or "gap".
    constraint: str

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "kernel": self.kernel, "method": self.method,
            "processor": self.processor, "start_s": self.start_s,
            "duration_s": self.duration_s, "constraint": self.constraint,
        }


@dataclass(slots=True)
class CriticalPathReport:
    """The reconstructed critical path plus slack and tuning hints."""

    makespan_s: float
    segments: list[PathSegment]
    #: Busy seconds on the path per kernel (input/drain excluded).
    busy_by_kernel: dict[str, float]
    #: Seconds the path spent waiting on the application input(s).
    input_s: float
    #: Seconds the path spent in fault detection/backoff windows.
    fault_s: float
    #: Seconds the path start was bound by processor contention.
    contended_s: float
    #: Per-kernel slack: how much later the kernel's firings could end
    #: without moving the makespan (0 == on the critical path).
    slack_by_kernel: dict[str, float] = field(default_factory=dict)
    hints: list[str] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(seg.duration_s for seg in self.segments)

    @property
    def bound(self) -> str:
        """Dominant composition: "input" | "compute" | "faults"."""
        busy = sum(self.busy_by_kernel.values())
        top = max(
            (("input", self.input_s), ("compute", busy),
             ("faults", self.fault_s)),
            key=lambda kv: kv[1],
        )
        return top[0]

    def top_kernels(self, n: int = 5) -> list[tuple[str, float]]:
        return sorted(self.busy_by_kernel.items(),
                      key=lambda kv: (-kv[1], kv[0]))[:n]

    def as_dict(self) -> dict:
        """JSON-safe summary (full segments via ``segments_as_dicts``)."""
        return {
            "makespan_s": self.makespan_s,
            "path_s": self.total_s,
            "segments": len(self.segments),
            "bound": self.bound,
            "input_s": self.input_s,
            "fault_s": self.fault_s,
            "contended_s": self.contended_s,
            "busy_by_kernel": {
                k: v for k, v in sorted(self.busy_by_kernel.items())
            },
            "slack_by_kernel": {
                k: v for k, v in sorted(self.slack_by_kernel.items())
            },
            "hints": list(self.hints),
        }

    def segments_as_dicts(self) -> list[dict]:
        return [seg.as_dict() for seg in self.segments]

    def describe(self, *, max_rows: int = 14) -> str:
        ms = self.makespan_s * 1e3
        lines = [
            f"critical path: {len(self.segments)} segments covering "
            f"{self.total_s * 1e3:.3f} ms of a {ms:.3f} ms makespan "
            f"({self.bound}-bound)"
        ]
        # Merge consecutive same-kernel segments for readability.
        merged: list[list] = []
        for seg in self.segments:
            key = (seg.kind, seg.kernel)
            if merged and (merged[-1][0], merged[-1][1]) == key:
                merged[-1][2] += seg.duration_s
                merged[-1][3] += 1
            else:
                merged.append([seg.kind, seg.kernel, seg.duration_s, 1])
        shown = merged if len(merged) <= max_rows else (
            merged[: max_rows // 2] + [None] + merged[-max_rows // 2:]
        )
        for row in shown:
            if row is None:
                lines.append(f"    ... {len(merged) - max_rows} more ...")
                continue
            kind, kernel, dur, count = row
            label = kernel if kind == "firing" else f"[{kind}] {kernel}".strip()
            share = dur / self.makespan_s if self.makespan_s > 0 else 0.0
            lines.append(
                f"  {dur * 1e3:9.3f} ms {share:6.1%}  {label}"
                + (f"  x{count}" if count > 1 else "")
            )
        top = self.top_kernels(3)
        if top:
            lines.append("top kernels on path: " + ", ".join(
                f"{k} ({v * 1e3:.3f} ms)" for k, v in top
            ))
        if self.slack_by_kernel:
            slack = sorted(self.slack_by_kernel.items(),
                           key=lambda kv: (kv[1], kv[0]))
            lines.append("least slack: " + ", ".join(
                f"{k} ({v * 1e3:.3f} ms)" for k, v in slack[:3]
            ))
        for hint in self.hints:
            lines.append(f"hint: {hint}")
        return "\n".join(lines)


def analyze_critical_path(telemetry: Telemetry) -> CriticalPathReport:
    """Reconstruct the critical path from one run's telemetry."""
    makespan = telemetry.makespan_s
    firings: list[tuple] = []
    retries: list[tuple] = []
    #: seq -> duration / end of every firing and retry window.
    duration_of: dict[int, float] = {}
    end_of: dict[int, float] = {}
    #: Producer lookup: (kernel, finish time) -> latest such firing.
    by_kernel_end: dict[tuple[str, float], tuple] = {}
    #: consumer firing seq -> the wait rows of its inputs.
    waits_by_consumer: dict[int, list[tuple]] = {}
    #: (producer, arrival) -> seqs of the firings that consumed it.
    consumers_of: dict[tuple[str, float], list[int]] = {}
    for row in telemetry.rows:
        kind = row[0]
        if kind == "firing":
            _, seq, start, kernel, _, _, read_s, run_s, write_s, _ = row
            duration_of[seq] = duration = read_s + run_s + write_s
            end_of[seq] = end = start + duration
            firings.append(row)
            by_kernel_end[kernel, end] = row  # rows come in seq order
        elif kind == "wait":
            _, _, consumer_seq, arrival, _, _, _, src = row
            waits_by_consumer.setdefault(consumer_seq, []).append(row)
            consumers_of.setdefault((src, arrival), []).append(consumer_seq)
        elif kind == "fault":
            _, seq, start, action, _, proc, _, duration, _ = row
            if action == "retry" and proc is not None:
                # detect + backoff: the window the PE was held for.
                duration_of[seq] = duration
                end_of[seq] = start + duration
                retries.append(row)
    if not firings:
        return CriticalPathReport(
            makespan_s=makespan, segments=[], busy_by_kernel={},
            input_s=0.0, fault_s=0.0, contended_s=0.0,
            hints=["no firings recorded: nothing to analyze"],
        )

    #: Per-PE occupancy (firings + retry windows), sorted by start.
    occupancy: dict[int, list[tuple]] = {}
    for row in firings:
        if row[_PROC] is not None:
            occupancy.setdefault(row[_PROC], []).append(row)
    for row in retries:
        occupancy.setdefault(row[_PROC], []).append(row)
    for items in occupancy.values():
        items.sort(key=_BY_START)

    # ---- backward walk over tight constraints ------------------------
    sink = max(firings, key=lambda row: (end_of[row[_SEQ]], row[_SEQ]))
    chain: list[tuple[tuple, str]] = []  # (row, start-constraint)
    cur = sink
    terminal = "t0"
    input_src = ""
    guard = len(firings) + len(retries) + 8
    while guard > 0:
        guard -= 1
        start = cur[_START]
        if _tight(start, 0.0):
            chain.append((cur, "t0"))
            break
        # Processor constraint: who held the PE until exactly `start`?
        pe_pred = None
        proc = cur[_PROC]
        if proc is not None:
            for item in reversed(occupancy.get(proc, ())):
                if item[_SEQ] >= cur[_SEQ]:
                    continue
                end = end_of[item[_SEQ]]
                if _tight(end, start):
                    pe_pred = item
                    break
                if end < start:
                    break
        if pe_pred is not None:
            chain.append((cur, "processor"))
            cur = pe_pred
            continue
        # Data constraint: the last-arriving consumed input.
        binding = max(waits_by_consumer.get(cur[_SEQ], ()),
                      key=lambda w: (w[3], w[_SEQ]), default=None)
        if binding is not None and _tight(binding[3], start):
            _, _, _, arrival, _, _, _, src = binding
            producer = by_kernel_end.get((src, arrival))
            if producer is not None and producer[_SEQ] < cur[_SEQ]:
                chain.append((cur, "data"))
                cur = producer
                continue
            # No producing firing: the item came straight off an
            # application input's injection schedule (or an init load).
            chain.append((cur, "source"))
            terminal = "source"
            input_src = src
            break
        # No tight predecessor (e.g. a retry backoff boundary whose
        # fault span fell off a capped stream): close with a gap.
        chain.append((cur, "gap"))
        terminal = "gap"
        break

    # ---- assemble chronological segments -----------------------------
    segments: list[PathSegment] = []
    lead = chain[-1][0][_START]
    if terminal in ("source", "gap") and lead > 0.0:
        segments.append(PathSegment(
            kind="input", kernel=input_src, method="",
            processor=None, start_s=0.0, duration_s=lead,
            constraint=terminal,
        ))
    busy_by_kernel: dict[str, float] = {}
    fault_s = 0.0
    contended_s = 0.0
    for row, constraint in reversed(chain):
        kind = row[0]
        duration = duration_of[row[_SEQ]]
        if kind == "fault":
            method, kernel = row[3:5]  # the action stands in as method
            fault_s += duration
        else:
            kernel, method = row[3:5]
            busy_by_kernel[kernel] = busy_by_kernel.get(kernel, 0.0) + duration
        segments.append(PathSegment(
            kind=kind, kernel=kernel, method=method, processor=row[_PROC],
            start_s=row[_START], duration_s=duration, constraint=constraint,
        ))
        if constraint == "processor":
            contended_s += duration
    if segments and makespan - segments[-1].end_s > 1e-12 * max(1.0, makespan):
        # The run's last event (an unconsumed trailing delivery) landed
        # after the last firing: account the remainder explicitly so the
        # path always tiles the makespan.
        segments.append(PathSegment(
            kind="drain", kernel="", method="", processor=None,
            start_s=segments[-1].end_s,
            duration_s=makespan - segments[-1].end_s,
            constraint="gap",
        ))
    input_s = sum(s.duration_s for s in segments if s.kind == "input")

    # ---- slack: backward pass over the dependency DAG ----------------
    #: seq -> the next occupant of the same processing element.
    pe_next: dict[int, tuple] = {}
    for items in occupancy.values():
        for a, b in zip(items, items[1:]):
            pe_next[a[_SEQ]] = b
    latest_end: dict[int, float] = {}
    slack_by_kernel: dict[str, float] = {}
    for row in reversed(firings):
        seq, kernel = row[_SEQ], row[3]
        end = end_of[seq]
        bound = makespan
        nxt = pe_next.get(seq)
        if nxt is not None and nxt[0] == "firing":
            bound = min(bound, latest_end.get(nxt[_SEQ], makespan)
                        - duration_of[nxt[_SEQ]])
        # A consumer missing from duration_of fell off a capped stream.
        for consumer in consumers_of.get((kernel, end), ()):
            if consumer in duration_of:
                bound = min(bound, latest_end.get(consumer, makespan)
                            - duration_of[consumer])
        latest_end[seq] = bound
        slack = bound - end
        prev = slack_by_kernel.get(kernel)
        if prev is None or slack < prev:
            slack_by_kernel[kernel] = slack

    report = CriticalPathReport(
        makespan_s=makespan,
        segments=segments,
        busy_by_kernel=busy_by_kernel,
        input_s=input_s,
        fault_s=fault_s,
        contended_s=contended_s,
        slack_by_kernel=slack_by_kernel,
    )
    report.hints.extend(_hints(report, telemetry))
    return report


def _hints(report: CriticalPathReport, telemetry: Telemetry) -> list[str]:
    """Actionable tuning hints tied back to CompileOptions knobs."""
    hints: list[str] = []
    makespan = report.makespan_s
    if makespan <= 0:
        return hints
    busy = sum(report.busy_by_kernel.values())
    if report.input_s / makespan >= 0.5:
        hints.append(
            f"input-bound ({report.input_s / makespan:.0%} of the path is "
            "input pacing): the pipeline keeps up with its rate; raising "
            "the application input rate_hz (or shrinking the chip) would "
            "raise utilization"
        )
    top = report.top_kernels(1)
    if top and busy > 0:
        kernel, seconds = top[0]
        share = seconds / makespan
        if share >= 0.2:
            hints.append(
                f"widen kernel {kernel!r}: it occupies {share:.0%} of the "
                "critical path — recompile with a lower "
                "CompileOptions.utilization_target (and parallelize=True) "
                "so the compiler splits it across more processing elements"
            )
    if report.contended_s / makespan >= 0.2:
        hints.append(
            f"processor contention binds {report.contended_s / makespan:.0%} "
            "of the path (time multiplexing): try "
            "CompileOptions(mapping='1:1') or a lower utilization_target "
            "to give contended kernels their own elements"
        )
    if report.fault_s / makespan >= 0.1:
        hints.append(
            f"fault recovery occupies {report.fault_s / makespan:.0%} of "
            "the path: reserve CompileOptions.spare_processors for "
            "migration or relax the retry backoff"
        )
    # The deepest queue marks the buffer to split: its producer runs far
    # ahead of its consumer, so splitting the buffer (or bounding the
    # channel) trades memory for schedule.
    deepest = max(
        (
            (g.max, labels.get("edge", ""))
            for name, labels, g in telemetry.metrics.gauges()
            if name == "channel_occupancy"
        ),
        default=(0.0, ""),
    )
    if deepest[0] >= 16:
        hints.append(
            f"split buffer on edge {deepest[1]!r}: its queue peaked at "
            f"{int(deepest[0])} items — a split buffer kernel (see "
            "docs/compiler.md) or a SimulationOptions channel capacity "
            "would bound the producer's run-ahead"
        )
    return hints
