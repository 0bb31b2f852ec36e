"""Telemetry exporters: Perfetto/Chrome trace JSON, JSONL spans, text.

The Perfetto export follows the Chrome ``trace_event`` JSON-object
format (the format Perfetto's UI at https://ui.perfetto.dev loads
directly):

* one thread track per processing element (``pid`` 1, ``tid`` = PE
  index), complete (``ph: "X"``) slices per firing with nested
  read/run/write child slices;
* off-chip boundary firings on a dedicated track;
* async (``ph: "b"``/``"e"``) slices per consumed item on the channels
  process (``pid`` 2), spanning delivery -> consumption — the queue-wait
  picture;
* counter (``ph: "C"``) tracks for channel occupancy;
* instant (``ph: "i"``) events for faults and recovery actions;
* when a NoC model was active: a ``noc links`` process (``pid`` 3) with
  one counter track per mesh link (in-flight serializations over time)
  and instant route-metadata events per routed transfer.

Timestamps are microseconds, as the format requires.  The exporter is
deterministic: identical telemetry serializes to identical JSON.

:func:`validate_perfetto` structurally checks a document against the
subset of the spec the exporter uses — CI runs it on a real trace so the
artifact uploaded next to ``BENCH_sim.json`` is known-loadable.
"""

from __future__ import annotations

import json
from typing import IO, Iterator

from .collect import Telemetry
from .spans import span_line

__all__ = [
    "to_perfetto",
    "write_perfetto",
    "validate_perfetto",
    "spans_jsonl",
    "write_spans_jsonl",
    "timeline",
    "timeline_rows",
]

#: Process ids used in the export.
_PID_SIM = 1
_PID_CHANNELS = 2
_PID_NOC = 3

#: Thread id for the off-chip boundary track (inputs/outputs/constants).
_TID_IO = 1_000_000


def _us(seconds: float) -> float:
    return seconds * 1e6


def to_perfetto(telemetry: Telemetry, *, app: str = "") -> dict:
    """Render telemetry as a Chrome/Perfetto ``trace_event`` document."""
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": _PID_SIM,
         "args": {"name": f"simulation{f' ({app})' if app else ''}"}},
        {"name": "process_name", "ph": "M", "pid": _PID_CHANNELS,
         "args": {"name": "channels"}},
        {"name": "thread_name", "ph": "M", "pid": _PID_SIM, "tid": _TID_IO,
         "args": {"name": "off-chip I/O"}},
    ]
    named_pes: set[int] = set()
    edge_tids: dict[str, int] = {}
    async_id = 0

    def edge_tid(edge: str) -> int:
        tid = edge_tids.get(edge)
        if tid is None:
            tid = edge_tids[edge] = len(edge_tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": _PID_CHANNELS,
                "tid": tid, "args": {"name": edge},
            })
        return tid

    for row in telemetry.rows:
        kind = row[0]
        if kind == "firing":
            (_, _, start_s, kernel, method, proc, read_s, run_s, write_s,
             firing_index) = row
            if proc is None:
                tid = _TID_IO
            else:
                tid = proc
                if tid not in named_pes:
                    named_pes.add(tid)
                    events.append({
                        "name": "thread_name", "ph": "M", "pid": _PID_SIM,
                        "tid": tid, "args": {"name": f"PE{tid}"},
                    })
            events.append({
                "name": f"{kernel}.{method}", "cat": "firing",
                "ph": "X", "pid": _PID_SIM, "tid": tid,
                "ts": _us(start_s), "dur": _us(read_s + run_s + write_s),
                "args": {"kernel": kernel, "method": method,
                         "firing_index": firing_index},
            })
            # Nested read/run/write slices, in machine-model order.
            t = start_s
            for phase, dur in (("read", read_s), ("run", run_s),
                               ("write", write_s)):
                if dur > 0.0:
                    events.append({
                        "name": phase, "cat": "phase", "ph": "X",
                        "pid": _PID_SIM, "tid": tid,
                        "ts": _us(t), "dur": _us(dur), "args": {},
                    })
                    t += dur
        elif kind == "wait":
            _, _, _, start_s, duration_s, kernel, port, src = row
            edge = f"{src}->{kernel}.{port}"
            tid = edge_tid(edge)
            async_id += 1
            ident = str(async_id)
            events.append({
                "name": edge, "cat": "transfer", "ph": "b", "id": ident,
                "pid": _PID_CHANNELS, "tid": tid, "ts": _us(start_s),
                "args": {"wait_s": duration_s},
            })
            events.append({
                "name": edge, "cat": "transfer", "ph": "e", "id": ident,
                "pid": _PID_CHANNELS, "tid": tid,
                "ts": _us(start_s + duration_s), "args": {},
            })
        elif kind == "transfer":
            (_, _, start_s, src, src_port, dst, dst_port, _, _, occupancy,
             hops, link_wait_s, route) = row
            edge = f"{src}.{src_port}->{dst}.{dst_port}"
            events.append({
                "name": f"occupancy {edge}", "cat": "channel",
                "ph": "C", "pid": _PID_CHANNELS, "ts": _us(start_s),
                "args": {"items": occupancy},
            })
            if route:
                events.append({
                    "name": f"route {edge}", "cat": "noc", "ph": "i",
                    "pid": _PID_NOC, "ts": _us(start_s), "s": "p",
                    "args": {"route": route, "hops": hops,
                             "link_wait_s": link_wait_s},
                })
        elif kind == "fault":
            _, _, start_s, action, kernel, proc, _, _, detail = row
            events.append({
                "name": f"fault:{action}", "cat": "fault", "ph": "i",
                "pid": _PID_SIM, "tid": _TID_IO if proc is None else proc,
                "ts": _us(start_s), "s": "t",
                "args": {"kernel": kernel, "detail": detail},
            })
        elif kind == "stall":
            _, _, start_s, kernel, proc, reason = row
            events.append({
                "name": f"stall:{reason}", "cat": "stall", "ph": "i",
                "pid": _PID_SIM, "tid": _TID_IO if proc is None else proc,
                "ts": _us(start_s), "s": "t", "args": {"kernel": kernel},
            })
        # Idle rows are implicit in the timeline (gaps between slices).
    if telemetry.link_occupancy:
        events.append({
            "name": "process_name", "ph": "M", "pid": _PID_NOC,
            "args": {"name": "noc links"},
        })
        by_link: dict[str, list[tuple[float, int]]] = {}
        for label, start, end in telemetry.link_occupancy:
            steps = by_link.setdefault(label, [])
            steps.append((start, +1))
            steps.append((end, -1))
        for label in sorted(by_link):
            depth = 0
            for ts, delta in sorted(by_link[label]):
                depth += delta
                events.append({
                    "name": f"link {label}", "cat": "noc", "ph": "C",
                    "pid": _PID_NOC, "ts": _us(ts),
                    "args": {"in_flight": depth},
                })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "makespan_s": telemetry.makespan_s,
            "dropped_spans": telemetry.dropped_spans,
        },
    }


def write_perfetto(telemetry: Telemetry, path: str, *, app: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_perfetto(telemetry, app=app), fh)
        fh.write("\n")


def validate_perfetto(doc: object) -> dict[str, int]:
    """Structurally validate a ``trace_event`` JSON document.

    Checks the JSON-object envelope and, per event, the fields each
    phase requires.  Returns phase counts on success; raises
    ``ValueError`` naming the first offending event otherwise.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object, "
                         f"got {type(doc).__name__}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document needs a 'traceEvents' array")
    counts: dict[str, int] = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise ValueError(f"{where} must be an object")
        ph = ev.get("ph")
        if ph not in {"X", "B", "E", "b", "e", "n", "i", "I", "C", "M"}:
            raise ValueError(f"{where} has unknown phase {ph!r}")
        if "name" not in ev:
            raise ValueError(f"{where} ({ph}) is missing 'name'")
        if "pid" not in ev:
            raise ValueError(f"{where} ({ph}) is missing 'pid'")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)):
                raise ValueError(f"{where} ({ph}) needs a numeric 'ts'")
        if ph == "X":
            if not isinstance(ev.get("dur"), (int, float)):
                raise ValueError(f"{where} (X) needs a numeric 'dur'")
            if ev["dur"] < 0:
                raise ValueError(f"{where} (X) has negative 'dur'")
        if ph in {"b", "e", "n"} and "id" not in ev:
            raise ValueError(f"{where} ({ph}) needs an 'id'")
        if ph in {"C", "M"} and not isinstance(ev.get("args"), dict):
            raise ValueError(f"{where} ({ph}) needs an 'args' object")
        counts[ph] = counts.get(ph, 0) + 1
    return counts


def spans_jsonl(telemetry: Telemetry) -> Iterator[str]:
    """The span stream as JSON lines (one canonical dict per span)."""
    return map(span_line, telemetry.rows)


def write_spans_jsonl(telemetry: Telemetry, path_or_file: str | IO[str]) -> int:
    """Write the JSONL span stream; returns the number of lines."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as fh:
            return write_spans_jsonl(telemetry, fh)
    count = 0
    for line in spans_jsonl(telemetry):
        path_or_file.write(line + "\n")
        count += 1
    return count


def _pe_firings(telemetry: Telemetry) -> Iterator[tuple]:
    """The on-chip firing rows, cut to seq..write_s (the Gantt's view)."""
    for row in telemetry.rows:
        if row[0] == "firing" and row[5] is not None:
            yield row[1:9]


def timeline_rows(telemetry: Telemetry) -> list[dict]:
    """Structured Gantt rows: one JSON-safe row per processing element.

    The machine-readable counterpart of :func:`timeline` — same firing
    spans, but as plain data a renderer (the ``repro.dash`` page, a
    notebook) can draw without re-parsing text.  Off-chip boundary
    firings (``processor is None``) are excluded, exactly as the text
    Gantt excludes them; rows are sorted by processing element and
    segments keep collector emission order, so identical telemetry
    yields identical rows.
    """
    by_pe: dict[int, list[dict]] = {}
    for _, start_s, kernel, method, proc, read_s, run_s, write_s \
            in _pe_firings(telemetry):
        by_pe.setdefault(proc, []).append({
            "kernel": kernel,
            "method": method,
            "start_s": start_s,
            "duration_s": read_s + run_s + write_s,
        })
    return [
        {
            "processor": pe,
            "busy_s": sum(seg["duration_s"] for seg in segments),
            "segments": segments,
        }
        for pe, segments in sorted(by_pe.items())
    ]


def timeline(telemetry: Telemetry, *, width: int = 80,
             edges: int = 4) -> str:
    """Text Gantt of the telemetry: PE rows plus channel-occupancy rows.

    Extends :func:`repro.sim.trace.gantt` — the firing spans render
    through the same quantized per-PE rows, then the ``edges`` busiest
    channels (by transferred bytes) get occupancy rows: each column
    shows the queue depth entering that quantum (``.`` empty, ``1``-``9``
    items, ``+`` deeper), making the Figure 9 buffering effects and
    backpressure visible in the same frame as the multiplexing schedule.
    """
    from ..sim.trace import TraceEvent, gantt

    firings = [
        TraceEvent(start_s=start_s, processor=proc, kernel=kernel,
                   method=method, read_s=read_s, run_s=run_s,
                   write_s=write_s)
        for _, start_s, kernel, method, proc, read_s, run_s, write_s
        in _pe_firings(telemetry)
    ]
    horizon = telemetry.makespan_s
    base = gantt(firings, width=width,
                 until_s=horizon if horizon > 0 else None)
    if horizon <= 0 or not firings:
        return base

    # Occupancy trajectory per edge, from the transfer/wait span stream:
    # +1 at each delivery, -1 at each consumption.
    deltas: dict[str, list[tuple[float, int]]] = {}
    traffic: dict[str, float] = {}
    for row in telemetry.rows:
        kind = row[0]
        if kind == "transfer":
            _, _, start_s, src, src_port, dst, dst_port, nbytes = row[:8]
            edge = f"{src}.{src_port}->{dst}.{dst_port}"
            deltas.setdefault(edge, []).append((start_s, +1))
            traffic[edge] = traffic.get(edge, 0.0) + nbytes
        elif kind == "wait":
            _, _, _, start_s, duration_s, kernel, port, src = row
            edge_key = None
            # A wait row names (src, dst kernel, port); recover the edge
            # key by suffix match so both views stay keyed consistently.
            suffix = f"->{kernel}.{port}"
            for key in deltas:
                if key.endswith(suffix) and key.startswith(f"{src}."):
                    edge_key = key
                    break
            if edge_key is not None:
                deltas[edge_key].append((start_s + duration_s, -1))
    busiest = sorted(traffic, key=lambda e: (-traffic[e], e))[:edges]
    if not busiest:
        return base
    quantum = horizon / width
    lines = [base, "channel occupancy (items queued at quantum start):"]
    for edge in busiest:
        steps = sorted(deltas[edge])
        cells = []
        depth = 0
        pos = 0
        for col in range(width):
            t = col * quantum
            while pos < len(steps) and steps[pos][0] <= t:
                depth += steps[pos][1]
                pos += 1
            if depth <= 0:
                cells.append(".")
            elif depth <= 9:
                cells.append(str(depth))
            else:
                cells.append("+")
        lines.append(f"  {''.join(cells)}  {edge}")
    return "\n".join(lines)
