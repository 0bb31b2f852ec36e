"""Typed telemetry spans: the full-fidelity record of one simulation.

The flat per-firing :class:`~repro.sim.trace.TraceEvent` answers "who ran
when"; spans answer *why the schedule looks the way it does*.  Every
observable of the discrete-event loop gets a typed record:

* :class:`FiringSpan` — one firing on a processing element (or an
  off-chip boundary kernel), split into read/run/write phases exactly as
  the machine model charges them;
* :class:`TransferSpan` — one item pushed onto a channel (data bytes or
  a control token), with the channel occupancy it caused;
* :class:`WaitSpan` — the interval one consumed item spent queued in its
  channel, from delivery to the firing that consumed it;
* :class:`StallSpan` — a firing attempt blocked by backpressure (bounded
  channels only);
* :class:`FaultSpan` — a fault or recovery action: transient retry,
  processor death, migration, shed/corrupt outcomes, dropped transfers;
* :class:`IdleSpan` — a gap on a processing element, derived at
  finalization so per-PE busy + idle always tiles the makespan.

Spans are frozen plain data.  ``seq`` is the collector's global emission
counter: it orders spans exactly like the simulator's deterministic event
loop, which is what lets the critical-path pass (:mod:`.critical_path`)
reconstruct dependencies without re-simulating.

The collector does not build these classes per event.  It records each
span as a *row* — the flat tuple ``(kind, *fields)`` with the fields in
the class's declared order — and every in-tree consumer (digest, JSONL,
Perfetto, critical path, timeline) reads rows; :func:`span_from_row`
builds the dataclass for whoever asks ``Telemetry.spans`` for objects.
:func:`span_line` is the one canonical serialization of a row: the
JSONL line and the unit the span digest hashes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter
from typing import ClassVar, Iterable, Sequence

__all__ = [
    "FiringSpan",
    "TransferSpan",
    "WaitSpan",
    "StallSpan",
    "FaultSpan",
    "IdleSpan",
    "Span",
    "SPAN_TYPES",
    "span_from_row",
    "span_row",
    "span_line",
    "rows_digest",
    "span_as_dict",
    "spans_digest",
]


@dataclass(frozen=True, slots=True)
class FiringSpan:
    """One firing as charged to the machine model.

    ``processor`` is None for off-chip boundary kernels (application
    inputs/outputs, constant sources), whose firings execute instantly
    and never occupy a processing element.
    """

    kind: ClassVar[str] = "firing"

    seq: int
    start_s: float
    kernel: str
    method: str
    processor: int | None
    read_s: float
    run_s: float
    write_s: float
    #: The kernel's executed-firing index at this firing (0-based).
    firing_index: int = 0

    @property
    def duration_s(self) -> float:
        return self.read_s + self.run_s + self.write_s

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def phases(self) -> tuple[tuple[str, float, float], ...]:
        """(name, start, duration) sub-spans, in machine-model order."""
        out = []
        t = self.start_s
        for name, dur in (("read", self.read_s), ("run", self.run_s),
                          ("write", self.write_s)):
            if dur > 0.0:
                out.append((name, t, dur))
                t += dur
        return tuple(out)


@dataclass(frozen=True, slots=True)
class TransferSpan:
    """One item delivered onto a channel.

    Instantaneous in the paper's free-communication model.  When a
    :class:`~repro.machine.noc.NocModel` is active, transfers routed over
    the mesh record their route: ``start_s`` is then the *arrival* time
    at the consumer, ``hops``/``link_wait_s`` the route length and the
    time spent queued for busy links, and ``route`` the tile path (empty
    for local/off-chip transfers and control tokens, which never route).
    The NoC fields default to the off-model values and are serialized
    only when a route exists, so NoC-off span digests are unchanged.
    """

    kind: ClassVar[str] = "transfer"

    seq: int
    start_s: float
    src: str
    src_port: str
    dst: str
    dst_port: str
    #: Payload size in bytes (0 for control tokens).
    bytes: int
    token: bool
    #: Channel occupancy (items) right after this delivery.
    occupancy: int
    #: Mesh links traversed (0 when unrouted or the NoC model is off).
    hops: int = 0
    #: Simulated seconds spent queued for busy links along the route.
    link_wait_s: float = 0.0
    #: Tile path ``(x,y)->...->(x',y')``, empty when unrouted.
    route: str = ""

    @property
    def duration_s(self) -> float:
        return 0.0

    @property
    def end_s(self) -> float:
        return self.start_s

    @property
    def edge(self) -> str:
        return f"{self.src}.{self.src_port}->{self.dst}.{self.dst_port}"


@dataclass(frozen=True, slots=True)
class WaitSpan:
    """Queue residency of one consumed item: delivery -> consumption."""

    kind: ClassVar[str] = "wait"

    seq: int
    #: ``seq`` of the :class:`FiringSpan` that consumed the item.
    consumer_seq: int
    start_s: float
    duration_s: float
    kernel: str
    port: str
    #: Producing kernel (the channel's source end).
    src: str

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True, slots=True)
class StallSpan:
    """A ready firing blocked by backpressure (instantaneous marker)."""

    kind: ClassVar[str] = "stall"

    seq: int
    start_s: float
    kernel: str
    processor: int | None
    reason: str = "backpressure"

    @property
    def duration_s(self) -> float:
        return 0.0

    @property
    def end_s(self) -> float:
        return self.start_s


@dataclass(frozen=True, slots=True)
class FaultSpan:
    """A fault or recovery action observed by the injector seam.

    ``action`` is one of ``retry`` (busy_s = fault-detection time,
    duration_s adds the backoff idle), ``pe_death``, ``migration``
    (duration_s = state-transfer latency), ``shed``, ``corrupt``,
    ``resync_shed``, or ``transfer_drop``.
    """

    kind: ClassVar[str] = "fault"

    seq: int
    start_s: float
    action: str
    kernel: str = ""
    processor: int | None = None
    #: Processing-element time the action consumed (counts toward busy).
    busy_s: float = 0.0
    duration_s: float = 0.0
    detail: str = ""

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True, slots=True)
class IdleSpan:
    """A gap on a processing element (derived at finalization)."""

    kind: ClassVar[str] = "idle"

    seq: int
    start_s: float
    duration_s: float
    processor: int

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


#: Any telemetry span.
Span = (FiringSpan | TransferSpan | WaitSpan | StallSpan | FaultSpan
        | IdleSpan)


#: kind -> span class; ``SPAN_TYPES[row[0]](*row[1:])`` is a row's span.
SPAN_TYPES = {
    cls.kind: cls
    for cls in (FiringSpan, TransferSpan, WaitSpan, StallSpan, FaultSpan,
                IdleSpan)
}

_ROW_OF = {
    kind: attrgetter("kind", *(f.name for f in fields(cls)))
    for kind, cls in SPAN_TYPES.items()
}


def span_from_row(row: tuple) -> Span:
    return SPAN_TYPES[row[0]](*row[1:])


def span_row(span: Span) -> tuple:
    return _ROW_OF[span.kind](span)


def span_as_dict(span: Span) -> dict:
    """Canonical JSON-safe form of one span (the JSONL line payload)."""
    d: dict = {"kind": span.kind, "seq": span.seq, "start_s": span.start_s}
    if isinstance(span, FiringSpan):
        d.update(kernel=span.kernel, method=span.method,
                 processor=span.processor, read_s=span.read_s,
                 run_s=span.run_s, write_s=span.write_s,
                 duration_s=span.duration_s,
                 firing_index=span.firing_index)
    elif isinstance(span, TransferSpan):
        d.update(src=span.src, src_port=span.src_port, dst=span.dst,
                 dst_port=span.dst_port, bytes=span.bytes,
                 token=span.token, occupancy=span.occupancy)
        if span.route:
            # NoC-routed transfers only: keeps NoC-off digests identical.
            d.update(hops=span.hops, link_wait_s=span.link_wait_s,
                     route=span.route)
    elif isinstance(span, WaitSpan):
        d.update(consumer_seq=span.consumer_seq, duration_s=span.duration_s,
                 kernel=span.kernel, port=span.port, src=span.src)
    elif isinstance(span, StallSpan):
        d.update(kernel=span.kernel, processor=span.processor,
                 reason=span.reason)
    elif isinstance(span, FaultSpan):
        d.update(action=span.action, kernel=span.kernel,
                 processor=span.processor, busy_s=span.busy_s,
                 duration_s=span.duration_s, detail=span.detail)
    elif isinstance(span, IdleSpan):
        d.update(duration_s=span.duration_s, processor=span.processor)
    return d


# -- the canonical row serializer --------------------------------------
# ``span_line(row)`` equals ``json.dumps(span_as_dict(span),
# sort_keys=True)`` byte for byte, without the dict or the encoder: one
# template per kind with its keys already sorted.

#: JSON string literal of a name; names repeat, so each is escaped once.
_quote = lru_cache(maxsize=4096)(json.encoder.encode_basestring_ascii)

_float_repr = float.__repr__
_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _num(value: float) -> str:
    """A float slot as ``json.dumps`` spells it."""
    try:
        text = _float_repr(value)
    except TypeError:  # an int in a float slot (hand-built spans)
        return json.dumps(value)
    # A finite float's repr ends in a digit; "inf"/"nan" do not.
    return text if text[-1] <= "9" else _NONFINITE[text]


def _firing_line(row: tuple) -> str:
    (_, seq, start_s, kernel, method, processor, read_s, run_s, write_s,
     firing_index) = row
    return (
        f'{{"duration_s": {_num(read_s + run_s + write_s)}, '
        f'"firing_index": {firing_index}, "kernel": {_quote(kernel)}, '
        f'"kind": "firing", "method": {_quote(method)}, '
        f'"processor": {"null" if processor is None else processor}, '
        f'"read_s": {_num(read_s)}, "run_s": {_num(run_s)}, "seq": {seq}, '
        f'"start_s": {_num(start_s)}, "write_s": {_num(write_s)}}}'
    )


def _transfer_line(row: tuple) -> str:
    (_, seq, start_s, src, src_port, dst, dst_port, nbytes, token,
     occupancy, hops, link_wait_s, route) = row
    head = (f'{{"bytes": {nbytes}, "dst": {_quote(dst)}, '
            f'"dst_port": {_quote(dst_port)}, ')
    tail = (f'"seq": {seq}, "src": {_quote(src)}, '
            f'"src_port": {_quote(src_port)}, "start_s": {_num(start_s)}, '
            f'"token": {"true" if token else "false"}}}')
    if route:
        # NoC-routed transfers only: keeps NoC-off digests identical.
        return (f'{head}"hops": {hops}, "kind": "transfer", '
                f'"link_wait_s": {_num(link_wait_s)}, '
                f'"occupancy": {occupancy}, "route": {_quote(route)}, {tail}')
    return f'{head}"kind": "transfer", "occupancy": {occupancy}, {tail}'


def _wait_line(row: tuple) -> str:
    _, seq, consumer_seq, start_s, duration_s, kernel, port, src = row
    return (
        f'{{"consumer_seq": {consumer_seq}, '
        f'"duration_s": {_num(duration_s)}, "kernel": {_quote(kernel)}, '
        f'"kind": "wait", "port": {_quote(port)}, "seq": {seq}, '
        f'"src": {_quote(src)}, "start_s": {_num(start_s)}}}'
    )


def _stall_line(row: tuple) -> str:
    _, seq, start_s, kernel, processor, reason = row
    return (
        f'{{"kernel": {_quote(kernel)}, "kind": "stall", '
        f'"processor": {"null" if processor is None else processor}, '
        f'"reason": {_quote(reason)}, "seq": {seq}, '
        f'"start_s": {_num(start_s)}}}'
    )


def _fault_line(row: tuple) -> str:
    (_, seq, start_s, action, kernel, processor, busy_s, duration_s,
     detail) = row
    return (
        f'{{"action": {_quote(action)}, "busy_s": {_num(busy_s)}, '
        f'"detail": {_quote(detail)}, "duration_s": {_num(duration_s)}, '
        f'"kernel": {_quote(kernel)}, "kind": "fault", '
        f'"processor": {"null" if processor is None else processor}, '
        f'"seq": {seq}, "start_s": {_num(start_s)}}}'
    )


def _idle_line(row: tuple) -> str:
    _, seq, start_s, duration_s, processor = row
    return (
        f'{{"duration_s": {_num(duration_s)}, "kind": "idle", '
        f'"processor": {processor}, "seq": {seq}, '
        f'"start_s": {_num(start_s)}}}'
    )


_LINES = {
    "firing": _firing_line,
    "transfer": _transfer_line,
    "wait": _wait_line,
    "stall": _stall_line,
    "fault": _fault_line,
    "idle": _idle_line,
}


def span_line(row: tuple) -> str:
    """Canonical JSON of one row: sorted keys, floats via ``repr``."""
    return _LINES[row[0]](row)


def rows_digest(rows: Iterable[tuple]) -> str:
    """sha256 over the :func:`span_line` of every row, newline-ended."""
    h = hashlib.sha256()
    for row in rows:
        h.update(span_line(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def spans_digest(spans: Sequence[Span]) -> str:
    """sha256 over the canonical serialization of a span stream.

    Same contract as :func:`repro.sim.trace.trace_digest`: floats via
    ``repr`` and keys sorted, so two runs share a digest iff every span
    matches bit for bit.
    """
    return rows_digest(map(span_row, spans))
