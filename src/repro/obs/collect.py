"""Telemetry collection: the runtime hook seam and its finished product.

:class:`TelemetryCollector` is what the simulator's event loop talks to,
through the same ``is not None`` gating the fault injector uses — when
telemetry is off the loop carries a single precomputed ``None`` local
and the hot path is unchanged (the conformance fixtures and hot-path
benchmark hold this).  Each hook is one call per observed event and pays
only for what changes per event: the first touch of a channel, kernel,
kernel port or processing element binds a handle record (interned names,
the arrivals queue, the metric objects), so a hook updates metrics
through bound handles and appends one flat row (see :mod:`.spans`) to a
(optionally bounded) list — no label formatting, no registry lookup, no
span object.

:class:`Telemetry` is the immutable-ish result attached to
:class:`~repro.sim.SimulationResult` when enabled: the span rows, the
metrics registry, and derived per-processor busy/idle accounting that is
provably consistent with :class:`~repro.sim.ProcessorStats` (the test
suite asserts summed span durations equal stats busy time).  Everything
it derives reads rows; ``Telemetry.spans`` builds the typed spans for
whoever wants objects.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import Annotated, Any, ClassVar, Iterable, Iterator

from ..errors import SimulationError
from ..records import POSITIVE, conform, load
from .metrics import DEFAULT_RESERVOIR, MetricsRegistry
from .spans import (
    FiringSpan,
    Span,
    rows_digest,
    span_from_row,
    span_row,
)

__all__ = ["TelemetryConfig", "TelemetryCollector", "Telemetry"]

#: Gap shorter than this (relative to makespan) is float noise, not idle.
_IDLE_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class TelemetryConfig:
    """Knobs for telemetry collection."""

    #: Hard cap on retained spans (None = unbounded).  Metrics always
    #: cover the full run; spans past the cap are counted as dropped.
    max_spans: Annotated[int, POSITIVE] | None = None
    #: Histogram reservoir size (see :mod:`repro.obs.metrics`).
    reservoir_size: Annotated[int, POSITIVE] = DEFAULT_RESERVOIR

    def __post_init__(self) -> None:
        conform(self, error=SimulationError, where="TelemetryConfig")

    @classmethod
    def coerce(cls, value: Any) -> "TelemetryConfig | None":
        """Normalize the ``SimulationOptions.telemetry`` knob.

        ``None``/``False`` disable telemetry; ``True`` enables it with
        defaults; an existing config passes through and a mapping is
        loaded field by field.
        """
        if value is None or value is False:
            return None
        return load(cls, {} if value is True else value,
                    error=SimulationError, where="telemetry config")


class _Handles:
    """Metric handles of one labelled thing, each bound on first use.

    A subclass names its handles in ``_METRICS`` (slot -> registry
    family and metric name).  Reading an unbound slot lands in
    ``__getattr__``, which gets-or-creates the metric under this
    record's labels and fills the slot — so the registry holds exactly
    the metrics a run touched, and every later read is a plain slot
    load.
    """

    __slots__ = ("_registry", "_labels")
    _METRICS: ClassVar[dict[str, tuple[str, str]]] = {}

    def __init__(self, registry: MetricsRegistry, **labels: str) -> None:
        self._registry = registry
        self._labels = labels

    def __getattr__(self, slot: str):
        try:
            family, name = self._METRICS[slot]
        except KeyError:
            raise AttributeError(slot) from None
        metric = getattr(self._registry, family)(name, **self._labels)
        setattr(self, slot, metric)
        return metric


class _Channel(_Handles):
    __slots__ = ("src", "src_port", "dst", "dst_port", "edge", "arrivals",
                 "transfers", "tokens", "bytes", "occupancy", "hops",
                 "link_wait", "dropped", "resync_shed")
    _METRICS = {
        "transfers": ("counter", "transfers"),
        "tokens": ("counter", "transfer_tokens"),
        "bytes": ("counter", "transfer_bytes"),
        "occupancy": ("gauge", "channel_occupancy"),
        "hops": ("counter", "noc_hops"),
        "link_wait": ("histogram", "noc_link_wait_s"),
        "dropped": ("counter", "transfers_dropped"),
        "resync_shed": ("counter", "resync_shed"),
    }

    def __init__(self, registry: MetricsRegistry, ch) -> None:
        self.src, self.src_port = ch.src, ch.src_port
        self.dst, self.dst_port = ch.dst, ch.dst_port
        self.edge = f"{ch.src}.{ch.src_port}->{ch.dst}.{ch.dst_port}"
        #: Delivery times of the items still queued on the channel.
        self.arrivals: deque = deque()
        super().__init__(registry, edge=self.edge)


class _Port(_Handles):
    __slots__ = ("src", "arrivals", "queue_wait")
    _METRICS = {"queue_wait": ("histogram", "queue_wait_s")}

    def __init__(self, registry: MetricsRegistry, kernel: str, port: str,
                 channel: _Channel) -> None:
        #: The producing kernel and the channel's arrivals queue, shared.
        self.src, self.arrivals = channel.src, channel.arrivals
        super().__init__(registry, kernel=kernel, port=port)


class _Kernel(_Handles):
    __slots__ = ("name", "ports", "firings", "latency", "stalls",
                 "fault_retries", "fault_shed", "fault_corrupt")
    _METRICS = {
        "firings": ("counter", "firings"),
        "latency": ("histogram", "firing_latency_s"),
        "stalls": ("counter", "stalls"),
        "fault_retries": ("counter", "fault_retries"),
        "fault_shed": ("counter", "fault_shed"),
        "fault_corrupt": ("counter", "fault_corrupt"),
    }

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self.name = name
        #: Consumed input port -> its :class:`_Port`.
        self.ports: dict[str, _Port] = {}
        super().__init__(registry, kernel=name)


class _Pe(_Handles):
    __slots__ = ("read", "run", "write", "busy", "idle", "deaths",
                 "migrations")
    _METRICS = {
        "read": ("counter", "pe_read_s"),
        "run": ("counter", "pe_run_s"),
        "write": ("counter", "pe_write_s"),
        "busy": ("counter", "pe_busy_s"),
        "idle": ("gauge", "pe_idle_s"),
        "deaths": ("counter", "pe_deaths"),
        "migrations": ("counter", "migrations"),
    }


def _busy_intervals(rows: Iterable[tuple]) -> Iterator[tuple[int, float, float]]:
    """``(processor, start_s, busy_s)`` of every row that occupied a PE:
    on-chip firings and the detection time of fault retries."""
    for row in rows:
        kind = row[0]
        if kind == "firing":
            _, _, start_s, _, _, proc, read_s, run_s, write_s, _ = row
            if proc is not None:
                yield proc, start_s, read_s + run_s + write_s
        elif kind == "fault":
            _, _, start_s, _, _, proc, busy_s, _, _ = row
            if busy_s > 0.0 and proc is not None:
                yield proc, start_s, busy_s


class TelemetryCollector:
    """Accumulates span rows and metrics as the event loop reports them."""

    __slots__ = ("config", "rows", "dropped", "metrics", "_seq", "_cap",
                 "_channels", "_kernels", "_pes", "link_occupancy")

    def __init__(self, config: TelemetryConfig) -> None:
        self.config = config
        #: Span rows in emission order (layouts in :mod:`.spans`).
        self.rows: list[tuple] = []
        self.dropped = 0
        self.metrics = MetricsRegistry(config.reservoir_size)
        self._seq = 0
        self._cap = (config.max_spans if config.max_spans is not None
                     else sys.maxsize)
        self._channels: dict[int, _Channel] = {}  # by id(channel)
        self._kernels: dict[str, _Kernel] = {}
        self._pes: dict[int, _Pe] = {}
        #: (link label, start_s, end_s) serialization intervals reported
        #: by the NoC model; empty unless one was active.
        self.link_occupancy: list[tuple[str, float, float]] = []

    # -- plumbing ------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _add(self, row: tuple) -> None:
        if len(self.rows) < self._cap:
            self.rows.append(row)
        else:
            self.dropped += 1

    def _channel(self, ch) -> _Channel:
        rec = self._channels.get(id(ch))
        if rec is None:
            rec = self._channels[id(ch)] = _Channel(self.metrics, ch)
        return rec

    def _kernel(self, name: str) -> _Kernel:
        rec = self._kernels.get(name)
        if rec is None:
            rec = self._kernels[name] = _Kernel(self.metrics, name)
        return rec

    def _pe(self, proc: int) -> _Pe:
        rec = self._pes.get(proc)
        if rec is None:
            rec = self._pes[proc] = _Pe(self.metrics, pe=str(proc))
        return rec

    def _port(self, kernel: _Kernel, st, port: str) -> _Port:
        rec = kernel.ports[port] = _Port(
            self.metrics, kernel.name, port,
            self._channel(st.rk.inputs[port]))
        return rec

    # -- hooks called from the simulator loop --------------------------
    # ``transfer``, ``firing`` and ``_consume_waits`` run once per observed
    # event and are written flat: record lookup, sequence number, counter
    # bump and capped append are spelled out where the rarer hooks below
    # call ``_kernel``/``_next_seq``/``inc``/``_add``.  The calls alone
    # were ~7% of a telemetry-on run.

    def transfer(self, time: float, ch, item, is_token: bool,
                 hops: int = 0, link_wait_s: float = 0.0, route: str = "",
                 links: tuple = ()) -> None:
        """One item pushed onto ``ch`` (data chunk or control token).

        The extras are supplied only by the NoC-enabled delivery path:
        ``time`` is then the routed arrival, ``links`` the
        ``(label, start_s, end_s)`` serialization interval the transfer
        held on each link of its route.
        """
        rec = self._channels.get(id(ch)) or self._channel(ch)
        rec.arrivals.append(time)
        occupancy = len(ch.items)
        rec.transfers.value += 1.0
        if is_token:
            nbytes = 0
            rec.tokens.value += 1.0
        else:
            nbytes = int(item.nbytes)
            rec.bytes.value += nbytes
        rec.occupancy.set(occupancy)
        if route:
            rec.hops.inc(hops)
            rec.link_wait.observe(link_wait_s)
            self.link_occupancy.extend(links)
        self._seq = seq = self._seq + 1
        rows = self.rows
        if len(rows) < self._cap:
            rows.append(("transfer", seq, time, rec.src, rec.src_port,
                         rec.dst, rec.dst_port, nbytes, is_token, occupancy,
                         hops, link_wait_s, route))
        else:
            self.dropped += 1

    def _consume_waits(self, time: float, kernel: _Kernel, st, firing,
                       firing_seq: int) -> None:
        """Pop one queued-arrival per consumed port; emit the wait rows."""
        ports, name = kernel.ports, kernel.name
        rows, cap = self.rows, self._cap
        for port in firing.consume_ports:
            rec = ports.get(port) or self._port(kernel, st, port)
            arrivals = rec.arrivals
            arrival = arrivals.popleft() if arrivals else time
            wait = time - arrival
            rec.queue_wait.observe(wait)
            self._seq = seq = self._seq + 1
            if len(rows) < cap:
                rows.append(("wait", seq, firing_seq, arrival, wait, name,
                             port, rec.src))
            else:
                self.dropped += 1

    def firing(self, time: float, proc: int, st, firing, result,
               read_s: float, run_s: float, write_s: float) -> None:
        """A firing charged to processing element ``proc``."""
        self._seq = seq = self._seq + 1
        duration = read_s + run_s + write_s
        kernel = self._kernels.get(st.name) or self._kernel(st.name)
        kernel.firings.value += 1.0
        kernel.latency.observe(duration)
        pe = self._pes.get(proc) or self._pe(proc)
        pe.read.value += read_s
        pe.run.value += run_s
        pe.write.value += write_s
        pe.busy.value += duration
        rows = self.rows
        if len(rows) < self._cap:
            rows.append(("firing", seq, time, kernel.name, result.label, proc,
                         read_s, run_s, write_s, st.rk.firings - 1))
        else:
            self.dropped += 1
        self._consume_waits(time, kernel, st, firing, seq)

    def io_firing(self, time: float, st, firing, result) -> None:
        """A boundary-kernel firing (off-chip, instantaneous)."""
        seq = self._next_seq()
        kernel = self._kernel(st.name)
        kernel.firings.inc()
        self._add(("firing", seq, time, kernel.name, result.label, None,
                   0.0, 0.0, 0.0, st.rk.firings - 1))
        self._consume_waits(time, kernel, st, firing, seq)

    def stall(self, time: float, kernel: str, proc: int | None) -> None:
        self._kernel(kernel).stalls.inc()
        self._add(("stall", self._next_seq(), time, kernel, proc,
                   "backpressure"))

    def _fault(self, time: float, action: str, kernel: str = "",
               proc: int | None = None, busy_s: float = 0.0,
               duration_s: float = 0.0, detail: str = "") -> None:
        self._add(("fault", self._next_seq(), time, action, kernel, proc,
                   busy_s, duration_s, detail))

    def fault_retry(self, time: float, proc: int, kernel: str, label: str,
                    detect_s: float, backoff_s: float) -> None:
        self._kernel(kernel).fault_retries.inc()
        pe = self._pe(proc)
        pe.run.inc(detect_s)
        pe.busy.inc(detect_s)
        self._fault(time, "retry", kernel, proc, detect_s,
                    detect_s + backoff_s, label)

    def fault_outcome(self, time: float, kernel: str, proc: int | None,
                      action: str, count: int) -> None:
        """Terminal outcome of an unrecovered firing: shed or corrupt."""
        rec = self._kernel(kernel)
        (rec.fault_shed if action == "shed" else rec.fault_corrupt).inc(count)
        self._fault(time, action, kernel, proc, detail=f"items={count}")

    def pe_death(self, time: float, proc: int) -> None:
        self._pe(proc).deaths.inc()
        self._fault(time, "pe_death", proc=proc)

    def migration(self, time: float, src_proc: int, dst_proc: int,
                  ready_at: float, kernels: list[str]) -> None:
        self._pe(src_proc).migrations.inc()
        self._fault(
            time, "migration", proc=dst_proc, duration_s=ready_at - time,
            detail=f"PE{src_proc}->PE{dst_proc}: {','.join(kernels)}",
        )

    def transfer_dropped(self, time: float, ch) -> None:
        rec = self._channel(ch)
        rec.dropped.inc()
        self._fault(time, "transfer_drop", detail=rec.edge)

    def shed_channel(self, time: float, ch, count: int) -> None:
        """Resynchronization drained ``count`` unmatched items from ``ch``."""
        rec = self._channel(ch)
        arrivals = rec.arrivals
        for _ in range(min(count, len(arrivals))):
            arrivals.popleft()
        rec.resync_shed.inc(count)
        self._fault(time, "resync_shed", rec.dst,
                    detail=f"{rec.edge}: items={count}")

    # -- finalization --------------------------------------------------

    def finalize(self, makespan_s: float) -> "Telemetry":
        """Derive idle accounting and freeze the collected telemetry."""
        busy: dict[int, list[tuple[float, float]]] = {}
        for proc, start, busy_s in _busy_intervals(self.rows):
            if busy_s > 0.0:
                busy.setdefault(proc, []).append((start, start + busy_s))
        eps = _IDLE_EPS * max(1.0, makespan_s)
        for proc in sorted(busy):
            busy_total = 0.0
            cursor = 0.0
            for start, end in sorted(busy[proc]):
                if start - cursor > eps:
                    self._add(("idle", self._next_seq(), cursor,
                               start - cursor, proc))
                busy_total += end - start
                if end > cursor:
                    cursor = end
            if makespan_s - cursor > eps:
                self._add(("idle", self._next_seq(), cursor,
                           makespan_s - cursor, proc))
            self._pe(proc).idle.set(max(0.0, makespan_s - busy_total))
        return Telemetry(
            config=self.config,
            metrics=self.metrics,
            makespan_s=makespan_s,
            dropped_spans=self.dropped,
            link_occupancy=self.link_occupancy,
            rows=self.rows,
        )


class Telemetry:
    """Everything one simulation observed about itself.

    The span stream is kept as ``rows`` (see :mod:`.spans`); everything
    below, the exporters and the critical-path pass read those.  Build
    one from typed spans with ``spans=`` or from rows with ``rows=``.
    """

    def __init__(
        self,
        config: TelemetryConfig,
        spans: Iterable[Span] = (),
        metrics: MetricsRegistry | None = None,
        makespan_s: float = 0.0,
        dropped_spans: int = 0,
        link_occupancy: list[tuple[str, float, float]] | None = None,
        *,
        rows: list[tuple] | None = None,
    ) -> None:
        self.config = config
        #: All span rows, in collector emission (= deterministic event)
        #: order.
        self.rows = rows if rows is not None else [
            span_row(s) for s in spans
        ]
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.makespan_s = makespan_s
        self.dropped_spans = dropped_spans
        #: NoC link serialization intervals (label, start_s, end_s);
        #: empty unless a NoC model was active during the run.
        self.link_occupancy = (link_occupancy if link_occupancy is not None
                               else [])
        self._sha256: str | None = None

    @property
    def spans(self) -> list[Span]:
        """The typed spans, built from the rows on each read."""
        return [span_from_row(row) for row in self.rows]

    def spans_of(self, kind: str) -> list[Span]:
        return [span_from_row(row) for row in self.rows if row[0] == kind]

    def firing_spans(self) -> list[FiringSpan]:
        return self.spans_of("firing")

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.rows:
            kind = row[0]
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def busy_by_processor(self) -> dict[int, float]:
        """Summed busy span time per PE (firings + fault detection).

        By construction this equals the simulator's
        :class:`~repro.sim.ProcessorStats` busy time — the invariant the
        test suite pins on every Figure 13 application.
        """
        out: dict[int, float] = {}
        for proc, _, busy_s in _busy_intervals(self.rows):
            out[proc] = out.get(proc, 0.0) + busy_s
        return out

    @property
    def sha256(self) -> str:
        """Digest of the span stream; hashed once, the rows never change."""
        if self._sha256 is None:
            self._sha256 = rows_digest(self.rows)
        return self._sha256

    def as_dict(self) -> dict:
        """JSON-safe summary (the ``telemetry`` section of a result)."""
        return {
            "makespan_s": self.makespan_s,
            "spans": self.span_counts(),
            "dropped_spans": self.dropped_spans,
            "sha256": self.sha256,
            "metrics": self.metrics.as_dict(),
        }

