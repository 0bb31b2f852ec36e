"""Timing-accurate functional simulator (Section IV-D).

A discrete-event simulation of a compiled application on its
kernel-to-processor mapping.  Exactly like the paper's simulator it
accounts for kernel execution time, data access time, buffer transfer
time, and scheduling — and deliberately ignores placement and
communication delay, which for a throughput-constrained application only
adds first-output latency.

Model
-----
* Application inputs inject one element every ``1 / (W*H*rate)`` seconds
  in scan-line order, with end-of-line/end-of-frame tokens in-stream; the
  input cannot be stalled, so its immediate channels have finite capacity
  and an overrun is a real-time violation.
* Each firing occupies its kernel's processing element for
  ``read + run + write`` time: per-element port access costs around the
  declared method cycles.
* Kernels mapped to one element are serviced in arrival order with
  round-robin fairness — time multiplexing (Section V).
* Boundary kernels (inputs, constant sources, outputs) model off-chip I/O
  and execute without occupying a processing element.

Hot path
--------
The event loop is engineered to be observably identical to the seed
implementation preserved in :mod:`repro.sim.reference` while doing far
less interpreter work per event:

* source traffic is injected **lazily** — each input keeps one cursor
  event on the heap instead of pre-pushing ``frames x H x W`` delivery
  tuples, and all of a source's same-timestamp items drain in one
  dispatch (they are contiguous in the seed's ordering, so batching
  cannot reorder anything);
* per-kernel state (processor, output channel fan-out, overrun checks,
  backpressure wake lists) is resolved **once** into slotted records
  before the loop, eliminating the per-event dict lookups;
* per-processor statistics accumulate in plain slotted attributes and
  only become :class:`~repro.sim.stats.ProcessorStats` after the loop;
* trace recording is a branch on a precomputed local when disabled.

``tests/test_sim_conformance.py`` holds this equivalence to golden
fixtures recorded from the reference loop; see ``docs/performance.md``.

One loop
--------
:meth:`Simulator._run_des` is the only interpreter outside the oracle.
:meth:`Simulator._setup` builds the run state once (:class:`_Run`), one
``push`` closure owns channel accounting for every deliver variant, and
:meth:`Simulator._result` assembles the result.  Set-up also binds what
the fault-free path does not need: the deliver variant (channel faults,
telemetry, NoC routing), the recovery closures ``fire`` and ``resync``
(None without an active fault spec), and each kernel's bounded channels.
Element state is neutral by default (no death time, unit slowdown), so
the loop tests no fault spec and no run-level mode; telemetry and
tracing are one precomputed local each.
``SimulationOptions(replay=True)`` runs this same loop and attaches a
zero :class:`~.stats.ReplayStats` ledger to the result.

Two planes
----------
Nothing above times a run by its pixels, so a caller says which
application outputs' content it will read (``simulate(...,
content=...)``; default all).  :meth:`Simulator._setup` asks
:func:`~.runtime.live_kernels` which kernels that keeps live and
rebinds the bodies of the rest to stand-in emitters
(:meth:`~.runtime.RuntimeKernel.skip_bodies`); the loop itself has no
branch for it.  See ``docs/simulator.md`` ("Two planes").
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Annotated, Iterable, Iterator, Mapping

import numpy as np

from ..errors import SimulationError
from ..faults import FaultInjector, FaultSpec, FaultStats
from ..geometry import Size2D
from ..graph.app import ApplicationGraph
from ..obs.collect import Telemetry, TelemetryCollector, TelemetryConfig
from ..kernels.sources import ApplicationInput, ApplicationOutput, ConstantSource
from ..machine.noc import NocModel, NocStats, link_name, route_path
from ..machine.processor import ProcessorSpec
from ..records import NON_NEGATIVE, POSITIVE, conform
from ..tokens import ControlToken, EndOfFrame, EndOfLine
from ..transform.compile import CompiledApp
from ..transform.multiplex import Mapping as KernelMapping
from .functional import source_items
from .runtime import (
    FORWARD_CYCLES,
    Channel,
    Item,
    RuntimeKernel,
    build_runtime,
    live_kernels,
    stand_in,
)
from .stats import (
    ProcessorStats,
    RealTimeVerdict,
    ReplayStats,
    UtilizationSummary,
)
from .trace import TraceEvent, trace_digest

__all__ = ["BudgetOverrun", "SimulationOptions", "SimulationResult",
           "Simulator", "simulate"]


@dataclass(frozen=True, slots=True)
class SimulationOptions:
    """Simulation knobs."""

    #: Input frames to inject.
    frames: Annotated[int, NON_NEGATIVE] = 4
    #: Capacity (items) of channels fed directly by an application input;
    #: exceeding it means the unstallable input overran its consumer.
    input_channel_capacity: Annotated[int, POSITIVE] = 64
    #: Capacity of every other channel, or None for unbounded (the
    #: default, matching the paper's throughput-only model).  Setting a
    #: small value models the implicit single-iteration port buffers and
    #: makes producers stall when consumers lag — the Figure 9(b) effect.
    channel_capacity: Annotated[int, POSITIVE] | None = None
    #: Per-channel capacity overrides keyed ``(src, src_port, dst,
    #: dst_port)``; takes precedence over ``channel_capacity``.  A buffer
    #: kernel's storage effectively extends its output channel, so the
    #: Figure 9(c) experiment gives buffer-fed channels their declared
    #: storage as capacity.
    channel_capacity_overrides: Mapping[
        tuple[str, str, str, str], Annotated[int, POSITIVE]] | None = None
    #: Record a TraceEvent per firing (see repro.sim.trace).
    trace: bool = False
    #: Tolerance on the steady-state frame interval for the verdict.
    throughput_tolerance: Annotated[float, NON_NEGATIVE] = 0.05
    #: Safety valve on total events.
    max_events: Annotated[int, POSITIVE] = 20_000_000
    #: Fault scenario to inject (see :mod:`repro.faults`), or None for the
    #: perfect substrate.  A plain dict is accepted and loaded against the
    #: :class:`~repro.faults.FaultSpec` declarations, bounds included, so
    #: a refusal is a SimulationError naming ``SimulationOptions.faults.…``.
    #: A spec that cannot inject anything (`spec.active()` false) leaves
    #: the simulator on its zero-fault path, observably identical to
    #: passing None.
    faults: FaultSpec | None = None
    #: Telemetry collection (see :mod:`repro.obs`): None/False for off
    #: (the default — the hot path carries a single precomputed None
    #: local, observably identical to the seed), True for defaults, or a
    #: :class:`~repro.obs.TelemetryConfig` / mapping for tuned limits.
    telemetry: TelemetryConfig | None = None
    #: Network-on-chip timing model (see :mod:`repro.machine.noc`), or
    #: None for the paper's free-communication substrate.  Set-up binds
    #: it into the deliver closure, so off means the hot path is
    #: observably identical to the seed loop.
    noc: NocModel | None = None
    #: Selects nothing: the quasi-static replay engine it used to turn on
    #: was removed, and every run is the event loop below.  Still
    #: accepted so callers that set it keep working; a run with it on
    #: also returns the zero :class:`~.stats.ReplayStats` ledger as
    #: :attr:`SimulationResult.replay`.
    replay: bool = False
    #: Selects nothing: it chose batched execution inside replayed
    #: periods.  Still accepted, like :attr:`replay`.
    batch: bool = True

    def __post_init__(self) -> None:
        # Validate up front: a bad knob should name itself here, not
        # surface as a baffling stall or index error deep in the event
        # loop thousands of events later.  The declarations hold types
        # and bounds (a faults mapping loads as a FaultSpec on the way).
        if self.noc is not None and not isinstance(self.noc, NocModel):
            # Built by build_noc_model from a compiled app, never loaded.
            raise SimulationError(
                "SimulationOptions.noc must be a NocModel or None, "
                f"got {type(self.noc).__name__}"
            )
        object.__setattr__(
            self, "telemetry", TelemetryConfig.coerce(self.telemetry)
        )
        conform(self, error=SimulationError, where="SimulationOptions")


@dataclass(slots=True)
class _Violation:
    time: float
    where: str
    detail: str


@dataclass(slots=True)
class BudgetOverrun:
    """A runtime exception record: a firing exceeded its declared cycles.

    Section VII's future-work extension — "runtime exceptions to indicate
    when a kernel has exceeded its allocated resources".  Overruns do not
    abort the simulation (the data still flows); they surface in the
    result so a supervisor could react, and the throughput verdict shows
    their real-time consequences.
    """

    time: float
    kernel: str
    method: str
    declared_cycles: float
    actual_cycles: float

    @property
    def factor(self) -> float:
        return (self.actual_cycles / self.declared_cycles
                if self.declared_cycles > 0 else float("inf"))


def _digest_arrays(arrays) -> str:
    """A stable content hash over a sequence of ndarrays (shape + bytes)."""
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass(slots=True)
class SimulationResult:
    """Everything a benchmark harness needs from one simulation."""

    app: ApplicationGraph
    options: SimulationOptions
    makespan_s: float
    utilization: UtilizationSummary
    #: Output kernel name -> arrival time of each received chunk.
    output_times: Mapping[str, list[float]]
    #: Output kernel name -> received chunks (same order); only the
    #: outputs whose content the caller asked for (``simulate(...,
    #: content=...)``), which by default is all of them.
    outputs: Mapping[str, list[np.ndarray]]
    violations: list[_Violation]
    channels: list[Channel]
    firings: Mapping[str, int]
    #: Per-firing schedule records (empty unless options.trace).
    trace: list[TraceEvent] = field(default_factory=list)
    #: Runtime budget exceptions from variable-work kernels (Sec VII).
    budget_overruns: list[BudgetOverrun] = field(default_factory=list)
    #: Logical events processed: one per delivered item, poll, and firing
    #: completion.  Identical between the fast and reference loops, which
    #: the conformance suite asserts; the benchmark suite divides it by
    #: wall time for the events/sec trajectory.
    events_processed: int = 0
    #: High-water mark of the event heap (perf counter, not an observable
    #: of the simulated schedule; excluded from :meth:`as_dict`).
    peak_heap: int = 0
    #: Degradation accounting (all zeros unless a fault spec was active).
    fault_stats: FaultStats = field(default_factory=FaultStats)
    #: Full-fidelity telemetry (None unless options.telemetry enabled).
    telemetry: Telemetry | None = None
    #: Interconnect accounting (None unless options.noc was set).
    noc_stats: NocStats | None = None
    #: The zero replay ledger (None unless options.replay was set).
    #: Like ``peak_heap`` it is not an observable of the simulated
    #: schedule, so it is excluded from :meth:`as_dict`.
    replay: ReplayStats | None = None

    def frame_completions(self, output: str, chunks_per_frame: int) -> list[float]:
        """Completion time of each full frame at ``output``."""
        times = self.output_times.get(output, [])
        return [
            times[i]
            for i in range(chunks_per_frame - 1, len(times), chunks_per_frame)
        ]

    def as_dict(self) -> dict:
        """Canonical, JSON-safe view of everything the simulation observed.

        This is the conformance surface: two simulator implementations
        are considered identical when their ``as_dict()`` match exactly.
        Bulk payloads (received chunks, the trace) appear as counts plus
        content digests so golden fixtures stay reviewable; wall-clock
        perf counters (``peak_heap``) are deliberately excluded.  An
        output whose content was not asked for reports its chunk count
        and ``"sha256": None`` — never a digest of stand-ins.  The
        ``faults`` section appears only when a fault spec was active, so
        fault-free runs keep the exact key set the golden conformance
        fixtures were recorded with.
        """
        d = {
            "makespan_s": self.makespan_s,
            "events": self.events_processed,
            "utilization": self.utilization.as_dict(),
            "output_times": {
                name: list(times) for name, times in self.output_times.items()
            },
            "outputs": {
                name: (
                    {"count": len(self.outputs[name]),
                     "sha256": _digest_arrays(self.outputs[name])}
                    if name in self.outputs
                    else {"count": len(times), "sha256": None}
                )
                for name, times in self.output_times.items()
            },
            "violations": [
                {"time": v.time, "where": v.where, "detail": v.detail}
                for v in self.violations
            ],
            "channels": [
                {
                    "src": ch.src, "src_port": ch.src_port,
                    "dst": ch.dst, "dst_port": ch.dst_port,
                    "capacity": ch.capacity,
                    "max_occupancy": ch.max_occupancy,
                    "total_data": ch.total_data,
                    "total_tokens": ch.total_tokens,
                }
                for ch in self.channels
            ],
            "firings": dict(self.firings),
            "budget_overruns": [
                {
                    "time": b.time, "kernel": b.kernel, "method": b.method,
                    "declared_cycles": b.declared_cycles,
                    "actual_cycles": b.actual_cycles,
                }
                for b in self.budget_overruns
            ],
            "trace": {
                "events": len(self.trace),
                "sha256": trace_digest(self.trace),
            },
        }
        spec = self.options.faults
        if spec is not None and spec.active():
            d["faults"] = self.fault_stats.as_dict()
        # Like faults: the key exists only when the feature was on, so
        # telemetry-off runs keep the recorded fixtures' exact key set.
        if self.telemetry is not None:
            d["telemetry"] = self.telemetry.as_dict()
        # Same contract again: link-utilization and worst-link stats
        # appear only when a NoC model was active.
        if self.noc_stats is not None:
            d["noc"] = self.noc_stats.as_dict(self.makespan_s)
        return d

    def verdict(
        self,
        output: str,
        *,
        rate_hz: float,
        chunks_per_frame: int,
        frames: int | None = None,
        allow_shedding: bool = False,
    ) -> RealTimeVerdict:
        """Real-time verdict at one application output.

        ``output``, ``rate_hz`` and ``chunks_per_frame`` are the contract
        the run is held to.  The compiler derived all three when it
        propagated the inputs' sizes and rates through the graph, so the
        usual call is ``result.verdict(**compiled.contract())`` (see
        :meth:`repro.transform.CompiledApp.contract`); pass them by hand
        only to judge a run against something else.

        Meets real-time when every expected frame completed, steady-state
        completion intervals stay within tolerance of the frame period,
        and the input never overran.  The first frame's fill latency is
        excluded — the paper's model likewise treats initial latency as
        irrelevant to throughput.

        With ``allow_shedding=True`` a run that shed data under faults is
        judged on resynchronization instead of completeness: the frames
        that did complete must land on the frame-period grid (each
        completion interval within tolerance of an integer number of
        periods), and the missing ones are reported as ``frames_shed``
        rather than as a failure.  Without it, shed frames fail the
        verdict exactly like any other missing frame — shedding is an
        explicitly accepted degradation, never a silent one.
        """
        frames = frames if frames is not None else self.options.frames
        period = 1.0 / rate_hz
        completions = self.frame_completions(output, chunks_per_frame)
        overruns = len(self.violations)
        fs = self.fault_stats
        shed_activity = (fs.data_shed + fs.transfers_dropped) > 0
        missing = max(0, frames - len(completions))
        frames_shed = missing if shed_activity else 0
        if len(completions) < frames:
            if allow_shedding and shed_activity and len(completions) >= 1:
                intervals = [
                    b - a for a, b in zip(completions, completions[1:])
                ]
                worst = max(intervals) if intervals else 0.0
                tol = period * self.options.throughput_tolerance
                # Resync criterion: a gap of k shed frames shows up as an
                # interval of ~k+1 periods; any drift off the period grid
                # means the stream never resynchronized after shedding.
                ok = all(
                    abs(iv - max(1, round(iv / period)) * period) <= tol
                    for iv in intervals
                )
                reason = ("" if ok
                          else "shed stream did not resync to frame period")
                if overruns:
                    ok = False
                    reason = "input overran its consumer"
                return RealTimeVerdict(
                    meets=ok,
                    frames_expected=frames,
                    frames_completed=len(completions),
                    worst_interval_s=worst,
                    frame_period_s=period,
                    input_overruns=overruns,
                    reason=reason,
                    frames_shed=frames_shed,
                )
            return RealTimeVerdict(
                meets=False,
                frames_expected=frames,
                frames_completed=len(completions),
                worst_interval_s=float("inf"),
                frame_period_s=period,
                input_overruns=overruns,
                reason="not all frames completed",
                frames_shed=frames_shed,
            )
        intervals = [
            b - a for a, b in zip(completions, completions[1:frames])
        ]
        worst = max(intervals) if intervals else 0.0
        ok = worst <= period * (1.0 + self.options.throughput_tolerance)
        reason = "" if ok else "frame interval exceeds period"
        if overruns:
            ok = False
            reason = "input overran its consumer"
        return RealTimeVerdict(
            meets=ok,
            frames_expected=frames,
            frames_completed=len(completions),
            worst_interval_s=worst,
            frame_period_s=period,
            input_overruns=overruns,
            reason=reason,
        )


# Event kinds, ordered so same-time events process deterministically:
# source deliveries before completions before NoC arrivals before polls.
# (_ARRIVE events exist only when a NoC model is active; the relative
# order of the other three is exactly the seed's.)
_DELIVER, _FINISH, _ARRIVE, _POLL = 0, 1, 2, 3


class _ProcState:
    """Mutable per-processor record resolved once before the event loop."""

    __slots__ = ("index", "free_at", "pending", "read_s", "run_s", "write_s",
                 "firings", "kernels", "dead_at", "dead", "slow")

    def __init__(self, index: int, dead_at: float = math.inf,
                 slow: float = 1.0) -> None:
        self.index = index
        self.free_at = 0.0
        self.pending: deque = deque()
        self.read_s = 0.0
        self.run_s = 0.0
        self.write_s = 0.0
        self.firings = 0
        self.kernels: set[str] = set()
        # Fault-model state.  The defaults are neutral: a death time no
        # run reaches, and a multiplier that leaves every duration's
        # bytes unchanged (IEEE ``x * 1.0 == x``); only an active fault
        # spec sets others.
        self.dead_at = dead_at
        self.dead = False
        self.slow = slow

    def to_stats(self) -> ProcessorStats:
        return ProcessorStats(
            index=self.index, read_s=self.read_s, run_s=self.run_s,
            write_s=self.write_s, firings=self.firings, kernels=self.kernels,
        )


class _KernelState:
    """Per-kernel hot-loop record: everything the event loop needs without
    touching the runtime tables again."""

    __slots__ = ("rk", "name", "proc", "running", "out", "wake",
                 "bounded_out", "max_emissions", "is_output", "output_times",
                 "ready", "execute", "attempts", "fault_since")

    def __init__(self, rk: RuntimeKernel, proc: _ProcState | None) -> None:
        self.rk = rk
        self.name = rk.name
        self.ready = rk.ready_firing
        self.execute = rk.execute
        self.proc = proc
        self.running = False
        #: Consecutive faulted attempts of the current firing (retry state).
        self.attempts = 0
        #: Time the current fault burst started, for recovery latency.
        self.fault_since = 0.0
        #: port -> tuple of (channel, consumer state, overrun-checked?).
        self.out: dict[str, tuple] = {}
        #: port -> producer state, for backpressure wake-ups: one entry
        #: per input channel that has a capacity.
        self.wake: dict[str, "_KernelState"] = {}
        #: Output channels that have a capacity: a firing that could
        #: overfill one stalls instead.
        self.bounded_out: tuple[Channel, ...] = ()
        self.max_emissions = rk.kernel.max_emissions_per_firing
        self.is_output = isinstance(rk.kernel, ApplicationOutput)
        self.output_times: list[float] = []


class _Source:
    """One source cursor: ``head`` is the next undelivered ``(time, item)``.

    The event loop keeps one ``_DELIVER`` event per cursor on the heap
    and pulls the rest from ``it``.
    """

    __slots__ = ("idx", "st", "it", "head")

    def __init__(self, idx: int, st: _KernelState,
                 it: Iterator[tuple[float, Item]]) -> None:
        self.idx = idx
        self.st = st
        self.it = it
        self.head = next(it, None)


class _Run:
    """What one simulation mutates, built once by :meth:`Simulator._setup`
    and advanced by the event loop and its deliver closures."""

    __slots__ = ("runtimes", "channels", "states", "proc_states", "sources",
                 "horizon", "events", "queued_polls", "next_seq", "violations",
                 "budget_overruns", "trace", "fstats", "tele", "nstats",
                 "deliver", "land", "wake", "on_dead", "fire", "resync")

    def __init__(self, **state) -> None:
        for name, value in state.items():
            setattr(self, name, value)


def _stand_in_items(kernel: ApplicationInput, frames: int) -> Iterator[Item]:
    """:func:`~repro.sim.functional.source_items` with every element
    replaced by the 1x1 stand-in: what an input nobody reads delivers."""
    row = (stand_in(Size2D(1, 1)),) * kernel.width
    for f in range(frames):
        kernel.frame(f)  # the pattern's shape check is still a check
        for y in range(kernel.height):
            yield from row
            yield EndOfLine(frame=f, line=y)
        yield EndOfFrame(frame=f)


def _timed_source_items(
    kernel: ApplicationInput, frames: int, dead: bool = False
) -> Iterator[tuple[float, Item]]:
    """(time, item) schedule of one application input (``dead``: one
    nobody reads, delivering stand-ins).

    Reproduces the seed's accumulation exactly: tokens share the
    timestamp of the element that follows them, and element times are the
    running float sum of the period (not ``i * period``).
    """
    period = kernel.element_period
    t = 0.0
    items = _stand_in_items if dead else source_items
    for item in items(kernel, frames):
        yield t, item
        if isinstance(item, np.ndarray):
            t += period


class Simulator:
    """Discrete-event simulator for a compiled application."""

    def __init__(
        self,
        graph: ApplicationGraph,
        mapping: KernelMapping,
        processor: ProcessorSpec,
        options: SimulationOptions | None = None,
        content: Iterable[str] | None = None,
    ) -> None:
        self.graph = graph
        self.mapping = mapping
        self.processor = processor
        # A fresh instance per simulator: a shared module-level default
        # would be one unfreeze away from cross-run option bleed.
        self.options = options if options is not None else SimulationOptions()
        #: Names of the application outputs whose received chunks the
        #: caller will read; None means all of them, and computes every
        #: value.  See :func:`simulate`.
        self.content = None if content is None else frozenset(content)

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        result = self._run_des()
        if self.options.replay:
            result.replay = ReplayStats(
                events_interpreted=result.events_processed)
        return result

    # ------------------------------------------------------------------
    def _setup(self) -> _Run:
        """Build the run state: runtimes, channels, per-kernel/processor
        records, the heap, the deliver closures, then the startup
        emissions and one cursor per source."""
        runtimes, channels = build_runtime(self.graph)
        opts = self.options

        # --- channel capacities (overrides beat the blanket setting) ----
        input_channels = {
            id(ch)
            for ch in channels
            if isinstance(runtimes[ch.src].kernel, ApplicationInput)
        }
        overrides = opts.channel_capacity_overrides or {}
        # A key that names no channel is a typo, not a request to run
        # unbounded.
        unmatched = set(overrides).difference(
            (ch.src, ch.src_port, ch.dst, ch.dst_port) for ch in channels)
        if unmatched:
            raise SimulationError(
                "SimulationOptions.channel_capacity_overrides names no "
                f"channel of {self.graph.name!r}: {sorted(unmatched)}"
            )
        for ch in channels:
            key = (ch.src, ch.src_port, ch.dst, ch.dst_port)
            if key in overrides:
                ch.capacity = overrides[key]
            elif (opts.channel_capacity is not None
                  and id(ch) not in input_channels):
                # Input-fed channels stay unbounded: the input cannot be
                # stalled, overrun detection covers them instead.
                ch.capacity = opts.channel_capacity

        # --- per-kernel / per-processor state, resolved once ------------
        proc_states: dict[int, _ProcState] = {}
        states: dict[str, _KernelState] = {}
        for name, rk in runtimes.items():
            proc = self.mapping.processor_of(name)
            pstate = None
            if proc is not None:
                pstate = proc_states.get(proc)
                if pstate is None:
                    pstate = proc_states[proc] = _ProcState(proc)
                pstate.kernels.add(name)
            states[name] = _KernelState(rk, pstate)
        for name, rk in runtimes.items():
            st = states[name]
            st.out = {
                port: tuple((ch, states[ch.dst], id(ch) in input_channels)
                            for ch in chans)
                for port, chans in rk.outputs.items()
            }
            st.bounded_out = tuple(
                ch for chans in rk.outputs.values() for ch in chans
                if ch.capacity is not None
            )
            st.wake = {
                port: states[ch.src]
                for port, ch in rk.inputs.items()
                if ch.capacity is not None
            }

        # --- fault machinery (fully inert when no spec is active) --------
        fault_spec = opts.faults
        if fault_spec is not None and not fault_spec.active():
            fault_spec = None
        injector: FaultInjector | None = None
        recovery = None
        fstats = FaultStats()
        spare_pool: list[int] = []
        dead_map: dict[int, float] = {}
        slow_map: dict[int, float] = {}
        ch_faulted: set[int] | None = None
        if fault_spec is not None:
            injector = FaultInjector(fault_spec)
            fstats = injector.stats
            recovery = fault_spec.recovery
            dead_map = {f.processor: f.time_s for f in fault_spec.pe_failures}
            slow_map = dict(fault_spec.slow_pes)
            for proc, ps in proc_states.items():
                ps.dead_at = dead_map.get(proc, math.inf)
                ps.slow = slow_map.get(proc, 1.0)
            spare_pool = [
                p for p in getattr(self.mapping, "spares", ())
                if p not in proc_states
            ]
            chf = fault_spec.channel
            if chf.drop_probability > 0.0 or chf.duplicate_probability > 0.0:
                edges = set(chf.edges)
                ch_faulted = {
                    id(ch) for ch in channels
                    if not edges
                    or (ch.src, ch.src_port, ch.dst, ch.dst_port) in edges
                }

        # --- value demand: bodies nobody reads emit stand-ins -------------
        # (docs/simulator.md "Two planes").  The specialisation lives in
        # each dead kernel's bound-body table and source iterator, so the
        # loop below is the same loop whoever asked for what.
        dead: set[str] = set()
        if self.content is not None:
            dead = set(runtimes) - live_kernels(
                self.graph, self.content, everything=fault_spec is not None
            )
            for name in dead:
                runtimes[name].skip_bodies()

        violations: list[_Violation] = []
        trace: list[TraceEvent] = []

        # Telemetry is one precomputed local: None when off, so the loop
        # pays one test per observation point and nothing else.
        tele: TelemetryCollector | None = (
            TelemetryCollector(opts.telemetry)
            if opts.telemetry is not None else None
        )

        events: list = []
        next_seq = itertools.count().__next__
        heappush = heapq.heappush

        # Deliveries at a timestamp always process before polls at that
        # timestamp (event-kind ordering), so one queued poll per kernel
        # per timestamp observes everything — duplicates are pure waste.
        queued_polls: dict[_KernelState, float] = {}

        input_cap = opts.input_channel_capacity

        def push(time: float, ch: Channel, item, is_token: bool,
                 checked: bool) -> None:
            """Land one item on its channel: stamp, count, track occupancy,
            flag an unstallable input overrunning its consumer.  The one
            owner of channel accounting — every deliver variant below goes
            through it."""
            items = ch.items
            items.append(item)
            counter = ch.seq
            counter.value = stamp = counter.value + 1
            ch.seqs.append(stamp)
            if is_token:
                ch.total_tokens += 1
            else:
                ch.total_data += 1
            occupancy = len(items)
            if occupancy > ch.max_occupancy:
                ch.max_occupancy = occupancy
            if checked and occupancy > input_cap:
                violations.append(
                    _Violation(
                        time=time,
                        where=f"{ch.src}->{ch.dst}.{ch.dst_port}",
                        detail="input overran its consumer",
                    )
                )

        def deliver(time: float, st_src: _KernelState, port: str,
                    item) -> None:
            """The unobserved deliver — the hottest code in the loop."""
            is_token = isinstance(item, ControlToken)
            for ch, dst, checked in st_src.out.get(port, ()):
                push(time, ch, item, is_token, checked)
                if queued_polls.get(dst) != time:
                    queued_polls[dst] = time
                    heappush(events, (time, _POLL, next_seq(), dst))

        def land(time: float, ch: Channel, dst: _KernelState, checked: bool,
                 item, is_token: bool, meta=None) -> None:
            """Observed landing: push, telemetry span, consumer poll.
            ``meta`` is the route a NoC transfer took to get here:
            ``(hops, link_wait_s, route, links)``."""
            push(time, ch, item, is_token, checked)
            if tele is not None:
                if meta is None:
                    tele.transfer(time, ch, item, is_token)
                else:
                    tele.transfer(time, ch, item, is_token, *meta)
            if queued_polls.get(dst) != time:
                queued_polls[dst] = time
                heappush(events, (time, _POLL, next_seq(), dst))

        def wake(time: float, st: _KernelState, firing) -> None:
            """Backpressure release: a firing that consumed from bounded
            channels re-polls their producers, which may have stalled on
            the space it just freed.  Called only when ``st.wake`` is
            non-empty."""
            for port in firing.consume_ports:
                src = st.wake.get(port)
                if src is not None and queued_polls.get(src) != time:
                    queued_polls[src] = time
                    heappush(events, (time, _POLL, next_seq(), src))

        # --- NoC timing model (inert and absent when opts.noc is None) ---
        # Inter-element data transfers are routed XY over the mesh with
        # per-link contention and land as _ARRIVE events; local/off-chip
        # transfers and control tokens keep the seed's instant-push
        # semantics (tokens additionally never overtake data in flight
        # on their channel).
        noc = opts.noc
        nstats = NocStats()
        clock = self.processor.clock_hz
        if noc is not None:
            placed_tiles = noc.placement.tiles
            need = set(proc_states) | set(getattr(self.mapping, "spares", ()))
            unplaced = sorted(p for p in need if p not in placed_tiles)
            if unplaced:
                raise SimulationError(
                    "NoC placement has no tiles for processors "
                    f"{unplaced}; it covers {sorted(placed_tiles)}"
                )
            nstats.cols = noc.chip.cols
            hop_s = noc.per_hop_cycles / clock
            ser_cpe = noc.serialization_cycles_per_element
            link_busy: dict[int, float] = {}
            link_busy_s = nstats.link_busy_s
            route_cache: dict[tuple[int, int], tuple[int, ...]] = {}
            route_strs: dict[tuple[int, int], str] = {}
            link_labels: dict[int, str] = {}
            #: id(channel) -> latest scheduled arrival (FIFO fence).
            ch_last: dict[int, float] = {}

            def noc_send(time: float, st_src: _KernelState, ch: Channel,
                         dst: _KernelState, checked: bool, item,
                         is_token: bool) -> bool:
                """Put one transfer on the mesh as a future _ARRIVE event.
                False when it is local (one element, or an off-chip end)
                and so lands at once."""
                sp = st_src.proc
                dp = dst.proc
                route = ()
                if sp is not None and dp is not None and sp is not dp:
                    key = (sp.index, dp.index)
                    route = route_cache.get(key)
                    if route is None:
                        route = route_cache[key] = noc.route(*key)
                if not route:
                    if not is_token:
                        nstats.transfers_local += 1
                    return False
                chid = id(ch)
                last = ch_last.get(chid, 0.0)
                meta = None
                if is_token:
                    # Control plane: free, but FIFO per channel.
                    arrival = time if time > last else last
                    nstats.control_transfers += 1
                else:
                    ser_s = item.size * ser_cpe / clock
                    t = time
                    wait = 0.0
                    links_meta = []
                    for link in route:
                        busy = link_busy.get(link, 0.0)
                        start = busy if busy > t else t
                        wait += start - t
                        end = start + ser_s
                        link_busy[link] = end
                        link_busy_s[link] = link_busy_s.get(link, 0.0) + ser_s
                        if tele is not None:
                            label = link_labels.get(link)
                            if label is None:
                                label = link_labels[link] = \
                                    link_name(link, nstats.cols)
                            links_meta.append((label, start, end))
                        t = start + hop_s
                    arrival = t + ser_s
                    if arrival < last:
                        arrival = last
                    nstats.transfers_routed += 1
                    nstats.total_hops += len(route)
                    nstats.link_wait_s += wait
                    if tele is not None:
                        rstr = route_strs.get(key)
                        if rstr is None:
                            rstr = route_strs[key] = \
                                route_path(route, nstats.cols)
                        meta = (len(route), wait, rstr, tuple(links_meta))
                ch_last[chid] = arrival
                heappush(events, (arrival, _ARRIVE, next_seq(),
                                  (ch, dst, checked, item, is_token, meta)))
                return True

        if tele is not None or ch_faulted is not None or noc is not None:
            # The observed deliver: channel faults, telemetry spans and
            # NoC routing share one closure, so `deliver` above stays
            # free of their checks.
            def deliver(time: float, st_src: _KernelState, port: str,
                        item) -> None:
                is_token = isinstance(item, ControlToken)
                for ch, dst, checked in st_src.out.get(port, ()):
                    copies = 1
                    if (ch_faulted is not None and not is_token
                            and id(ch) in ch_faulted):
                        # Interconnect faults strike per data transfer, at
                        # injection (before it occupies any link); control
                        # tokens ride the reliable control plane.
                        if injector.transfer_dropped():
                            if tele is not None:
                                tele.transfer_dropped(time, ch)
                            continue
                        if injector.transfer_duplicated():
                            # The consumer sees the item twice, with full
                            # stamp/occupancy/overrun accounting.
                            copies = 2
                    for _ in range(copies):
                        if noc is None or not noc_send(
                            time, st_src, ch, dst, checked, item, is_token
                        ):
                            land(time, ch, dst, checked, item, is_token)

        def on_dead(ps: _ProcState, time: float) -> None:
            """Observe (lazily, at a poll) that ``ps`` is past its death time.

            Fail-stop at firing boundaries: an in-flight firing completes,
            then the element never starts another.  The first observation
            marks it dead and — policy and spares permitting — migrates
            its whole kernel group to a spare element, which only accepts
            work after ``migration_cycles`` of state transfer.  Spares
            inherit the scenario's slow/death schedule, so a doomed spare
            chains into the next migration.
            """
            if ps.dead:
                return
            ps.dead = True
            fstats.pe_deaths += 1
            if tele is not None:
                tele.pe_death(time, ps.index)
            if recovery.migrate and spare_pool:
                new_idx = spare_pool.pop(0)
                new = proc_states.get(new_idx)
                if new is None:
                    new = proc_states[new_idx] = _ProcState(
                        new_idx, dead_map.get(new_idx, math.inf),
                        slow_map.get(new_idx, 1.0))
                ready_at = time + recovery.migration_cycles / clock
                if new.free_at < ready_at:
                    new.free_at = ready_at
                fstats.migrations += 1
                fstats.recovery_latency_s += ready_at - ps.dead_at
                if tele is not None:
                    tele.migration(time, ps.index, new.index, ready_at,
                                   sorted(ps.kernels))
                new.kernels |= ps.kernels
                for kst in ps.pending:
                    if kst not in new.pending:
                        new.pending.append(kst)
                ps.pending.clear()
                # Sorted for determinism: set order varies across
                # processes (hash randomization), reruns must not.
                for name in sorted(ps.kernels):
                    kst = states[name]
                    kst.proc = new
                    if queued_polls.get(kst) != ready_at:
                        queued_polls[kst] = ready_at
                        heappush(events, (ready_at, _POLL, next_seq(), kst))
            else:
                # No spare (or no migration policy): the group stalls
                # forever — a permanent, unrecovered service loss.
                fstats.unrecovered += 1

        # --- recovery, bound only under an active fault spec -------------
        # The loop calls ``fire`` in place of ``st.execute`` and ``resync``
        # when a kernel finds nothing ready; None means the perfect
        # substrate, where neither can do anything.
        trace_on = opts.trace
        fire = resync = None
        if fault_spec is not None:
            def fire(time: float, st: _KernelState, ps: _ProcState,
                     firing):
                """Execute one on-chip firing under the fault spec.

                Returns the firing's result, with its data shed or
                zeroed when its last attempt faulted, or None when a
                transient fault holds the element for a retry: it burns
                the attempt's declared cycles detecting the fault, then
                idles through the backoff, and a ``_FINISH`` that emits
                nothing re-polls the kernel to attempt the same firing.
                """
                # The firing index counts *executed* firings, so a retried
                # attempt consults the same schedule slot.
                if not injector.firing_faulted(st.name, st.rk.firings):
                    if st.attempts:
                        fstats.recovered += 1
                        fstats.recovery_latency_s += time - st.fault_since
                        st.attempts = 0
                    return st.execute(firing)
                if st.attempts < recovery.max_retries:
                    if st.attempts == 0:
                        st.fault_since = time
                    st.attempts += 1
                    fstats.retries += 1
                    method = firing.method
                    declared = (method.cost.cycles if method is not None
                                else FORWARD_CYCLES)
                    label = method.name if method is not None else "<forward>"
                    detect_s = declared / clock * ps.slow
                    backoff_s = recovery.backoff_cycles * st.attempts / clock
                    ps.run_s += detect_s
                    ps.free_at = time + detect_s + backoff_s
                    st.running = True
                    if trace_on:
                        trace.append(TraceEvent(
                            start_s=time, processor=ps.index, kernel=st.name,
                            method=f"fault:{label}", read_s=0.0,
                            run_s=detect_s, write_s=0.0,
                        ))
                    if tele is not None:
                        tele.fault_retry(time, ps.index, st.name, label,
                                         detect_s, backoff_s)
                    heappush(events,
                             (ps.free_at, _FINISH, next_seq(), (st, ())))
                    return None
                # Retries exhausted: the firing still runs (its inputs
                # must drain for the stream to advance) but its data is
                # sacrificed.
                fstats.unrecovered += 1
                st.attempts = 0
                result = st.execute(firing)
                if recovery.shed:
                    # Shed: drop the data, keep the control tokens so the
                    # frame structure resynchronizes.
                    kept = [(p, it) for p, it in result.emissions
                            if isinstance(it, ControlToken)]
                    shed = len(result.emissions) - len(kept)
                    fstats.data_shed += shed
                    result.emissions = kept
                    if tele is not None:
                        tele.fault_outcome(time, st.name, ps.index, "shed",
                                           shed)
                else:
                    # No shedding: corrupted (zeroed) data flows on — the
                    # silent-divergence baseline.
                    fstats.corrupted += 1
                    result.emissions = [
                        (p, np.zeros_like(it)
                         if isinstance(it, np.ndarray) else it)
                        for p, it in result.emissions
                    ]
                    if tele is not None:
                        tele.fault_outcome(time, st.name, ps.index,
                                           "corrupt", 1)
                return result

        if fault_spec is not None and recovery.shed:
            def resync(st: _KernelState, time: float) -> bool:
                """Frame-level resynchronization at a multi-input join.

                After data has been lost (a shed firing upstream, a
                dropped transfer), a join can starve: one input presents
                its end-of-frame token while a sibling still presents
                unmatched data that will never get its partner.  Left
                alone the join deadlocks and the stream never recovers.
                The shedding policy instead drains the unmatched data up
                to each input's own token — abandoning the rest of the
                degraded frame — so the tokens align, the frame boundary
                forwards, and the next frame starts clean.  Returns True
                when anything was dropped.

                Only triggers once data was lost, and only on a genuine
                mismatch (token head on one input of a multi-input
                method, data head on another): without loss the
                unit-rate invariant keeps sibling inputs in lock-step.
                """
                if not (fstats.data_shed or fstats.transfers_dropped):
                    return False
                rk = st.rk
                dropped = False
                seen: list = []
                for port in rk._ports:
                    method = rk._data_method.get(port)
                    if (method is None or len(method.data_inputs) <= 1
                            or method in seen):
                        continue
                    seen.append(method)
                    chans = [rk.inputs.get(p) for p in method.data_inputs]
                    if any(ch is None for ch in chans):
                        continue
                    heads = [ch.items[0] if ch.items else None
                             for ch in chans]
                    has_token = any(isinstance(h, ControlToken)
                                    for h in heads)
                    has_data = any(
                        h is not None and not isinstance(h, ControlToken)
                        for h in heads
                    )
                    if not (has_token and has_data):
                        continue
                    for ch in chans:
                        items = ch.items
                        shed = 0
                        while items and not isinstance(items[0],
                                                       ControlToken):
                            ch.seqs.popleft()
                            items.popleft()
                            shed += 1
                        if shed:
                            fstats.data_shed += shed
                            dropped = True
                            if tele is not None:
                                tele.shed_channel(time, ch, shed)
                return dropped

        # --- startup: init methods, then lazy source cursors -------------
        for name, rk in runtimes.items():
            for result in rk.run_init():
                st = states[name]
                for port, item in result.emissions:
                    deliver(0.0, st, port, item)

        # One cursor per source, ordered constant-sources-then-inputs so
        # t=0 coefficient/bin loads beat the first data element (the same
        # ordering the functional executor and the seed loop guarantee).
        # The cursor's heap tie-breaker is its source index, which equals
        # the seed's pre-push sequence ordering at every shared timestamp.
        horizon = 0.0
        sources: list[_Source] = []
        for name, rk in runtimes.items():
            if isinstance(rk.kernel, ConstantSource):
                sources.append(_Source(
                    len(sources), states[name],
                    iter(((0.0, rk.kernel.values.copy()),)),
                ))
        for name, rk in runtimes.items():
            kernel = rk.kernel
            if isinstance(kernel, ApplicationInput):
                sources.append(_Source(
                    len(sources), states[name],
                    _timed_source_items(kernel, opts.frames, name in dead),
                ))
                horizon = max(horizon, opts.frames / kernel.rate_hz)
        for src in sources:
            if src.head is not None:
                heappush(events, (src.head[0], _DELIVER, src.idx, src.idx))

        return _Run(
            runtimes=runtimes, channels=channels, states=states,
            proc_states=proc_states, sources=sources, horizon=horizon,
            events=events, queued_polls=queued_polls, next_seq=next_seq,
            violations=violations, budget_overruns=[], trace=trace,
            fstats=fstats, tele=tele,
            nstats=nstats if noc is not None else None,
            deliver=deliver, land=land, wake=wake, on_dead=on_dead,
            fire=fire, resync=resync,
        )

    def _result(self, run: _Run, makespan: float, processed: int,
                peak_heap: int) -> SimulationResult:
        """Turn a finished run into the observable result."""
        outputs = {
            name: rk for name, rk in run.runtimes.items()
            if isinstance(rk.kernel, ApplicationOutput)
        }
        return SimulationResult(
            app=self.graph,
            options=self.options,
            makespan_s=makespan,
            utilization=UtilizationSummary(
                duration_s=max(makespan, run.horizon),
                processors={
                    proc: ps.to_stats()
                    for proc, ps in run.proc_states.items()
                },
            ),
            output_times={
                name: run.states[name].output_times for name in outputs
            },
            outputs={
                name: list(rk.kernel.received) for name, rk in outputs.items()
                if self.content is None or name in self.content
            },
            violations=run.violations,
            channels=run.channels,
            firings={name: rk.firings for name, rk in run.runtimes.items()},
            trace=run.trace,
            budget_overruns=run.budget_overruns,
            events_processed=processed,
            peak_heap=peak_heap,
            fault_stats=run.fstats,
            telemetry=(run.tele.finalize(makespan)
                       if run.tele is not None else None),
            noc_stats=run.nstats,
        )

    def _run_des(self) -> SimulationResult:
        """The discrete-event loop proper (one heap pop per event).

        It holds no fault code and no run-level mode: :meth:`_setup`
        bound the deliver variant, the fault closures (``fire``,
        ``resync``, ``on_dead``) and each kernel's channel bounds, and
        their fault-free values are neutral (docs/simulator.md "What
        set-up binds").
        """
        run = self._setup()
        opts = self.options
        events, queued_polls, next_seq = (
            run.events, run.queued_polls, run.next_seq)
        deliver, land, wake = run.deliver, run.land, run.wake
        on_dead, fire, resync = run.on_dead, run.fire, run.resync
        sources, trace, budget_overruns = (
            run.sources, run.trace, run.budget_overruns)
        tele = run.tele
        trace_on = opts.trace
        heappush = heapq.heappush
        heappop = heapq.heappop

        # --- main loop ---------------------------------------------------
        makespan = 0.0
        processed = 0
        peak_heap = 0
        max_events = opts.max_events
        clock = self.processor.clock_hz
        rcpe = self.processor.read_cycles_per_element
        wcpe = self.processor.write_cycles_per_element

        while events:
            # Handlers only push, so the heap peaks right before a pop.
            if len(events) > peak_heap:
                peak_heap = len(events)
            if processed >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; "
                    "the application is likely livelocked"
                )
            time, kind, _, payload = heappop(events)
            makespan = time  # heap pops are time-ordered: last pop wins

            if kind == _POLL:
                processed += 1
                st = payload
                # The entry (when present) always equals this poll's time:
                # polls are deduped per timestamp and future deliveries
                # cannot precede this pop in heap order.
                queued_polls.pop(st, None)
                if st.running:
                    continue
                ps = st.proc
                if ps is None:
                    # Off-chip boundary kernel: executes instantly.
                    st_ready = st.ready
                    st_execute = st.execute
                    while True:
                        firing = st_ready()
                        if firing is None:
                            break
                        result = st_execute(firing)
                        if tele is not None:
                            tele.io_firing(time, st, firing, result)
                        if st.wake:
                            wake(time, st, firing)
                        if st.is_output and firing.kind == "method":
                            times_out = st.output_times
                            for _port in firing.consume_ports:
                                times_out.append(time)
                        for port, item in result.emissions:
                            deliver(time, st, port, item)
                else:
                    if time >= ps.dead_at:
                        # Dead element: migrate its kernels (or stall them
                        # forever); either way this poll is over.
                        on_dead(ps, time)
                        continue
                    if ps.free_at > time:
                        pending = ps.pending
                        if st not in pending:
                            pending.append(st)
                        continue
                    firing = st.ready()
                    if firing is None:
                        if resync is not None and resync(st, time):
                            firing = st.ready()
                        if firing is None:
                            continue
                    if st.bounded_out:
                        me = st.max_emissions
                        blocked = False
                        for ch in st.bounded_out:
                            if len(ch.items) + me > ch.capacity:
                                blocked = True
                                break
                        if blocked:
                            # Backpressure stall: re-polled when a
                            # consumer frees space.
                            if tele is not None:
                                tele.stall(time, st.name, ps.index)
                            continue
                    if fire is None:
                        result = st.execute(firing)
                    else:
                        result = fire(time, st, ps, firing)
                        if result is None:
                            continue  # a retry holds the element
                    if st.wake:
                        wake(time, st, firing)
                    if result.dynamic and result.cycles > result.declared_cycles:
                        budget_overruns.append(BudgetOverrun(
                            time=time, kernel=st.name, method=result.label,
                            declared_cycles=result.declared_cycles,
                            actual_cycles=result.cycles,
                        ))
                    slow = ps.slow
                    read_s = result.elements_read * rcpe / clock * slow
                    run_s = result.cycles / clock * slow
                    write_s = result.elements_written * wcpe / clock * slow
                    duration = read_s + run_s + write_s
                    ps.read_s += read_s
                    ps.run_s += run_s
                    ps.write_s += write_s
                    ps.firings += 1
                    ps.free_at = time + duration
                    st.running = True
                    if trace_on:
                        trace.append(TraceEvent(
                            start_s=time, processor=ps.index, kernel=st.name,
                            method=result.label, read_s=read_s, run_s=run_s,
                            write_s=write_s,
                        ))
                    if tele is not None:
                        tele.firing(time, ps.index, st, firing, result,
                                    read_s, run_s, write_s)
                    heappush(events,
                             (time + duration, _FINISH, next_seq(),
                              (st, result.emissions)))

            elif kind == _FINISH:
                processed += 1
                st, emissions = payload
                st.running = False
                # A retry's finish emits nothing: its detect+backoff
                # window just ended, so the kernel re-polls (below) and
                # attempts the same firing again.
                for port, item in emissions:
                    deliver(time, st, port, item)
                ps = st.proc
                if ps is not None:
                    pending = ps.pending
                    pending.append(st)
                    # Poll everything sharing the (now free) element, in
                    # arrival order; only one will win the processor.
                    for other in pending:
                        if queued_polls.get(other) != time:
                            queued_polls[other] = time
                            heappush(events, (time, _POLL, next_seq(), other))
                    pending.clear()

            elif kind == _ARRIVE:
                # NoC arrival: a routed transfer reaches its consumer.
                # Exists only when a NoC model is active, so the three
                # seed event kinds above dispatch exactly as before.
                processed += 1
                land(time, *payload)

            else:  # _DELIVER: one source cursor; drain its timestamp batch
                source = sources[payload]
                st = source.st
                it = source.it
                head = source.head
                while head is not None and head[0] == time:
                    processed += 1
                    deliver(time, st, "out", head[1])
                    head = next(it, None)
                source.head = head
                if head is not None:
                    heappush(events, (head[0], _DELIVER, payload, payload))

        return self._result(run, makespan, processed, peak_heap)


def simulate(
    compiled: CompiledApp,
    options: SimulationOptions | None = None,
    *,
    content: Iterable[str] | None = None,
) -> SimulationResult:
    """Simulate a compiled application on its mapping.

    ``content`` names the application outputs whose received chunks the
    caller will read: ``None`` (the default) means all of them, ``()``
    none — a caller that only wants the verdict.  Kernels whose values
    reach no asked-for output and no value-dependent kernel fire at
    their declared cost without computing (docs/simulator.md "Two
    planes"); every timing observable is the same either way, and an
    output not asked for is absent from :attr:`SimulationResult.outputs`.
    """
    sim = Simulator(compiled.graph, compiled.mapping, compiled.processor,
                    options, content)
    return sim.run()
