"""The resident sweep scheduler: many tenants, one queue, one cache.

:class:`SweepService` is the asyncio core of ``repro serve``.  Every
submission is compiled into an immutable :class:`~.protocol.SweepPlan`
at admission, then driven through the guarded lifecycle machine while
its jobs funnel — together with every other tenant's — into one shared
priority queue.  Worker tasks pop jobs in ``(priority desc, admission
order)`` and fly each attempt through
:func:`repro.explore.executor.run_job_isolated` in a thread — the
one-shot path's supervisor plus a cooperative cancel flag — and hand
every payload to the one-shot path's policy,
:func:`~repro.explore.executor.settle`.  What this module adds is only
what is its own: cancel outranking a failure it raced, in-flight dedup,
a backoff slept in slices, ``run``/``tenant`` on records, and cache
writes kept off the event loop.

Deduplication happens at two levels, both keyed by the job fingerprint:

* the **content-addressed cache** short-circuits any job a previous run
  (or a previous life of the service) already completed;
* an **in-flight table** makes a concurrent duplicate *wait for* the
  first execution instead of repeating it — two tenants submitting
  overlapping specs at the same moment still execute each shared point
  exactly once, and the later run reports it as a cache hit.

Invariants (asserted by ``tests/test_serve.py``):

* exactly one terminal event (:class:`~.protocol.RunFinished`) per run,
  enforced by :class:`~.lifecycle.RunStateMachine`;
* exactly one terminal job event per job per run;
* cancellation from any non-terminal state reaches ``TERMINAL``;
* graceful drain: ``stop()`` refuses new submissions, lets in-flight
  work finish (or cancels it), and leaves no run non-terminal.

Supervision (see :mod:`repro.chaos`): ``heartbeat_s`` arms the worker
watchdog (a hung worker is killed and charged a retryable crash within
one heartbeat window instead of blocking a slot for its full timeout),
``quarantine_after`` parks fingerprints that crash-loop that many
consecutive times with a terminal ``quarantined`` record, and retry
backoff is bounded at ``backoff_max_s`` with deterministic
fingerprint-keyed jitter.  A :class:`~repro.chaos.ChaosInjector` passed
as ``chaos`` injects worker/storage faults to prove all of it; the
default ``chaos=None`` path is observation-free.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, AsyncIterator, Mapping

from ..chaos.inject import ChaosInjector
from ..chaos.watchdog import QuarantineLedger
from ..explore.events import JobCacheHit, JobRetried, JobStarted, SweepEvent
from ..explore.executor import (
    Crew,
    Retry,
    SweepOptions,
    failure_outcome,
    run_job_isolated,
    settle,
    terminal_event,
    terminal_record,
)
from ..explore.spec import Job
from .lifecycle import RunState, RunStateMachine
from .protocol import (
    RunAccepted,
    RunFinished,
    RunStateChanged,
    ServeError,
    SweepPlan,
    encode_event,
)
from .storage import ServiceStorage

__all__ = ["ServiceConfig", "RunHandle", "SweepService"]


@dataclass(frozen=True, slots=True)
class ServiceConfig(SweepOptions):
    """Execution knobs for the resident scheduler: the one-shot sweep's
    :class:`~repro.explore.SweepOptions`, field for field, with the two
    defaults a resident multi-tenant service wants different."""

    #: Concurrent jobs in flight across all runs (each alone on a
    #: crash-isolated resident worker process).
    workers: int = 2
    #: On by default: one poison design point must not burn every run's
    #: retry budget forever.
    quarantine_after: int = 3

    def resolved_workers(self) -> int:
        return max(1, self.workers)


class RunHandle:
    """Live view of one run: plan, lifecycle, events, terminal records."""

    def __init__(self, plan: SweepPlan, storage: ServiceStorage, *,
                 observer: Any | None = None) -> None:
        self.plan = plan
        self.machine = RunStateMachine()
        self._storage = storage
        #: Optional in-process metrics consumer (``envelope``/``record``
        #: methods — see :class:`repro.dash.MetricsAggregator`).  Gated
        #: ``is not None`` like faults/telemetry/chaos: the default
        #: ``None`` path is observation-free.
        self._observer = observer
        self._started = time.monotonic()
        #: Wire envelopes, in emission order (``seq`` is 1-based).
        self.events: list[dict[str, Any]] = []
        self._subscribers: list[asyncio.Queue] = []
        #: Terminal record per job index — the one-terminal-per-job map.
        #: Released once the run is terminal: every record is in the
        #: store by then, and a long-lived service must not keep them.
        self.records: dict[int, dict[str, Any]] = {}
        #: Jobs with a terminal record.
        self.done = 0
        #: Job indexes a worker has picked up (superset of in-flight).
        self.claimed: set[int] = set()
        #: Cooperative cancel flags of in-flight jobs, by index.
        self.cancel_flags: dict[int, threading.Event] = {}
        self.cancel_requested = False
        self.succeeded = 0
        self.failed = 0
        self.cancelled = 0
        self.cache_hits = 0
        self.quarantined = 0

    # -- event stream --------------------------------------------------

    def emit(self, event: SweepEvent) -> dict[str, Any]:
        envelope = encode_event(event, seq=len(self.events) + 1,
                                run_id=self.plan.run_id)
        self.events.append(envelope)
        self._storage.append_event(self.plan.run_id, envelope)
        if self._observer is not None:
            # After persistence, before fan-out: the observer sees
            # exactly the envelopes an offline replay of the event log
            # reads back, in the same order.
            self._observer.envelope(envelope)
        closing = isinstance(event, RunFinished)
        for queue in self._subscribers:
            queue.put_nowait(envelope)
            if closing:
                queue.put_nowait(None)
        if closing:
            self._subscribers.clear()
        return envelope

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        if self.machine.terminal:
            queue.put_nowait(None)  # stream over; history has the rest
        else:
            self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    # -- accounting ----------------------------------------------------

    def finish_job(self, index: int, record: dict[str, Any]) -> None:
        if self.machine.terminal or index in self.records:
            raise ServeError(
                f"job {index} of run {self.plan.run_id} produced a "
                "second terminal record"
            )
        self.records[index] = record
        self.done += 1
        if record.get("cache_hit"):
            self.cache_hits += 1
        if record.get("kind") == "result":
            self.succeeded += 1
        elif record.get("failure", {}).get("kind") == "cancelled":
            self.cancelled += 1
        else:
            if record.get("failure", {}).get("kind") == "quarantined":
                self.quarantined += 1  # a failure, separately counted
            self.failed += 1
        if self._observer is not None:
            # The one-terminal-record-per-job narrowest point: every
            # record — executed, failed, or cache hit — passes exactly
            # once, in the same synchronous block as its store append,
            # so the live fold order equals the ``results.jsonl`` order.
            self._observer.record(record)

    @property
    def elapsed_s(self) -> float:
        return time.monotonic() - self._started

    def info(self) -> dict[str, Any]:
        return {
            **self.plan.as_dict(),
            "state": self.machine.state.value,
            "status": self.machine.status,
            "done": self.done,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "cache_hits": self.cache_hits,
            "quarantined": self.quarantined,
        }


class SweepService:
    """Accept, schedule, execute, and narrate sweeps until told to stop."""

    def __init__(self, storage: ServiceStorage,
                 config: ServiceConfig = ServiceConfig(), *,
                 chaos: ChaosInjector | None = None,
                 observer: Any | None = None) -> None:
        self.storage = storage
        self.config = config
        self.chaos = chaos
        #: Metrics consumer threaded into every run handle (see
        #: :class:`RunHandle`); ``None`` keeps the service observation-
        #: free, the same contract as ``chaos=None``.
        self.observer = observer
        #: Wall-clock service start (``/healthz`` ``started_at``); None
        #: until :meth:`start`.
        self.started_at: float | None = None
        self._started_mono: float | None = None
        self._quarantine = QuarantineLedger(config.quarantine_after)
        #: The resident worker processes, one per worker task once it
        #: has flown a job; :meth:`stop` closes it.
        self._crew = Crew()
        self._runs: dict[str, RunHandle] = {}
        #: (-priority, admission seq, run_id, job index) min-heap.
        self._heap: list[tuple[int, int, str, int]] = []
        self._ticket = itertools.count()
        self._wakeup = asyncio.Event()
        #: fingerprint -> future resolving to the primary's result
        #: record (or None on failure) — the in-flight dedup table.
        self._inflight: dict[str, asyncio.Future] = {}
        self._workers: list[asyncio.Task] = []
        self._accepting = True
        self._stopping = False

    # -- lifecycle of the service itself -------------------------------

    async def start(self) -> None:
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        count = self.config.resolved_workers()
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"sweep-worker-{i}")
            for i in range(count)
        ]

    async def stop(self, *, drain: bool = True) -> None:
        """Refuse new work, settle existing work, stop the workers.

        ``drain=True`` executes everything already queued to its normal
        terminal record; ``drain=False`` cancels every live run first —
        either way no run is left non-terminal and no worker process
        outlives the service.
        """
        self._accepting = False
        if not drain:
            for run_id in list(self._runs):
                self.cancel(run_id, reason="shutdown")
        self._stopping = True
        self._wakeup.set()
        try:
            if self._workers:
                await asyncio.gather(*self._workers)
        finally:
            self._crew.close()
        self._workers = []

    @property
    def accepting(self) -> bool:
        return self._accepting

    @property
    def uptime_s(self) -> float | None:
        """Seconds since :meth:`start`, monotonic; None before start."""
        if self._started_mono is None:
            return None
        return time.monotonic() - self._started_mono

    # -- the public API the HTTP layer calls ---------------------------

    async def submit(self, spec_data: Mapping[str, Any], *,
                     tenant: str = "", priority: int = 0) -> RunHandle:
        if not self._accepting:
            raise ServeError("service is draining; not accepting runs")
        run_id = uuid.uuid4().hex[:12]
        # Plan compilation builds application graphs to fingerprint
        # them — off the event loop, like every other heavy step.
        plan = await asyncio.to_thread(
            SweepPlan.compile, dict(spec_data), run_id=run_id,
            tenant=tenant, priority=priority, created=time.time(),
        )
        handle = RunHandle(plan, self.storage, observer=self.observer)
        self._runs[run_id] = handle
        handle.emit(RunAccepted(plan.name, run_id=run_id, total=plan.total,
                                priority=plan.priority, tenant=plan.tenant))
        handle.machine.advance(RunState.QUEUED)
        handle.emit(RunStateChanged(plan.name, run_id=run_id,
                                    state=RunState.QUEUED.value))
        self.storage.register({**plan.as_dict(), "status": "accepted"})
        for index in range(plan.total):
            heapq.heappush(
                self._heap,
                (-plan.priority, next(self._ticket), run_id, index),
            )
        self._wakeup.set()
        return handle

    def run(self, run_id: str) -> RunHandle:
        handle = self._runs.get(run_id)
        if handle is None:
            raise ServeError(f"unknown run {run_id!r}")
        return handle

    def runs(self) -> list[RunHandle]:
        return list(self._runs.values())

    def cancel(self, run_id: str, *, reason: str = "cancel") -> RunHandle:
        """Request cancellation; every job reaches a terminal record.

        Synchronous on purpose: all it does is flip flags, settle jobs
        no worker has claimed, and let in-flight workers observe their
        cancel events — safe from any point in the event loop.
        ``reason`` travels on the :class:`RunStateChanged` event so
        observers can tell a client cancel from a service shutdown.
        """
        handle = self.run(run_id)
        if handle.machine.terminal or handle.cancel_requested:
            return handle
        handle.cancel_requested = True
        handle.machine.advance(RunState.DRAINING)
        handle.emit(RunStateChanged(handle.plan.name, run_id=run_id,
                                    state=RunState.DRAINING.value,
                                    reason=reason))
        for flag in handle.cancel_flags.values():
            flag.set()
        for index in range(handle.plan.total):
            if index not in handle.records and index not in handle.claimed:
                self._fail_job(handle, index, "cancelled",
                               "cancelled while queued", attempts=0)
        self._maybe_finish_run(handle)
        return handle

    async def watch(self, run_id: str,
                    since: int = 0) -> AsyncIterator[dict[str, Any]]:
        """Replay a run's envelopes from ``since`` then follow it live;
        the stream always ends at the run's single terminal event."""
        handle = self.run(run_id)
        queue = handle.subscribe()
        try:
            last = since
            for envelope in list(handle.events):
                if envelope["seq"] > last:
                    last = envelope["seq"]
                    yield envelope
                    if envelope["event"] == "RunFinished":
                        return
            while True:
                envelope = await queue.get()
                if envelope is None:
                    return
                if envelope["seq"] <= last:
                    continue
                last = envelope["seq"]
                yield envelope
                if envelope["event"] == "RunFinished":
                    return
        finally:
            handle.unsubscribe(queue)

    # -- the worker loop -----------------------------------------------

    async def _next_entry(self) -> tuple[RunHandle, int] | None:
        while True:
            while self._heap:
                _, _, run_id, index = heapq.heappop(self._heap)
                handle = self._runs[run_id]
                if (handle.machine.terminal or index in handle.records
                        or index in handle.claimed):
                    continue  # settled by cancel, or a requeued duplicate
                handle.claimed.add(index)
                return handle, index
            if self._stopping:
                return None
            self._wakeup.clear()
            if self._heap or self._stopping:
                continue
            await self._wakeup.wait()

    async def _worker_loop(self) -> None:
        while True:
            entry = await self._next_entry()
            if entry is None:
                return
            handle, index = entry
            try:
                await self._run_entry(handle, index)
            except Exception as exc:  # noqa: BLE001 - keep the loop alive
                # A scheduler bug must not wedge the service: charge the
                # job a terminal failure and keep serving.
                if not handle.machine.terminal \
                        and index not in handle.records:
                    self._fail_job(
                        handle, index, "error",
                        f"scheduler error: {type(exc).__name__}: {exc}",
                        attempts=1,
                    )
                self._maybe_finish_run(handle)

    async def _run_entry(self, handle: RunHandle, index: int) -> None:
        job = handle.plan.jobs[index]
        fingerprint = handle.plan.fingerprints[index]
        if handle.machine.state is RunState.QUEUED:
            handle.machine.advance(RunState.EXECUTING)
            handle.emit(RunStateChanged(handle.plan.name,
                                        run_id=handle.plan.run_id,
                                        state=RunState.EXECUTING.value))
        if handle.cancel_requested:
            self._fail_job(handle, index, "cancelled",
                           "cancelled before start", attempts=0)
            self._maybe_finish_run(handle)
            return

        cached = await asyncio.to_thread(self.storage.cache.get, fingerprint)
        if cached is None:
            cached = await self._await_inflight(handle, fingerprint)
        if handle.cancel_requested and cached is None:
            self._fail_job(handle, index, "cancelled",
                           "cancelled before start", attempts=0)
            self._maybe_finish_run(handle)
            return
        if cached is not None:
            handle.emit(JobCacheHit(job.label, fingerprint=fingerprint))
            handle.finish_job(index, {**cached, "cache_hit": True})
            self.storage.store.append({**cached, "cache_hit": True})
            self._maybe_finish_run(handle)
            return

        parked = self._quarantine.reason(fingerprint)
        if parked is not None:
            # A fingerprint that crash-looped past its budget in *any*
            # run is parked service-wide: terminal record, no execution,
            # no retry budget spent.
            self._fail_job(handle, index, "quarantined", parked,
                           attempts=0)
            self._maybe_finish_run(handle)
            return

        await self._execute(handle, index, job, fingerprint)
        self._maybe_finish_run(handle)

    async def _await_inflight(self, handle: RunHandle,
                              fingerprint: str) -> dict[str, Any] | None:
        """Ride on a concurrent execution of the same fingerprint.

        Returns its result record (a dedup hit), or None when there is
        no in-flight primary — or it failed, in which case this job
        falls through and executes itself.
        """
        while True:
            future = self._inflight.get(fingerprint)
            if future is None:
                return None
            record = await asyncio.shield(future)
            if record is not None:
                return record

    async def _execute(self, handle: RunHandle, index: int, job: Job,
                       fingerprint: str) -> None:
        """Fly attempts until :func:`~repro.explore.executor.settle`
        (or a cancel, which outranks every failure) makes one terminal."""
        config = self.config
        flag = threading.Event()
        if handle.cancel_requested:
            flag.set()
        handle.cancel_flags[index] = flag
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[fingerprint] = future
        attempt = 0
        try:
            while True:
                attempt += 1
                handle.emit(JobStarted(job.label, attempt=attempt))
                chaos_action = None
                if self.chaos is not None:
                    chaos_action = self.chaos.worker_action(
                        fingerprint, attempt, job.label,
                    )
                payload = await asyncio.to_thread(
                    run_job_isolated, job, cancel=flag,
                    poll_s=config.tick_s,
                    heartbeat_s=config.heartbeat_s,
                    chaos_action=chaos_action, crew=self._crew,
                )
                kind = payload.get("kind", "error")
                message = payload.get("message", "unknown failure")
                if kind == "cancelled":
                    outcome = failure_outcome(kind, message, attempt)
                elif not payload.get("ok") and (
                        flag.is_set() or handle.cancel_requested):
                    # Cancel raced the failure — e.g. the watchdog
                    # killed the worker in the same poll window the
                    # cancel flag went up, so the payload reads
                    # "crash".  The user asked for cancellation:
                    # honouring the crash with a retry would resurrect
                    # a cancelled job (and its run) from the dead.
                    outcome = failure_outcome(
                        "cancelled",
                        f"cancelled during attempt ({kind}: {message})",
                        attempt,
                    )
                else:
                    outcome = settle(job, payload, attempt, config,
                                     self._quarantine)
                if isinstance(outcome, Retry):
                    handle.emit(JobRetried(job.label, attempt=attempt,
                                           reason=outcome.reason,
                                           delay_s=outcome.delay_s))
                    # Sleep in tick_s slices so a cancel arriving
                    # mid-backoff settles the job within one slice
                    # instead of after the full (possibly capped but
                    # multi-second) delay.
                    slept = 0.0
                    while (slept < outcome.delay_s and not flag.is_set()
                            and not handle.cancel_requested):
                        step = min(config.tick_s, outcome.delay_s - slept)
                        await asyncio.sleep(step)
                        slept += step
                    if not (flag.is_set() or handle.cancel_requested):
                        continue
                    outcome = failure_outcome(
                        "cancelled", "cancelled during retry backoff",
                        attempt,
                    )
                record = self._record(handle, index, outcome)
                if record["kind"] == "result":
                    await asyncio.to_thread(
                        self.storage.cache.put, fingerprint, record
                    )
                    future.set_result(record)
                self._publish(handle, index, record)
                return
        finally:
            self._inflight.pop(fingerprint, None)
            handle.cancel_flags.pop(index, None)
            if not future.done():
                future.set_result(None)  # wake duplicates; they re-check

    # -- terminal records ----------------------------------------------

    def _record(self, handle: RunHandle, index: int,
                outcome: Mapping[str, Any]) -> dict[str, Any]:
        extra = {"run": handle.plan.run_id, "tenant": handle.plan.tenant}
        if self.chaos is not None:
            # Results produced under injected faults are marked so an
            # analysis never mistakes a chaos run for a clean one.
            extra["chaos"] = True
        return terminal_record(handle.plan.jobs[index], outcome, **extra)

    def _publish(self, handle: RunHandle, index: int,
                 record: dict[str, Any]) -> None:
        """Store append, run accounting and the job's terminal event,
        in one synchronous block."""
        self.storage.store.append(record)
        handle.finish_job(index, record)
        handle.emit(terminal_event(record))

    def _fail_job(self, handle: RunHandle, index: int, kind: str,
                  message: str, *, attempts: int) -> None:
        """A terminal failure the scheduler decides itself: cancelled,
        already quarantined, or its own bug.  ``attempts`` counts the
        attempts actually started — 0 when the job never ran."""
        self._publish(handle, index, self._record(
            handle, index, failure_outcome(kind, message, attempts)))

    def _maybe_finish_run(self, handle: RunHandle) -> None:
        if handle.machine.terminal or handle.done != handle.plan.total:
            return
        if handle.cancel_requested or handle.cancelled:
            status = "cancelled"
        elif handle.failed:
            status = "failed"
        else:
            status = "succeeded"
        handle.machine.finish(status)
        handle.emit(RunFinished(
            handle.plan.name,
            run_id=handle.plan.run_id,
            status=status,
            total=handle.plan.total,
            succeeded=handle.succeeded,
            failed=handle.failed,
            cancelled=handle.cancelled,
            cache_hits=handle.cache_hits,
            elapsed_s=handle.elapsed_s,
        ))
        # Every record is in the store now; the handle keeps its plan,
        # counters and envelopes (``info()``, ``watch()``) and nothing
        # per job.
        handle.records = {}
        handle.claimed = set()
        self.storage.register({
            "run": handle.plan.run_id,
            "status": status,
            "done": handle.done,
            "succeeded": handle.succeeded,
            "failed": handle.failed,
            "cancelled": handle.cancelled,
            "cache_hits": handle.cache_hits,
            "elapsed_s": handle.elapsed_s,
        })
