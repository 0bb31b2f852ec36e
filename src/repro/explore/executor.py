"""Parallel sweep execution: compile→simulate→measure as fault-isolated jobs.

Jobs run in supervised worker processes so a crashing or hanging design
point cannot take the sweep (or the parent interpreter) down.  Workers
are **resident**: a :class:`Crew` forks one per slot, on the slot's
first flight, and a worker that answered serves the slot's next job —
24 jobs on 2 workers cost 2 forks, and a job costs what its simulation
costs (a process per attempt measured ≈ 19 ms against ≈ 40 ms jobs).
Isolation does not need a process per job, only **one job per worker at
a time**: a worker that dies identifies its crasher exactly, and a hung
or overdue one is killed — and its slot given a fresh fork — without
touching anything else.  No collateral blame, no requeue storms.  The
crew's owner (:func:`run_sweep` for the call, ``repro serve`` for the
life of the service) closes it on every exit path; nothing is left to
interpreter exit.

Two things live here and nowhere else, and both front ends — this
module's :func:`run_sweep` and :class:`repro.serve.SweepService` — go
through them:

* **one supervisor**, :class:`_Flight`: one attempt on a worker
  borrowed from the crew, with a wall-clock deadline and (opt-in) a
  heartbeat file, whose ``poll()`` says what became of the worker and
  whose ``close()`` hands it back or kills it;
* **one policy**, :func:`settle`: what an attempt's payload means — a
  :class:`Retry` or the terminal outcome — from which
  :func:`terminal_record` and :func:`terminal_event` build the record
  and its event.

Together they guarantee **exactly one terminal record per job**:

* a normal completion records a ``result``;
* a Python exception in the worker is classified — deterministic compile
  errors (:class:`~repro.errors.BlockParallelError`) fail immediately,
  anything else retries with exponential backoff up to ``retries`` times
  before recording a ``failure`` of kind ``error``;
* a worker that dies mid-job (segfault, ``os._exit``) is charged a
  ``crash`` attempt (retryable: transient infrastructure kills exist),
  terminal after ``retries``; one that dies *between* jobs is replaced
  at hand-off and charged to nobody;
* a job past its deadline is recorded as kind ``timeout`` (terminal by
  default — a deterministic hang only wastes the budget again; opt into
  ``retry_timeouts`` for flaky-infrastructure setups) and its worker
  process is killed.

Results are stored through the content-addressed cache (hits skip
execution entirely) and appended to the JSONL store.  ``workers=0``
selects in-process serial execution — no isolation and best-effort
timeouts, but trivially debuggable.

Supervision (opt-in, from :mod:`repro.chaos`):

* ``heartbeat_s`` arms a **watchdog**: workers touch a heartbeat file
  on a short interval, and a worker silent past the deadline is killed
  and charged a retryable ``crash`` — a wedged process then costs one
  heartbeat window, not its full wall-clock timeout.
* ``quarantine_after`` arms **poison-job quarantine**: a fingerprint
  that crashes that many consecutive times is parked with a terminal
  ``quarantined`` record instead of burning the whole retry budget.
* Retry backoff is **bounded** at ``backoff_max_s`` with deterministic
  fingerprint-keyed jitter (see :func:`repro.chaos.backoff_delay`), so
  shared-cause failures do not synchronize into retry herds.

A :class:`~repro.chaos.ChaosInjector` passed as ``chaos`` injects
worker crashes/hangs/slowdowns per ``(fingerprint, attempt)`` in the
pooled path (the serial path has no worker process to break and runs
clean) and marks the records it executes ``"chaos": True``.  All of
this sits behind ``None``/``0`` defaults: a chaos-free sweep takes none
of these branches.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import stat
import tempfile
import threading
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..chaos.inject import ChaosInjector
from ..chaos.watchdog import (
    QuarantineLedger,
    backoff_delay,
    heartbeat_stale,
    start_heartbeat,
)
from ..errors import BlockParallelError, SimulationError
from ..faults import FaultSpec
from ..graph.app import ApplicationGraph
from ..machine import ProcessorSpec, build_noc_model
from ..sim.simulator import SimulationOptions, SimulationResult, simulate
from ..sim.stats import RealTimeVerdict
from ..transform.compile import (
    CompiledApp,
    CompileOptions,
    compile_application,
)
from .cache import ResultCache
from .events import (
    JobCacheHit,
    JobFailed,
    JobFinished,
    JobRetried,
    JobScheduled,
    JobStarted,
    SweepEvent,
    SweepFinished,
    SweepStarted,
)
from .spec import Job
from .store import ResultStore, SweepReport, aggregate

__all__ = [
    "SweepOptions",
    "SweepResult",
    "run_sweep",
    "measure",
    "execute_job",
    "run_job_isolated",
]

#: Results/failures written by this executor.
RESULT_SCHEMA = 1


@dataclass(frozen=True, slots=True)
class SweepOptions:
    """Execution knobs for one sweep run."""

    #: Worker processes; 0 means serial in-process execution.
    workers: int = 0
    #: Extra attempts after the first failure of a retryable kind.
    retries: int = 2
    #: Base of the exponential retry backoff, seconds.
    backoff_s: float = 0.1
    #: Cap on the exponential backoff, seconds (jittered below it).
    backoff_max_s: float = 5.0
    #: Whether a timed-out job is retried (default: terminal).
    retry_timeouts: bool = False
    #: Poll granularity, seconds: how often the parent looks at its
    #: flights (deadline, heartbeat) and — in ``repro serve`` — at a
    #: job's cancel flag, in flight or backing off.
    tick_s: float = 0.05
    #: Watchdog heartbeat deadline, seconds; None disarms the watchdog.
    heartbeat_s: float | None = None
    #: Consecutive crashes before a fingerprint is quarantined; 0 = off
    #: (the historical behaviour: crashes spend the retry budget).
    quarantine_after: int = 0

    def resolved_workers(self) -> int:
        if self.workers < 0:
            return max(1, (os.cpu_count() or 2) - 1)
        return self.workers


@dataclass(slots=True)
class SweepResult:
    """Terminal records for every job, in job order."""

    sweep: str
    records: list[dict[str, Any]]
    elapsed_s: float

    @property
    def succeeded(self) -> int:
        return sum(1 for r in self.records if r["kind"] == "result")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["kind"] == "failure")

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.get("cache_hit"))

    def report(self) -> SweepReport:
        return aggregate(self.records)

    def describe(self) -> str:
        return self.report().describe()


# ---------------------------------------------------------------------------
# Job execution (runs inside workers; also the serial path)


def _apply_injection(job: Job) -> None:
    """Test/ops failure hooks; a no-op for real jobs."""
    inject = job.inject_dict
    mode = inject.get("mode")
    if not mode:
        return
    if mode == "hang":
        time.sleep(float(inject.get("sleep_s", 3600.0)))
    elif mode == "crash":
        os._exit(int(inject.get("exit_code", 13)))
    elif mode == "error":
        raise RuntimeError(inject.get("message", "injected failure"))
    elif mode == "flaky":
        # Fail the first ``fail_times`` attempts, succeed afterwards.
        # Attempts are counted through marker files because each attempt
        # may land in a different worker process.
        marker_dir = inject["marker_dir"]
        fail_times = int(inject.get("fail_times", 1))
        os.makedirs(marker_dir, exist_ok=True)
        prefix = job.fingerprint[:16]
        seen = sum(1 for f in os.listdir(marker_dir)
                   if f.startswith(prefix))
        if seen < fail_times:
            with open(os.path.join(marker_dir, f"{prefix}.{seen}"),
                      "w", encoding="utf-8"):
                pass
            raise RuntimeError(
                f"injected flaky failure {seen + 1}/{fail_times}"
            )
    else:
        raise RuntimeError(f"unknown injection mode {mode!r}")


def measure(
    app: ApplicationGraph,
    processor: ProcessorSpec,
    options: CompileOptions,
    *,
    frames: int,
    faults: FaultSpec | None = None,
    noc: Mapping[str, Any] | None = None,
    placement: str | None = None,
    **sim_options: Any,
) -> tuple[CompiledApp, SimulationResult, RealTimeVerdict, float]:
    """Compile ``app``, simulate it and judge the run: the one
    measurement path behind :func:`execute_job` and the single-app CLI
    commands.  Returns ``(compiled, result, verdict, simulate wall s)``.

    ``noc`` turns the NoC timing model on: its items (``mesh``,
    ``per_hop_cycles``, ``serialization_cycles_per_element``) and
    ``placement`` go to :func:`~repro.machine.build_noc_model`.
    ``sim_options`` are further :class:`~repro.sim.SimulationOptions`
    fields (``telemetry``, ``trace``, ``replay``).  The
    verdict is taken on the compiled graph's own
    :meth:`~repro.transform.CompiledApp.contract`, with shedding allowed
    exactly when the fault scenario's recovery policy sheds.

    A verdict has no pixels, so the run asks for no output content
    (``simulate(..., content=())``): ``result.outputs`` is empty and
    kernels whose values nothing times fire without computing.
    """
    if frames < 1:
        raise SimulationError(
            f"a verdict needs at least one frame, got frames={frames!r}"
        )
    compiled = compile_application(app, processor, options)
    model = None
    if noc is not None:
        model = build_noc_model(compiled, placement=placement, **noc)
    sim_started = time.perf_counter()
    result = simulate(
        compiled,
        SimulationOptions(frames=frames, faults=faults, noc=model,
                          **sim_options),
        content=(),
    )
    sim_elapsed = time.perf_counter() - sim_started
    verdict = result.verdict(
        **compiled.contract(), frames=frames,
        allow_shedding=faults is not None and faults.recovery.shed,
    )
    return compiled, result, verdict, sim_elapsed


def execute_job(job: Job) -> dict[str, Any]:
    """Compile, simulate, and measure one design point.

    Returns the plain-data ``stats`` payload of a result record.  Raises
    on failure; classification happens in the worker wrapper.
    """
    _apply_injection(job)
    started = time.perf_counter()
    fault_spec = job.fault_spec()
    compiled, result, verdict, sim_elapsed = measure(
        job.build_app(), job.build_processor(), job.build_options(),
        frames=job.frames, faults=fault_spec,
        noc=dict(job.noc) or None, placement=job.placement,
        telemetry=job.telemetry, replay=job.replay,
    )
    stats: dict[str, Any] = {
        "processor_count": compiled.processor_count,
        "kernel_count": compiled.kernel_count(),
        "avg_utilization": result.utilization.average_utilization,
        "components": result.utilization.component_fractions(),
        "meets": verdict.meets,
        "worst_interval_s": (
            None if verdict.worst_interval_s == float("inf")
            else verdict.worst_interval_s
        ),
        "input_overruns": verdict.input_overruns,
        "rate_hz": compiled.contract()["rate_hz"],
        "frames": job.frames,
        "makespan_s": result.makespan_s,
        "elapsed_s": time.perf_counter() - started,
        # Simulator throughput, the BENCH_sim.json trajectory metric:
        # sweeps dominated by simulation surface regressions here first.
        "events": result.events_processed,
        "sim_elapsed_s": sim_elapsed,
        "events_per_s": (
            result.events_processed / sim_elapsed if sim_elapsed > 0 else 0.0
        ),
    }
    if fault_spec is not None and fault_spec.active():
        # Degradation accounting rides along, so fault scenarios sweep —
        # and report — like any other design axis.
        stats["faults"] = result.fault_stats.as_dict()
        stats["frames_shed"] = verdict.frames_shed
        stats["unrecovered_faults"] = result.fault_stats.unrecovered
    if result.noc_stats is not None:
        # Link-level congestion rides along like fault stats do, so the
        # placement/NoC axes report their effect next to the makespan.
        stats["noc"] = {
            "placement": job.placement or "row-major",
            **result.noc_stats.as_dict(result.makespan_s),
        }
    if result.replay is not None:
        # A replay-on record carries the run's (all-zero) replay ledger.
        stats["replay"] = result.replay.as_dict()
    if result.telemetry is not None:
        from ..obs import analyze_critical_path

        path = analyze_critical_path(result.telemetry)
        stats["telemetry"] = {
            "spans": result.telemetry.span_counts(),
            "dropped_spans": result.telemetry.dropped_spans,
            "critical_path": path.as_dict(),
        }
    return stats


def _worker(job_dict: dict[str, Any],
            chaos_action: dict[str, Any] | None = None,
            heartbeat: str | None = None,
            heartbeat_interval_s: float = 0.0) -> dict[str, Any]:
    """One attempt, as a resident worker runs it: never raises, so every
    Python-level failure comes back as data (only a dead worker fails to
    answer).

    ``chaos_action`` is a pre-drawn injector decision (the parent draws
    it so the worker stays deterministic); ``heartbeat`` is the watchdog
    file this worker must keep fresh while it is healthy.
    """
    action = chaos_action or {}
    if action.get("mode") == "hang":
        # A wedged worker heartbeats nothing: deliberately do NOT start
        # the heartbeat thread, so the parent's watchdog observes the
        # exact silence a real hang (stuck in C, SIGSTOP, swap death)
        # produces.
        while True:  # pragma: no cover - killed by parent
            time.sleep(3600.0)
    stop = None
    if heartbeat is not None and heartbeat_interval_s > 0.0:
        stop = start_heartbeat(heartbeat, heartbeat_interval_s)
    try:
        if action.get("mode") == "crash":
            os._exit(23)  # hard death: no answer, blamed as crash
        if action.get("mode") == "slow":
            time.sleep(float(action.get("delay_s", 0.0)))
        job = Job.from_dict(job_dict)
        try:
            return {"ok": True, "stats": execute_job(job)}
        except BlockParallelError as exc:
            return {"ok": False, "kind": "compile-error",
                    "message": f"{type(exc).__name__}: {exc}",
                    "retryable": False}
        except BaseException as exc:  # noqa: BLE001 - isolation boundary
            return {"ok": False, "kind": "error",
                    "message": f"{type(exc).__name__}: {exc}",
                    "retryable": True}
    finally:
        if stop is not None:
            # Joined before the answer goes out: the parent unlinks the
            # file on receipt, and this worker lives on.
            stop()


# ---------------------------------------------------------------------------
# The supervisor: resident worker processes, one attempt at a time on each


def _mp_context():
    # fork keeps worker startup at microseconds (no numpy re-import);
    # fall back to spawn where fork does not exist.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _worker_init(keep: int) -> None:
    """Drop what a worker must not share with the parent it was forked
    from: signal plumbing and sockets.

    A forked worker inherits the parent's signal wakeup fd (asyncio's
    self-pipe when the parent is ``repro serve``) and its no-op Python
    handlers.  Left alone, a signal sent to the worker would be written
    into the *shared* pipe and the parent's event loop would dispatch
    its own shutdown handler.  Detach the fd and restore default
    dispositions so signals stay within this process.

    It also inherits every socket open at that moment — ``repro
    serve``'s client connections, the pipe ends of sibling workers and
    the parent's end of its own — and a resident worker would hold them
    for its whole life: a connection the service closes would never
    reach EOF at the client, a dead sibling (or parent) would never read
    as EOF either.  Close them all but ``keep``, this worker's own end.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass
    with suppress(OSError):  # no fd directory: spawned, nothing inherited
        for fd in map(int, os.listdir("/dev/fd")):
            with suppress(OSError):  # the listing's own descriptor, gone
                if fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.close(fd)


def _serve(conn: Connection) -> None:
    """Main of a resident worker: answer one :func:`_worker` request at
    a time until killed, or until the parent is gone (EOF)."""
    _worker_init(conn.fileno())
    with suppress(EOFError):
        while True:
            conn.send(_worker(*conn.recv()))


class _Worker:
    """One resident worker process and the parent's end of its pipe."""

    def __init__(self) -> None:
        context = _mp_context()
        self.conn, child = context.Pipe()
        self.proc = context.Process(target=_serve, args=(child,),
                                    name="repro-sweep-worker", daemon=True)
        self.proc.start()
        child.close()

    def kill(self) -> None:
        """End the process whatever it is doing — busy, hung, idle or
        already dead — and reap it (a reaped child is what
        ``RUSAGE_CHILDREN`` and ``active_children()`` account for)."""
        self.proc.kill()
        self.proc.join()
        self.proc.close()
        self.conn.close()


class Crew:
    """The resident workers of one owner — a :func:`run_sweep` call, a
    :class:`repro.serve.SweepService`, or a lone
    :func:`run_job_isolated` — parked here between flights.

    A worker process is forked when a flight finds nobody parked, so a
    crew holds as many as its owner flies at once (its ``workers``) and
    an owner that never flies (a fully cached sweep, a service that only
    boots) forks none.  :meth:`acquire` and :meth:`release` are
    thread-safe, and forks are serialised under the same lock so none
    catches a sibling half set up.  The owner must :meth:`close` (or
    leave the ``with`` block) on every exit path: nothing else ends a
    parked worker before the interpreter does.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._parked: list[_Worker] = []

    def acquire(self) -> _Worker:
        """A parked worker, else a fresh one.  A worker that died while
        parked (say, OOM-killed between jobs) is reaped and replaced
        here, so its death is never charged to the next job."""
        with self._lock:
            while self._parked:
                worker = self._parked.pop()
                if worker.proc.is_alive():
                    return worker
                worker.kill()
            return _Worker()

    def release(self, worker: _Worker) -> None:
        with self._lock:
            self._parked.append(worker)

    def close(self) -> None:
        """Kill every parked worker (they are idle: nothing is lost)."""
        with self._lock:
            while self._parked:
                self._parked.pop().kill()

    def __enter__(self) -> "Crew":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _Flight:
    """One attempt in flight: a worker borrowed from a :class:`Crew`,
    the attempt's wall-clock deadline and (watchdog armed) its heartbeat
    file.

    The only supervisor of a worker process.  :func:`run_job_isolated`
    flies one and adds a cancel check; :func:`run_sweep`'s pooled path
    flies up to ``workers`` at once; both learn what happened to the
    worker from :meth:`poll` and both must :meth:`close`.
    """

    __slots__ = ("budget", "crew", "deadline", "heartbeat", "heartbeat_s",
                 "reusable", "waitables", "worker")

    def __init__(self, crew: Crew, job: Job, *,
                 timeout_s: float | None = None,
                 heartbeat_s: float | None = None,
                 chaos_action: dict[str, Any] | None = None) -> None:
        self.budget = job.timeout_s if timeout_s is None else timeout_s
        self.heartbeat_s = heartbeat_s or 0.0  # None and 0 both disarm
        self.heartbeat: str | None = None
        self.crew = crew
        self.reusable = False
        self.worker = crew.acquire()
        #: What :func:`multiprocessing.connection.wait` can sleep on:
        #: ready when the worker has answered or died.
        self.waitables = (self.worker.conn, self.worker.proc.sentinel)
        try:
            if self.heartbeat_s > 0.0:
                fd, path = tempfile.mkstemp(prefix="repro-heartbeat-")
                os.close(fd)
                self.heartbeat = path
            self.deadline = time.monotonic() + self.budget
            # The worker beats every quarter-deadline.
            try:
                self.worker.conn.send((job.to_dict(), chaos_action,
                                       self.heartbeat,
                                       self.heartbeat_s / 4.0))
            except OSError:
                pass  # died since acquire(): poll() reports the crash
        except BaseException:
            self.close()
            raise

    def done(self) -> bool:
        """Whether the worker has answered or died."""
        return self.worker.conn.poll() or not self.worker.proc.is_alive()

    def poll(self) -> dict[str, Any] | None:
        """The attempt's payload once its fate is known, else None.

        A payload is the worker's own (``{"ok": True, "stats": ...}`` or
        a classified Python-level failure) or one of the three verdicts
        only the parent can reach: ``crash`` when the worker died (one
        job per worker at a time makes the blame exact), ``crash`` with
        ``"watchdog": True`` when its heartbeat went stale, ``timeout``
        past the deadline.  The worker is still alive after the last
        two: the caller's :meth:`close` kills it.
        """
        if self.done():
            conn = self.worker.conn
            try:
                # Only a readable pipe is read: death is not always an
                # EOF (a fork from another thread, caught mid-set-up,
                # can hold a copy of the dead worker's end).
                if conn.poll():
                    payload = conn.recv()
                    self.reusable = True
                    return payload
            except (EOFError, OSError):
                pass
            return {"ok": False, "kind": "crash",
                    "message": "worker process died", "retryable": True}
        if (self.heartbeat is not None
                and heartbeat_stale(self.heartbeat, self.heartbeat_s)):
            return {"ok": False, "kind": "crash",
                    "message": (f"watchdog: no heartbeat for "
                                f"{self.heartbeat_s:g}s; worker killed"),
                    "retryable": True, "watchdog": True}
        if time.monotonic() >= self.deadline:
            return {"ok": False, "kind": "timeout",
                    "message": f"exceeded {self.budget:g}s wall clock",
                    "retryable": False}
        return None

    def close(self) -> None:
        """Hand a worker that answered back to the crew; kill it in
        every other case — dead, hung, overdue, cancelled mid-flight —
        so the next flight forks a clean one.  Remove the heartbeat
        file."""
        if self.reusable:
            self.crew.release(self.worker)
        else:
            self.worker.kill()
        if self.heartbeat is not None:
            try:
                os.unlink(self.heartbeat)
            except OSError:  # pragma: no cover - already gone
                pass


def run_job_isolated(
    job: Job,
    *,
    timeout_s: float | None = None,
    cancel: threading.Event | None = None,
    poll_s: float = 0.05,
    heartbeat_s: float | None = None,
    chaos_action: dict[str, Any] | None = None,
    crew: Crew | None = None,
) -> dict[str, Any]:
    """One job attempt on a supervised worker process, cancellable.

    This is the blocking execution primitive :mod:`repro.serve` drives
    from worker threads: one :class:`_Flight` — the same crash
    isolation, watchdog and deadline as :func:`run_sweep`'s pooled path
    — plus a cooperative ``cancel`` event.  Returns a payload shaped
    like :func:`_worker`'s — ``{"ok": True, "stats": ...}`` or
    ``{"ok": False, "kind": ..., "message": ..., "retryable": ...}`` —
    with the failure kinds the in-process worker cannot produce:

    * ``"crash"`` when the worker process died, or — ``heartbeat_s``
      arms the watchdog — when its heartbeat file went stale past
      ``heartbeat_s`` (the payload then carries ``"watchdog": True``),
      long before the wall-clock budget would have noticed;
    * ``"timeout"`` once ``timeout_s`` (default: the job's own
      ``timeout_s``) of wall clock elapses;
    * ``"cancelled"`` as soon as ``cancel`` is observed set (checked
      every ``poll_s``) with the worker still busy, which is then
      killed.

    ``chaos_action`` is a pre-drawn
    :meth:`~repro.chaos.ChaosInjector.worker_action` decision forwarded
    to the worker.

    The worker comes from ``crew`` and goes back to it when it answered;
    a crashed, hung, overdue or cancelled one is killed before this
    returns.  Without a ``crew`` the call is a crew of one that lives
    for the call: a worker is forked for it and killed after it.
    """
    if cancel is not None and cancel.is_set():
        return {"ok": False, "kind": "cancelled",
                "message": "cancelled before start", "retryable": False}
    with Crew() if crew is None else nullcontext(crew) as crew:
        flight = _Flight(crew, job, timeout_s=timeout_s,
                         heartbeat_s=heartbeat_s, chaos_action=chaos_action)
        try:
            while True:
                wait(flight.waitables, timeout=poll_s)
                if (cancel is not None and cancel.is_set()
                        and not flight.done()):
                    return {"ok": False, "kind": "cancelled",
                            "message": "cancelled mid-flight",
                            "retryable": False}
                payload = flight.poll()
                if payload is not None:
                    return payload
        finally:
            flight.close()


# ---------------------------------------------------------------------------
# The policy: what an attempt's payload means


@dataclass(frozen=True, slots=True)
class Retry:
    """:func:`settle`'s non-terminal answer: start the next attempt
    after ``delay_s``; ``reason`` is the :class:`JobRetried` text."""

    delay_s: float
    reason: str


def failure_outcome(kind: str, message: str,
                    attempts: int) -> dict[str, Any]:
    """The outcome fields of a terminal failure after ``attempts``
    started attempts (0: the job never ran)."""
    outcome: dict[str, Any] = {"kind": "failure", "attempts": attempts}
    if kind == "quarantined":
        outcome["quarantined"] = True
    outcome["failure"] = {"kind": kind, "message": message}
    return outcome


def settle(job: Job, payload: Mapping[str, Any], attempt: int,
           options: SweepOptions,
           quarantine: QuarantineLedger) -> Retry | dict[str, Any]:
    """Decide what attempt number ``attempt``'s payload means.

    The one retry policy, shared by :func:`run_sweep` and
    :class:`repro.serve.SweepService`.  Returns :class:`Retry`, or the
    terminal outcome fields :func:`terminal_record` completes:

    * ``ok`` — a ``result``; the fingerprint's crash strikes clear;
    * ``crash`` — one strike on ``quarantine``; the strike that
      exhausts its budget parks the fingerprint with a terminal
      ``quarantined`` failure instead of spending what is left of the
      retry budget (a ledger with limit 0 never parks);
    * otherwise the attempt is retried when it is retryable and
      ``attempt <= options.retries`` — after
      :func:`~repro.chaos.backoff_delay`'s capped, fingerprint-jittered
      delay — and is a terminal failure of the payload's kind when not.

    An attempt is retryable when its payload says so, and a ``timeout``
    also when ``options.retry_timeouts`` is set.  A payload that does
    not say (every payload this module produces does) is **not**
    retryable: unknown failures fail once instead of spending a budget
    nobody granted them.  Apart from the ledger update the function is
    pure — no clock, no I/O, equal inputs give equal decisions.
    """
    if payload.get("ok"):
        quarantine.clear(job.fingerprint)
        return {"kind": "result", "attempts": attempt,
                "stats": payload["stats"]}
    kind = payload.get("kind", "error")
    message = payload.get("message", "unknown failure")
    if kind == "crash":
        parked = quarantine.record_crash(job.fingerprint, message)
        if parked is not None:
            return failure_outcome("quarantined", parked, attempt)
    retryable = payload.get("retryable", False) or (
        kind == "timeout" and options.retry_timeouts
    )
    if retryable and attempt <= options.retries:
        return Retry(
            backoff_delay(attempt, options.backoff_s, options.backoff_max_s,
                          key=job.fingerprint),
            f"{kind}: {message}",
        )
    return failure_outcome(kind, message, attempt)


def terminal_record(job: Job, outcome: Mapping[str, Any],
                    **extra: Any) -> dict[str, Any]:
    """The terminal record of ``job``: identity, then ``extra`` (the
    service's ``run``/``tenant``, the ``chaos`` mark), then the outcome
    fields from :func:`settle` or :func:`failure_outcome`."""
    return {
        "result_schema": RESULT_SCHEMA,
        "sweep": job.sweep,
        **extra,
        "kind": outcome["kind"],  # here, not last: stored key order
        "label": job.label,
        "fingerprint": job.fingerprint,
        "job": job.to_dict(),
        **outcome,
    }


def terminal_event(record: Mapping[str, Any]) -> JobFinished | JobFailed:
    """The one terminal job event a (non-cache-hit) record implies."""
    if record["kind"] == "result":
        stats = record["stats"]
        return JobFinished(
            record["label"],
            elapsed_s=stats.get("elapsed_s", 0.0),
            meets=bool(stats.get("meets")),
            processor_count=int(stats.get("processor_count", 0)),
        )
    failure = record["failure"]
    return JobFailed(record["label"], kind=failure["kind"],
                     message=failure["message"],
                     attempts=record["attempts"])


# ---------------------------------------------------------------------------
# The sweep


@dataclass(slots=True)
class _Attempt:
    job: Job
    index: int
    attempt: int = 1
    not_before: float = 0.0
    flight: _Flight | None = None


def run_sweep(
    jobs: Sequence[Job] | Iterable[Job],
    *,
    cache: ResultCache | None = None,
    store: ResultStore | None = None,
    options: SweepOptions = SweepOptions(),
    on_event: Callable[[SweepEvent], None] | None = None,
    resume: Mapping[str, dict[str, Any]] | None = None,
    chaos: ChaosInjector | None = None,
) -> SweepResult:
    """Run every job to exactly one terminal record.

    ``cache`` short-circuits jobs whose fingerprint already has a stored
    result; ``store`` receives every terminal record as one JSONL line;
    ``on_event`` observes progress (see :mod:`repro.explore.events`);
    ``resume`` is a fingerprint → prior-result mapping (typically
    :func:`~repro.explore.store.completed_records` over an earlier
    store) whose entries short-circuit exactly like cache hits — the
    sweep then completes only the un-cached remainder.  ``chaos``
    injects worker faults into the pooled path (see the module
    docstring) and marks every record it executes ``"chaos": True``;
    ``None`` — the default — is observation-free.
    """
    jobs = list(jobs)
    emit = on_event or (lambda event: None)
    sweep_name = jobs[0].sweep if jobs else "empty"
    workers = options.resolved_workers()
    started = time.monotonic()
    emit(SweepStarted(sweep_name, total=len(jobs),
                      workers=workers or 1))

    terminal: dict[int, dict[str, Any]] = {}

    def finish(index: int, record: dict[str, Any]) -> None:
        if index in terminal:  # pragma: no cover - guarded by design
            raise RuntimeError(
                f"job {index} produced a second terminal record"
            )
        terminal[index] = record
        if store is not None:
            store.append(record)

    pending: list[_Attempt] = []
    for index, job in enumerate(jobs):
        cached = cache.get(job.fingerprint) if cache is not None else None
        if cached is None and resume is not None:
            cached = resume.get(job.fingerprint)
        if cached is not None:
            emit(JobCacheHit(job.label, fingerprint=job.fingerprint))
            finish(index, {**cached, "cache_hit": True})
        else:
            emit(JobScheduled(job.label, fingerprint=job.fingerprint))
            pending.append(_Attempt(job=job, index=index))

    quarantine = QuarantineLedger(options.quarantine_after)
    # Results produced under injected faults are marked so an analysis
    # never mistakes a chaos run for a clean one.
    mark = {"chaos": True} if chaos is not None else {}

    def handle_payload(task: _Attempt, payload: dict[str, Any]) -> None:
        outcome = settle(task.job, payload, task.attempt, options,
                         quarantine)
        if isinstance(outcome, Retry):
            emit(JobRetried(task.job.label, attempt=task.attempt,
                            reason=outcome.reason,
                            delay_s=outcome.delay_s))
            task.attempt += 1
            task.not_before = time.monotonic() + outcome.delay_s
            pending.append(task)
            return
        record = terminal_record(task.job, outcome, **mark)
        if cache is not None and record["kind"] == "result":
            cache.put(task.job.fingerprint, record)
        finish(task.index, record)
        emit(terminal_event(record))

    if workers == 0:
        _run_serial(pending, handle_payload, emit)
    else:
        with Crew() as crew:
            _run_pooled(pending, workers, options, handle_payload, emit,
                        crew, chaos=chaos)

    records = [terminal[i] for i in sorted(terminal)]
    elapsed = time.monotonic() - started
    result = SweepResult(sweep=sweep_name, records=records,
                         elapsed_s=elapsed)
    emit(SweepFinished(sweep_name, total=len(jobs),
                       succeeded=result.succeeded, failed=result.failed,
                       cache_hits=result.cache_hits, elapsed_s=elapsed))
    return result


def _run_serial(pending: list[_Attempt], handle_payload, emit) -> None:
    """In-process execution: no isolation, timeouts not enforced."""
    while pending:
        task = pending.pop(0)
        now = time.monotonic()
        if task.not_before > now:
            time.sleep(task.not_before - now)
        emit(JobStarted(task.job.label, attempt=task.attempt))
        handle_payload(task, _worker(task.job.to_dict()))


def _run_pooled(pending: list[_Attempt], workers: int,
                options: SweepOptions, handle_payload, emit, crew: Crew,
                chaos: ChaosInjector | None = None) -> None:
    """At most ``workers`` flights in the air on ``crew``'s workers,
    each polled every ``tick_s`` (sooner when one answers or dies)."""
    in_flight: list[_Attempt] = []
    try:
        while pending or in_flight:
            now = time.monotonic()
            # Top up: one pass over ``pending``, in order, launching
            # ready tasks while worker slots are free.
            waiting: list[_Attempt] = []
            for task in pending:
                if len(in_flight) == workers or task.not_before > now:
                    waiting.append(task)
                    continue
                emit(JobStarted(task.job.label, attempt=task.attempt))
                action = None
                if chaos is not None:
                    action = chaos.worker_action(
                        task.job.fingerprint, task.attempt,
                        task.job.label,
                    )
                task.flight = _Flight(crew, task.job,
                                      heartbeat_s=options.heartbeat_s,
                                      chaos_action=action)
                in_flight.append(task)
            pending[:] = waiting  # in place: handle_payload appends retries
            if not in_flight:
                # Everything pending is backing off; sleep until the
                # earliest becomes ready.
                wake = min(t.not_before for t in pending)
                time.sleep(max(options.tick_s, wake - time.monotonic()))
                continue

            wait([w for t in in_flight for w in t.flight.waitables],
                 timeout=options.tick_s)
            for task in list(in_flight):
                payload = task.flight.poll()
                if payload is not None:
                    # A dead, silent or overdue worker costs only its
                    # own slot: close() kills it and queued jobs keep
                    # flowing.
                    in_flight.remove(task)
                    task.flight.close()
                    handle_payload(task, payload)
    finally:
        for task in in_flight:
            task.flight.close()
