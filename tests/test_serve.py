"""The exploration service's contract, asserted end to end.

The invariants ISSUE/ROADMAP promise for ``repro serve``:

* exactly one terminal event (``RunFinished``) per run, and exactly one
  terminal record per job — enforced by the lifecycle machine and the
  run handle, not by scheduler convention;
* illegal state transitions raise :class:`LifecycleError`;
* cancellation from any non-terminal state reaches ``TERMINAL``;
* overlapping submissions from concurrent tenants share cache entries —
  the later run reports cache hits and executes strictly fewer jobs;
* killing the service and restarting it over the same data dir, then
  resubmitting a superset spec, completes only the un-cached remainder;
* the sharded cache reads flat pre-sharding stores transparently, with
  unchanged fingerprints.

Service tests drive the real :class:`SweepService` (real worker
processes, real cache on disk) inside ``asyncio.run``; the HTTP tests
run the real ``run_service`` loop in a thread and talk to it with the
blocking :class:`ServiceClient` — the same path ``repro submit`` uses.
"""

import asyncio
import dataclasses
import http.client
import json
import queue
import re
import socket
import threading
import time
from dataclasses import fields

import pytest

from repro.cli import main
from repro.explore import (
    EVENT_TYPES,
    SHARD_WIDTH,
    Job,
    ResultCache,
    ResultStore,
    completed_records,
    run_job_isolated,
)
from repro.explore.store import read_jsonl
from repro.serve import (
    LifecycleError,
    RunState,
    RunStateMachine,
    ServeError,
    ServiceClient,
    ServiceConfig,
    ServiceStorage,
    SweepPlan,
    SweepService,
    decode_event,
    encode_event,
    run_service,
)

GOOD = {"width": 16, "height": 12}

SPEC = {
    "name": "service-sweep",
    "app": "image_pipeline",
    "axes": {"rate_hz": [50.0, 100.0]},
    "fixed": GOOD,
    "frames": 2,
    "timeout_s": 120,
}

SUPERSET_SPEC = {**SPEC, "axes": {"rate_hz": [50.0, 100.0, 200.0]}}


#: ``RunHandle.info()``: what ``submit`` / ``jobs`` / ``cancel --json``
#: print per run, in this order.
RUN_INFO_KEYS = ["protocol", "run", "name", "tenant", "priority", "created",
                 "total", "spec_digest", "state", "status", "done",
                 "succeeded", "failed", "cancelled", "cache_hits",
                 "quarantined"]


def run(coro):
    return asyncio.run(coro)


def tree(root):
    """Every path under ``root``, or ``None`` when it does not exist."""
    if not root.exists():
        return None
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


def inject_jobs(modes, *, timeout_s=300.0):
    """One job per injection mode (None = healthy), distinct params."""
    return tuple(
        Job.from_dict({
            "sweep": "svc",
            "app": "image_pipeline",
            "params": {**GOOD, "rate_hz": 50.0 + index},
            "frames": 2,
            "timeout_s": timeout_s,
            "inject": mode or {},
        })
        for index, mode in enumerate(modes)
    )


def plan_of(jobs):
    return SweepPlan(
        run_id="pending", name="svc", tenant="", priority=0, created=0.0,
        spec_json="{}", jobs=tuple(jobs),
        fingerprints=tuple(job.fingerprint for job in jobs),
    )


class _PlanStub:
    """Stands in for SweepPlan in the scheduler: hands out pre-built
    plans (e.g. with injected hangs, which a declarative spec cannot
    express) while keeping the public ``submit`` path intact."""

    def __init__(self, *plans):
        self.plans = list(plans)

    def compile(self, spec_data, *, run_id, tenant="", priority=0,
                created=0.0):
        plan = self.plans.pop(0)
        return dataclasses.replace(plan, run_id=run_id, tenant=tenant,
                                   priority=int(priority), created=created)


def service_at(tmp_path, **knobs):
    knobs.setdefault("workers", 2)
    knobs.setdefault("tick_s", 0.02)
    knobs.setdefault("backoff_s", 0.01)
    storage = ServiceStorage(tmp_path / "data")
    return SweepService(storage, ServiceConfig(**knobs))


async def wait_for_event(handle, name, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if any(e["event"] == name for e in handle.events):
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"no {name} event within {timeout_s}s")


def events_of(handle, name):
    return [e for e in handle.events if e["event"] == name]


# ---------------------------------------------------------------------------
# Lifecycle machine


class TestRunStateMachine:
    def test_happy_path(self):
        machine = RunStateMachine()
        assert machine.state is RunState.INIT
        machine.advance(RunState.QUEUED)
        machine.advance(RunState.EXECUTING)
        machine.finish("succeeded")
        assert machine.terminal
        assert machine.status == "succeeded"

    @pytest.mark.parametrize("path,target", [
        ((), RunState.EXECUTING),          # INIT cannot skip QUEUED
        ((), RunState.INIT),               # no self-loops
        ((RunState.QUEUED,), RunState.QUEUED),
        ((RunState.QUEUED, RunState.EXECUTING), RunState.QUEUED),
        ((RunState.QUEUED, RunState.DRAINING), RunState.EXECUTING),
    ])
    def test_illegal_transitions_raise(self, path, target):
        machine = RunStateMachine()
        for state in path:
            machine.advance(state)
        with pytest.raises(LifecycleError):
            machine.advance(target)

    def test_terminal_only_via_finish(self):
        machine = RunStateMachine()
        machine.advance(RunState.QUEUED)
        machine.advance(RunState.EXECUTING)
        with pytest.raises(LifecycleError):
            machine.advance(RunState.TERMINAL)
        machine.finish("failed")
        assert machine.status == "failed"

    def test_finish_is_exactly_once(self):
        machine = RunStateMachine()
        machine.advance(RunState.QUEUED)
        machine.advance(RunState.EXECUTING)
        machine.finish("succeeded")
        with pytest.raises(LifecycleError):
            machine.finish("failed")
        assert machine.status == "succeeded"  # first terminal status wins

    def test_finish_requires_a_known_status(self):
        machine = RunStateMachine()
        machine.advance(RunState.QUEUED)
        machine.advance(RunState.EXECUTING)
        with pytest.raises(LifecycleError):
            machine.finish("exploded")

    @pytest.mark.parametrize("path", [(), (RunState.QUEUED,)])
    def test_finish_before_executing_raises(self, path):
        machine = RunStateMachine()
        for state in path:
            machine.advance(state)
        with pytest.raises(LifecycleError):
            machine.finish("succeeded")

    @pytest.mark.parametrize("path", [
        (),                                       # cancelled at admission
        (RunState.QUEUED,),                       # cancelled while queued
        (RunState.QUEUED, RunState.EXECUTING),    # cancelled in flight
    ])
    def test_cancellation_reaches_terminal_from_any_state(self, path):
        machine = RunStateMachine()
        for state in path:
            machine.advance(state)
        machine.advance(RunState.DRAINING)
        machine.finish("cancelled")
        assert machine.terminal
        assert machine.status == "cancelled"


# ---------------------------------------------------------------------------
# Event round-trip (satellite: as_dict/from_dict symmetry, all types)

_DUMMIES = {"str": "x", "int": 3, "float": 1.5, "bool": True}


def _instance_of(event_cls):
    kwargs = {}
    for f in fields(event_cls):
        kwargs[f.name] = _DUMMIES[f.type]
    return event_cls(**kwargs)


class TestEventRoundTrip:
    @pytest.mark.parametrize("name", sorted(EVENT_TYPES))
    def test_every_registered_event_round_trips(self, name):
        event = _instance_of(EVENT_TYPES[name])
        payload = event.as_dict()
        assert payload["event"] == name
        decoded = type(event).from_dict(payload)
        assert decoded == event
        # And the wire JSON round-trips identically.
        again = decode_event(json.loads(json.dumps(payload)))
        assert again == event

    def test_run_events_share_the_registry(self):
        # repro.serve's run-level events register into the same table
        # the job events use — one homogeneous NDJSON stream.
        for name in ("RunAccepted", "RunStateChanged", "RunFinished"):
            assert name in EVENT_TYPES

    def test_unknown_event_name_raises(self):
        from repro.explore import SweepEvent

        with pytest.raises(ValueError, match="unknown sweep event"):
            SweepEvent.from_dict({"event": "NeverHeardOfIt"})

    def test_missing_field_raises(self):
        from repro.explore import SweepEvent

        with pytest.raises(ValueError, match="missing field"):
            SweepEvent.from_dict({"event": "JobStarted", "label": "x"})

    def test_envelope_keys_are_ignored_by_decoding(self):
        event = _instance_of(EVENT_TYPES["JobFinished"])
        envelope = encode_event(event, seq=7, run_id="abc123")
        assert envelope["seq"] == 7 and envelope["run"] == "abc123"
        assert decode_event(envelope) == event


# ---------------------------------------------------------------------------
# The immutable plan


class TestSweepPlan:
    def test_compile_freezes_jobs_and_fingerprints(self):
        plan = SweepPlan.compile(SPEC, run_id="r1", tenant="t",
                                 priority=5, created=123.0)
        assert plan.total == 2
        assert plan.fingerprints == tuple(j.fingerprint for j in plan.jobs)
        assert len(set(plan.fingerprints)) == 2
        info = plan.as_dict()
        assert info["run"] == "r1" and info["tenant"] == "t"
        assert info["total"] == 2 and info["priority"] == 5

    def test_spec_digest_is_key_order_independent(self):
        a = SweepPlan.compile(SPEC, run_id="a")
        shuffled = dict(reversed(list(SPEC.items())))
        b = SweepPlan.compile(shuffled, run_id="b")
        assert a.spec_digest == b.spec_digest

    def test_malformed_spec_fails_at_admission(self):
        with pytest.raises(Exception, match="app"):
            SweepPlan.compile({"axes": {"rate_hz": [50.0]}}, run_id="r")


# ---------------------------------------------------------------------------
# Sharded cache (satellite: backward-compatible layout)


class TestShardedCache:
    def test_put_lands_in_its_shard(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = "ab" + "0" * 62
        cache.put(fp, {"kind": "result"})
        assert (tmp_path / fp[:SHARD_WIDTH] / f"{fp}.json").exists()
        assert not (tmp_path / f"{fp}.json").exists()
        assert cache.get(fp) == {"kind": "result"}

    def test_flat_legacy_entries_read_transparently(self, tmp_path):
        fp = "cd" + "1" * 62
        # A pre-sharding store: entry file directly under the root.
        (tmp_path / f"{fp}.json").write_text(json.dumps({
            "schema": 1, "fingerprint": fp,
            "record": {"kind": "result", "stats": {"ok": 1}},
        }), encoding="utf-8")
        cache = ResultCache(tmp_path)
        assert cache.get(fp) == {"kind": "result", "stats": {"ok": 1}}
        assert fp in cache
        assert list(cache.fingerprints()) == [fp]

    def test_sharded_entry_shadows_flat_twin(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = "ef" + "2" * 62
        (tmp_path / f"{fp}.json").write_text(json.dumps({
            "schema": 1, "fingerprint": fp, "record": {"v": "old"},
        }), encoding="utf-8")
        cache.put(fp, {"v": "new"})
        assert cache.get(fp) == {"v": "new"}
        assert len(cache) == 1  # one fingerprint, not two files

    def test_migrate_flat_entries(self, tmp_path):
        fp = "0a" + "3" * 62
        (tmp_path / f"{fp}.json").write_text(json.dumps({
            "schema": 1, "fingerprint": fp, "record": {"kind": "result"},
        }), encoding="utf-8")
        cache = ResultCache(tmp_path)
        assert cache.migrate_flat_entries() == 1
        assert not (tmp_path / f"{fp}.json").exists()
        assert (tmp_path / fp[:SHARD_WIDTH] / f"{fp}.json").exists()
        assert cache.get(fp) == {"kind": "result"}
        assert cache.migrate_flat_entries() == 0  # idempotent


# ---------------------------------------------------------------------------
# Store compaction (satellite)


class TestStoreCompaction:
    def _record(self, fp, kind="result", tag=0):
        return {"kind": kind, "fingerprint": fp, "tag": tag,
                "failure": {"kind": "error"} if kind == "failure" else None}

    def test_compact_keeps_newest_record_per_fingerprint(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(self._record("f1", tag=1))
        store.append(self._record("f2", tag=1))
        store.append({"kind": "note"})  # fingerprint-less: kept verbatim
        store.append(self._record("f1", tag=2))
        stats = store.compact()
        assert stats == {"kept": 3, "dropped": 1}
        records = store.load()
        by_fp = {r.get("fingerprint"): r for r in records
                 if r.get("fingerprint")}
        assert by_fp["f1"]["tag"] == 2  # the newest survived
        assert by_fp["f2"]["tag"] == 1
        assert any(r.get("kind") == "note" for r in records)
        # Idempotent once compacted.
        assert store.compact() == {"kept": 3, "dropped": 0}

    def test_compact_rotates_the_precompaction_file(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(self._record("f1", tag=1))
        store.append(self._record("f1", tag=2))
        rotated = tmp_path / "archive" / "s.pre.jsonl"
        stats = store.compact(rotate_to=rotated)
        assert stats == {"kept": 1, "dropped": 1}
        assert len(store.load()) == 1
        assert len(ResultStore(rotated).load()) == 2  # full audit trail

    def test_completed_records_is_the_resume_index(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(self._record("ok1"))
        store.append(self._record("bad", kind="failure"))
        store.append(self._record("ok1", tag=9))
        index = completed_records(store)
        assert set(index) == {"ok1"}  # failures retry on resume
        assert index["ok1"]["tag"] == 9


class TestStorageAfterKill:
    def test_first_line_after_a_torn_tail_is_read_back(self, tmp_path):
        # A service killed mid-write leaves a line without its newline;
        # whatever the restarted service appends next must not be glued
        # onto it (and dropped with it by every reader).
        storage = ServiceStorage(tmp_path / "data")
        storage.register({"run": "r1", "state": "queued"})
        storage.append_event("r1", {"seq": 0, "event": "RunAccepted"})
        for path in (storage.runs_path, storage.event_log_path("r1")):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write('{"run": "r2", "sta')
        restarted = ServiceStorage(tmp_path / "data")
        restarted.register({"run": "r3", "state": "queued"})
        restarted.append_event("r1", {"seq": 1, "event": "JobStarted"})
        assert [e["run"] for e in restarted.registry()] == ["r1", "r3"]
        assert [e["seq"] for e in read_jsonl(
            restarted.event_log_path("r1"))] == [0, 1]


# ---------------------------------------------------------------------------
# The isolated single-job primitive (satellite: cancellation/timeout)


class TestRunJobIsolated:
    def test_success_payload_shape(self):
        (job,) = inject_jobs([None])
        payload = run_job_isolated(job, poll_s=0.02)
        assert payload["ok"] is True
        assert payload["stats"]["processor_count"] > 0

    def test_cancel_mid_flight_and_pool_survives(self):
        (hung,) = inject_jobs([{"mode": "hang", "sleep_s": 60.0}])
        cancel = threading.Event()
        timer = threading.Timer(0.3, cancel.set)
        timer.start()
        started = time.monotonic()
        try:
            payload = run_job_isolated(hung, cancel=cancel, poll_s=0.02)
        finally:
            timer.cancel()
        assert payload == {"ok": False, "kind": "cancelled",
                           "message": "cancelled mid-flight",
                           "retryable": False}
        assert time.monotonic() - started < 30.0  # never waited the 60s
        # The hung worker was torn down without poisoning anything
        # shared: the next isolated job runs normally.
        (job,) = inject_jobs([None])
        assert run_job_isolated(job, poll_s=0.02)["ok"] is True

    def test_pre_set_cancel_wins_immediately(self):
        (hung,) = inject_jobs([{"mode": "hang", "sleep_s": 60.0}])
        cancel = threading.Event()
        cancel.set()
        payload = run_job_isolated(hung, cancel=cancel, poll_s=0.02)
        assert payload["kind"] == "cancelled"

    def test_timeout_is_terminal_not_retryable(self):
        (hung,) = inject_jobs([{"mode": "hang", "sleep_s": 60.0}],
                              timeout_s=0.5)
        started = time.monotonic()
        payload = run_job_isolated(hung, poll_s=0.02)
        assert payload["kind"] == "timeout"
        assert payload["retryable"] is False
        assert time.monotonic() - started < 30.0

    def test_crash_is_attributed_and_retryable(self):
        (crasher,) = inject_jobs([{"mode": "crash"}])
        payload = run_job_isolated(crasher, poll_s=0.02)
        assert payload["kind"] == "crash"
        assert payload["retryable"] is True


# ---------------------------------------------------------------------------
# The resident scheduler


class TestSweepService:
    def test_run_succeeds_with_exactly_one_terminal_event(self, tmp_path):
        async def scenario():
            service = service_at(tmp_path)
            await service.start()
            handle = await service.submit(SPEC, tenant="alice")
            events = [e async for e in
                      service.watch(handle.plan.run_id)]
            await service.stop()
            return service, handle, events

        service, handle, events = run(scenario())
        assert handle.machine.terminal
        assert handle.machine.status == "succeeded"
        assert [e["event"] for e in events].count("RunFinished") == 1
        assert events[-1]["event"] == "RunFinished"
        assert events[-1]["status"] == "succeeded"
        assert events[-1]["succeeded"] == 2
        # seq is the stream cursor: strictly increasing from 1.
        assert [e["seq"] for e in handle.events] == \
            list(range(1, len(handle.events) + 1))
        # The state trajectory is the lifecycle machine's happy path.
        states = [e["state"] for e in events
                  if e["event"] == "RunStateChanged"]
        assert states == ["queued", "executing"]
        # Durable mirrors: the event log and registry agree.
        persisted = read_jsonl(
            service.storage.event_log_path(handle.plan.run_id))
        assert list(persisted) == handle.events
        (entry,) = [r for r in service.storage.registry()
                    if r["run"] == handle.plan.run_id]
        assert entry["status"] == "succeeded"

    def test_second_tenant_rides_the_first_ones_cache(self, tmp_path):
        async def scenario():
            service = service_at(tmp_path)
            await service.start()
            first = await service.submit(SPEC, tenant="alice")
            async for _ in service.watch(first.plan.run_id):
                pass
            second = await service.submit(SPEC, tenant="bob")
            async for _ in service.watch(second.plan.run_id):
                pass
            await service.stop()
            return first, second

        first, second = run(scenario())
        assert first.cache_hits == 0 and first.succeeded == 2
        assert second.machine.status == "succeeded"
        assert second.cache_hits == 2  # every job from the shared cache
        # Strictly fewer executions: bob's run started zero workers.
        assert len(events_of(first, "JobStarted")) == 2
        assert len(events_of(second, "JobStarted")) == 0
        assert len(events_of(second, "JobCacheHit")) == 2

    def test_concurrent_duplicates_execute_once(self, tmp_path,
                                                monkeypatch):
        # Two tenants submit the same (slow) point at the same moment:
        # the in-flight table makes the duplicate ride the primary's
        # execution instead of repeating it.
        slow = inject_jobs([{"mode": "hang", "sleep_s": 0.6}])
        monkeypatch.setattr("repro.serve.scheduler.SweepPlan",
                            _PlanStub(plan_of(slow), plan_of(slow)))

        async def scenario():
            service = service_at(tmp_path)
            await service.start()
            first = await service.submit({}, tenant="alice")
            second = await service.submit({}, tenant="bob")
            async for _ in service.watch(first.plan.run_id):
                pass
            async for _ in service.watch(second.plan.run_id):
                pass
            await service.stop()
            return first, second

        first, second = run(scenario())
        assert first.plan.fingerprints == second.plan.fingerprints
        assert first.machine.status == "succeeded"
        assert second.machine.status == "succeeded"
        started = (len(events_of(first, "JobStarted"))
                   + len(events_of(second, "JobStarted")))
        assert started == 1  # one execution across both runs
        assert first.cache_hits + second.cache_hits == 1

    def test_cancel_in_flight_run_reaches_terminal(self, tmp_path,
                                                   monkeypatch):
        hung = inject_jobs([{"mode": "hang", "sleep_s": 60.0}] * 2)
        monkeypatch.setattr("repro.serve.scheduler.SweepPlan",
                            _PlanStub(plan_of(hung)))

        async def scenario():
            service = service_at(tmp_path)
            await service.start()
            handle = await service.submit({})
            await wait_for_event(handle, "JobStarted")
            service.cancel(handle.plan.run_id)
            events = [e async for e in service.watch(handle.plan.run_id)]
            await service.stop()
            return handle, events

        started = time.monotonic()
        handle, events = run(scenario())
        assert time.monotonic() - started < 30.0  # no 60s waits
        assert handle.machine.status == "cancelled"
        assert [e["event"] for e in events].count("RunFinished") == 1
        assert events[-1]["status"] == "cancelled"
        assert handle.cancelled == 2 and handle.done == 2
        kinds = [r["failure"]["kind"] for r in handle.records.values()]
        assert kinds == ["cancelled"] * 2
        # Cancelling a terminal run is a no-op, not an error.
        assert len(events_of(handle, "RunFinished")) == 1

    def test_cancel_queued_run_before_any_worker(self, tmp_path):
        async def scenario():
            service = service_at(tmp_path)
            # No start(): nothing will ever claim the queued jobs.
            handle = await service.submit(SPEC)
            service.cancel(handle.plan.run_id)
            return handle

        handle = run(scenario())
        assert handle.machine.terminal
        assert handle.machine.status == "cancelled"
        messages = [r["failure"]["message"]
                    for r in handle.records.values()]
        assert messages == ["cancelled while queued"] * 2

    def test_restart_completes_only_the_uncached_remainder(self, tmp_path):
        async def first_life():
            service = service_at(tmp_path)
            await service.start()
            handle = await service.submit(SPEC)
            async for _ in service.watch(handle.plan.run_id):
                pass
            await service.stop()

        async def second_life():
            # A fresh service over the same data dir — the restart.
            service = service_at(tmp_path)
            await service.start()
            handle = await service.submit(SUPERSET_SPEC)
            async for _ in service.watch(handle.plan.run_id):
                pass
            await service.stop()
            return handle

        run(first_life())
        handle = run(second_life())
        assert handle.machine.status == "succeeded"
        assert handle.plan.total == 3
        assert handle.cache_hits == 2   # the first life's two points
        assert len(events_of(handle, "JobStarted")) == 1  # the new one

    def test_stop_drains_queued_work_then_refuses(self, tmp_path):
        async def scenario():
            service = service_at(tmp_path)
            await service.start()
            handle = await service.submit(SPEC)
            await service.stop(drain=True)
            refused = None
            try:
                await service.submit(SPEC)
            except ServeError as exc:
                refused = str(exc)
            return service, handle, refused

        service, handle, refused = run(scenario())
        assert handle.machine.terminal
        assert handle.machine.status == "succeeded"
        assert handle.succeeded == 2
        assert not service.accepting
        assert "draining" in refused

    def test_stop_without_drain_cancels_live_runs(self, tmp_path,
                                                  monkeypatch):
        hung = inject_jobs([{"mode": "hang", "sleep_s": 60.0}])
        monkeypatch.setattr("repro.serve.scheduler.SweepPlan",
                            _PlanStub(plan_of(hung)))

        async def scenario():
            service = service_at(tmp_path)
            await service.start()
            handle = await service.submit({})
            await wait_for_event(handle, "JobStarted")
            await service.stop(drain=False)
            return handle

        started = time.monotonic()
        handle = run(scenario())
        assert time.monotonic() - started < 30.0
        assert handle.machine.status == "cancelled"
        assert len(events_of(handle, "RunFinished")) == 1

    def test_failures_retry_then_finish_the_run_as_failed(self, tmp_path,
                                                          monkeypatch):
        flaky = inject_jobs([{"mode": "error", "message": "boom"}, None])
        monkeypatch.setattr("repro.serve.scheduler.SweepPlan",
                            _PlanStub(plan_of(flaky)))

        async def scenario():
            service = service_at(tmp_path, retries=1)
            await service.start()
            handle = await service.submit({})
            events = [e async for e in service.watch(handle.plan.run_id)]
            await service.stop()
            return handle, events

        handle, events = run(scenario())
        assert handle.machine.status == "failed"
        assert events[-1]["status"] == "failed"
        assert handle.succeeded == 1 and handle.failed == 1
        (failed,) = events_of(handle, "JobFailed")
        assert failed["kind"] == "error"
        assert failed["attempts"] == 2  # initial try + 1 retry
        assert len(events_of(handle, "JobRetried")) == 1

    def test_priority_orders_the_shared_queue(self, tmp_path):
        async def scenario():
            service = service_at(tmp_path, workers=1)
            # Submit before starting workers so both runs are queued.
            low = await service.submit(SPEC, tenant="low", priority=0)
            high = await service.submit(SPEC, tenant="high", priority=9)
            await service.start()
            async for _ in service.watch(low.plan.run_id):
                pass
            async for _ in service.watch(high.plan.run_id):
                pass
            await service.stop()
            return low, high

        low, high = run(scenario())
        assert low.machine.status == "succeeded"
        assert high.machine.status == "succeeded"
        # The single worker drains the whole high-priority run first —
        # by the time the low-priority (identical) jobs get their turn,
        # every one of them rides the cache the high run just filled.
        assert len(events_of(high, "JobStarted")) == 2
        assert high.cache_hits == 0
        assert len(events_of(low, "JobStarted")) == 0
        assert low.cache_hits == 2

    def test_watch_since_skips_replayed_history(self, tmp_path):
        async def scenario():
            service = service_at(tmp_path)
            await service.start()
            handle = await service.submit(SPEC)
            full = [e async for e in service.watch(handle.plan.run_id)]
            tail = [e async for e in
                    service.watch(handle.plan.run_id, since=full[2]["seq"])]
            await service.stop()
            return full, tail

        full, tail = run(scenario())
        assert tail == full[3:]
        assert tail[-1]["event"] == "RunFinished"

    def test_unknown_run_raises(self, tmp_path):
        async def scenario():
            service = service_at(tmp_path)
            with pytest.raises(ServeError, match="unknown run"):
                service.run("nope")
            with pytest.raises(ServeError, match="unknown run"):
                service.cancel("nope")

        run(scenario())


# ---------------------------------------------------------------------------
# HTTP front end + blocking client + CLI (the full stack)


class _LiveService:
    """The real ``run_service`` loop on a background thread."""

    def __init__(self, data_dir, **knobs):
        dashboard = knobs.pop("dashboard", False)
        knobs.setdefault("workers", 2)
        knobs.setdefault("tick_s", 0.02)
        self._urls: queue.Queue[str] = queue.Queue()
        self.thread = threading.Thread(
            target=run_service,
            kwargs=dict(host="127.0.0.1", port=0, data_dir=str(data_dir),
                        config=ServiceConfig(**knobs),
                        announce=self._announce, dashboard=dashboard),
            daemon=True,
        )

    def _announce(self, message):
        match = re.search(r"http://[\d.]+:\d+", message)
        if match:
            self._urls.put(match.group(0))

    def __enter__(self):
        self.thread.start()
        self.url = self._urls.get(timeout=30)
        return self

    def __exit__(self, *exc):
        try:
            ServiceClient(self.url).shutdown()
        except ServeError:
            pass  # already shut down by the test body
        self.thread.join(timeout=30)


@pytest.fixture
def live(tmp_path):
    with _LiveService(tmp_path / "data") as service:
        yield service


class TestHttpEndToEnd:
    def test_submit_stream_resubmit_over_http(self, live):
        client = ServiceClient(live.url)
        health = client.health()
        assert health["ok"] is True and health["protocol"] == 1

        info = client.submit(SPEC, tenant="alice")
        events = list(client.events(info["run"]))
        assert events[-1]["event"] == "RunFinished"
        assert events[-1]["status"] == "succeeded"
        assert [e["event"] for e in events].count("RunFinished") == 1
        assert all(e["run"] == info["run"] for e in events)
        # Typed decoding works on the wire form.
        assert decode_event(events[-1]).status == "succeeded"

        # A resubmission is served from cache: strictly fewer jobs run.
        again = client.submit(SPEC, tenant="bob")
        replay = list(client.events(again["run"]))
        assert replay[-1]["event"] == "RunFinished"
        assert replay[-1]["cache_hits"] == 2
        assert not [e for e in replay if e["event"] == "JobStarted"]

        # since= resumes the stream mid-history.
        tail = list(client.events(info["run"], since=events[1]["seq"]))
        assert tail == events[2:]

        runs = client.runs()
        assert {r["run"] for r in runs} == {info["run"], again["run"]}
        final = client.run(info["run"])
        assert final["status"] == "succeeded" and final["done"] == 2

    def test_sse_stream_when_asked_for(self, live):
        client = ServiceClient(live.url)
        info = client.submit(SPEC, tenant="sse")
        list(client.events(info["run"]))  # run to terminal first
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=30)
        try:
            conn.request("GET", f"/v1/runs/{info['run']}/events",
                         headers={"Accept": "text/event-stream"})
            response = conn.getresponse()
            assert response.getheader("Content-Type") == \
                "text/event-stream"
            body = response.read().decode("utf-8")
        finally:
            conn.close()
        frames = [line[len("data: "):] for line in body.splitlines()
                  if line.startswith("data: ")]
        assert json.loads(frames[-1])["event"] == "RunFinished"

    def test_error_surfaces_as_serve_error(self, live):
        client = ServiceClient(live.url)
        with pytest.raises(ServeError, match="unknown run"):
            client.run("nope")
        with pytest.raises(ServeError, match="spec"):
            client._request("POST", "/v1/runs", {"not-spec": 1})
        # A spec the explore layer refuses is the client's error (400),
        # not the service's: a zero-frame sweep never reaches a worker.
        with pytest.raises(ServeError,
                           match="^'frames' must be at least 1, got 0$"):
            client.submit({**SPEC, "frames": 0})
        assert client.runs() == []
        with pytest.raises(ServeError, match="not allowed"):
            client._request("PUT", "/v1/runs")
        with pytest.raises(ServeError, match="no route"):
            client._request("GET", "/v2/everything")
        with pytest.raises(ServeError, match="unreachable"):
            ServiceClient("http://127.0.0.1:9", timeout_s=0.5).health()
        with pytest.raises(ServeError, match="http"):
            ServiceClient("ftp://example.com")

    @pytest.mark.parametrize("pad", [40_000, 70_000])
    def test_oversized_request_head_is_413(self, live, pad):
        # 70 KB is past asyncio's own 64 KiB stream limit, which used to
        # escape into the 500 handler; both sizes are the client's fault.
        client = ServiceClient(live.url)
        with socket.create_connection((client.host, client.port),
                                      timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Pad: "
                         + b"a" * pad + b"\r\n\r\n")
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert json.loads(body) == {"error": "request head too large"}
        assert client.health()["ok"] is True

    def test_cli_submit_watch_jobs_cancel(self, live, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC), encoding="utf-8")

        assert main(["submit", str(spec_path), "--url", live.url,
                     "--tenant", "cli", "--watch"]) == 0
        out = capsys.readouterr().out
        assert "accepted run" in out
        assert "succeeded" in out

        assert main(["jobs", "--url", live.url]) == 0
        table = capsys.readouterr().out
        assert "service-sweep" in table and "succeeded" in table

        assert main(["jobs", "--url", live.url, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["runs"]
        runs = out["runs"]
        assert list(runs[0]) == RUN_INFO_KEYS
        run_id = runs[0]["run"]

        assert main(["watch", run_id, "--url", live.url, "--json"]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.splitlines()]
        assert lines[-1]["event"] == "RunFinished"

        # Cancelling a terminal run is a no-op that still reports state.
        assert main(["cancel", run_id, "--url", live.url]) == 0
        assert "terminal" in capsys.readouterr().out

        assert main(["cancel", run_id, "--url", live.url, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["run"] and list(out["run"]) == RUN_INFO_KEYS
        assert out["run"]["run"] == run_id

        assert main(["cancel", "nope", "--url", live.url]) == 2
        assert "unknown run" in capsys.readouterr().err

        assert main(["watch", "nope", "--url", live.url]) == 2
        assert "unknown run" in capsys.readouterr().err

    def test_cli_submit_json_and_malformed_spec(self, live, tmp_path,
                                                capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
        assert main(["submit", str(spec_path), "--url", live.url,
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["run"]
        accepted = out["run"]
        assert list(accepted) == RUN_INFO_KEYS
        assert accepted["total"] == 2

        bad = tmp_path / "bad.json"
        bad.write_text("garbage{", encoding="utf-8")
        assert main(["submit", str(bad), "--url", live.url]) == 2
        assert "not JSON" in capsys.readouterr().err

        # Let the accepted run settle so teardown drains instantly.
        events = list(ServiceClient(live.url).events(accepted["run"]))
        assert events[-1]["event"] == "RunFinished"

    def test_shutdown_endpoint_stops_the_service(self, tmp_path):
        with _LiveService(tmp_path / "data") as live:
            client = ServiceClient(live.url)
            assert client.shutdown(drain=True) == {"ok": True,
                                                   "drain": True}
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and live.thread.is_alive():
                time.sleep(0.05)
            assert not live.thread.is_alive()


# ---------------------------------------------------------------------------
# SSE framing, healthz metadata, and the dashboard gating seam


def _sse_get(client, path, *, headers=None):
    """Raw SSE GET; returns (response headers dict, decoded body)."""
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request("GET", path,
                     headers={"Accept": "text/event-stream",
                              **(headers or {})})
        response = conn.getresponse()
        return dict(response.getheaders()), response.read().decode("utf-8")
    finally:
        conn.close()


def _sse_frames(body):
    """Parse ``id:``/``data:`` SSE frames; body must end frame-aligned."""
    frames = []
    for chunk in body.split("\n\n"):
        if not chunk.strip():
            continue
        frame = {}
        for line in chunk.splitlines():
            field, _, value = line.partition(": ")
            frame[field] = value
        frames.append(frame)
    return frames


class TestSseFraming:
    def test_frames_carry_ids_and_align_on_blank_lines(self, live):
        client = ServiceClient(live.url)
        info = client.submit(SPEC, tenant="sse-frames")
        plain = list(client.events(info["run"]))  # run to terminal

        headers, body = _sse_get(client, f"/v1/runs/{info['run']}/events")
        assert headers["Content-Type"] == "text/event-stream"
        # Every frame is exactly `id: <seq>\ndata: <json>\n\n` and the
        # stream ends on a frame boundary (no torn trailing frame).
        assert body.endswith("\n\n")
        frames = _sse_frames(body)
        assert len(frames) == len(plain)
        for frame, envelope in zip(frames, plain):
            assert set(frame) == {"id", "data"}
            assert int(frame["id"]) == envelope["seq"]
            assert json.loads(frame["data"]) == envelope
        assert json.loads(frames[-1]["data"])["event"] == "RunFinished"

    def test_since_and_last_event_id_resume(self, live):
        client = ServiceClient(live.url)
        info = client.submit(SPEC, tenant="sse-resume")
        plain = list(client.events(info["run"]))
        cut = plain[2]["seq"]

        # ?since= resumes after the cursor, as for the NDJSON stream.
        _, body = _sse_get(client,
                           f"/v1/runs/{info['run']}/events?since={cut}")
        ids = [int(f["id"]) for f in _sse_frames(body)]
        assert ids == [e["seq"] for e in plain if e["seq"] > cut]

        # Last-Event-ID (what EventSource sends on reconnect) does the
        # same, and the later of the two cursors wins when both appear.
        _, body = _sse_get(client, f"/v1/runs/{info['run']}/events",
                           headers={"Last-Event-ID": str(cut)})
        assert [int(f["id"]) for f in _sse_frames(body)] == ids
        _, body = _sse_get(client,
                           f"/v1/runs/{info['run']}/events?since=1",
                           headers={"Last-Event-ID": str(cut)})
        assert [int(f["id"]) for f in _sse_frames(body)] == ids

        # A malformed Last-Event-ID falls back to ?since=.
        _, body = _sse_get(client, f"/v1/runs/{info['run']}/events",
                           headers={"Last-Event-ID": "garbage"})
        assert len(_sse_frames(body)) == len(plain)

    def test_mid_stream_cut_leaves_service_healthy(self, live):
        client = ServiceClient(live.url)
        info = client.submit(SPEC, tenant="sse-cut")
        list(client.events(info["run"]))

        # Open the SSE stream, read a few bytes, then slam the socket
        # shut mid-frame — the service must shrug it off.
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=30)
        conn.request("GET", f"/v1/runs/{info['run']}/events",
                     headers={"Accept": "text/event-stream"})
        response = conn.getresponse()
        assert response.read(10)  # partial frame consumed
        response.close()  # abrupt close without draining the stream
        conn.close()

        assert client.health()["ok"] is True
        replay = list(client.events(info["run"]))
        assert replay[-1]["event"] == "RunFinished"

    def test_healthz_reports_version_and_uptime(self, live):
        health = ServiceClient(live.url).health()
        import repro

        assert health["version"] == repro.__version__
        assert isinstance(health["started_at"], float)
        assert health["started_at"] <= time.time()
        assert isinstance(health["uptime_s"], float)
        assert health["uptime_s"] >= 0.0
        # Legacy keys survive for old clients.
        assert health["ok"] is True and health["protocol"] == 1

    def test_metrics_404_without_dashboard(self, live):
        client = ServiceClient(live.url)
        with pytest.raises(ServeError, match="dashboard"):
            client.metrics()
        with pytest.raises(ServeError, match="dashboard"):
            client._request("GET", "/v1/dashboard")


# ---------------------------------------------------------------------------
# CLI: explore --resume (satellite)


class TestExploreResume:
    def test_resume_completes_only_the_remainder(self, tmp_path, capsys):
        first_spec = tmp_path / "first.json"
        first_spec.write_text(json.dumps(SPEC), encoding="utf-8")
        store = tmp_path / "results.jsonl"
        assert main(["explore", str(first_spec),
                     "--cache-dir", str(tmp_path / "cache-a"),
                     "--store", str(store), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["succeeded"] == 2 and first["cache_hits"] == 0

        # Superset spec, *fresh* cache: only the store knows the first
        # run — exactly the kill-and-restart shape.
        superset = tmp_path / "superset.json"
        superset.write_text(json.dumps(SUPERSET_SPEC), encoding="utf-8")
        assert main(["explore", str(superset),
                     "--cache-dir", str(tmp_path / "cache-b"),
                     "--resume", str(store), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["jobs"] == 3
        assert second["cache_hits"] == 2  # resumed, not re-executed
        assert second["succeeded"] == 3

    def test_resume_from_a_missing_store_is_refused(self, tmp_path, capsys):
        # A typo must not create its directory and re-run every job.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC), encoding="utf-8")
        typo = tmp_path / "typo" / "results.jsonl"
        before = tree(tmp_path)
        assert main(["explore", str(spec),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--store", str(tmp_path / "out" / "results.jsonl"),
                     "--resume", str(typo)]) == 2
        assert capsys.readouterr().err == \
            f"error: no result store at {typo}\n"
        assert tree(tmp_path) == before
