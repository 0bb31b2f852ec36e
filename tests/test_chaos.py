"""``repro.chaos`` — fault injection, supervision, and recovery seams.

Four layers under test:

* the declarative :class:`ChaosSpec` (validated on construction, JSON
  round-trippable) and the seed-deterministic :class:`ChaosInjector`
  whose every decision is a pure function of ``(seed, site, key)``;
* the always-on supervision primitives — bounded jittered backoff, the
  worker heartbeat/watchdog, the poison-job quarantine ledger — and
  their wiring through ``run_job_isolated`` / ``run_sweep``;
* the storage hardening the chaos suite flushed out: checksummed cache
  entries that quarantine instead of crash, and the torn-tail-tolerant
  JSONL store (a crash mid-append must not poison ``--resume``);
* the serve-stack recovery paths: the scheduler's two cancel races
  (cancel-during-retry-backoff and cancel-racing-a-crash/watchdog
  payload — the windows where a run could end with zero or two
  terminal events), and :meth:`ServiceClient.watch`'s ``?since=<seq>``
  reconnection against a live server with injected stream cuts.

The scenario matrix itself (``repro chaos``) is exercised through
:func:`repro.chaos.suite.run_matrix` on its fastest scenario; CI runs
the full matrix in the ``chaos-smoke`` job.
"""

import asyncio
import dataclasses
import json
import os
import queue
import re
import threading
import time

import pytest

from repro.chaos import (
    ChaosInjector,
    ChaosSpec,
    HttpChaos,
    QuarantineLedger,
    StorageChaos,
    WorkerChaos,
    backoff_delay,
    heartbeat_stale,
    load_chaos_spec,
    start_heartbeat,
    touch_heartbeat,
    unit_interval,
)
from repro.errors import ChaosSpecError
from repro.explore import (
    Job,
    ResultCache,
    ResultStore,
    SweepOptions,
    completed_records,
    run_job_isolated,
    run_sweep,
)
from repro.explore.cache import QUARANTINE_DIR
from repro.serve import (
    RunStateChanged,
    ServeError,
    ServiceClient,
    ServiceConfig,
    ServiceStorage,
    ServiceUnreachable,
    SweepPlan,
    SweepService,
    decode_event,
    encode_event,
    run_service,
)

GOOD = {"width": 16, "height": 12}


def job_at(rate_hz=50.0, *, timeout_s=300.0):
    return Job.from_dict({
        "sweep": "chaos",
        "app": "image_pipeline",
        "params": {**GOOD, "rate_hz": rate_hz},
        "frames": 2,
        "timeout_s": timeout_s,
    })


def plan_of(jobs):
    return SweepPlan(
        run_id="pending", name="chaos", tenant="", priority=0, created=0.0,
        spec_json="{}", jobs=tuple(jobs),
        fingerprints=tuple(job.fingerprint for job in jobs),
    )


class _PlanStub:
    def __init__(self, *plans):
        self.plans = list(plans)

    def compile(self, spec_data, *, run_id, tenant="", priority=0,
                created=0.0):
        plan = self.plans.pop(0)
        return dataclasses.replace(plan, run_id=run_id, tenant=tenant,
                                   priority=int(priority), created=created)


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# ChaosSpec: declarative, validated, JSON round-trippable


class TestChaosSpec:
    def test_defaults_are_inert(self):
        spec = ChaosSpec()
        assert spec.active() is False
        assert spec.seed == 0

    def test_round_trips_through_dict_and_json(self):
        spec = ChaosSpec(
            seed=7,
            worker=WorkerChaos(crash_probability=0.25, match="rate_hz=40"),
            storage=StorageChaos(store_torn_write_probability=0.5),
            http=HttpChaos(stream_break_probability=0.1),
        )
        assert ChaosSpec.from_dict(spec.to_dict()) == spec
        assert ChaosSpec.from_json(spec.canonical_json()) == spec
        assert spec.active() is True

    def test_canonical_json_is_stable(self):
        a = ChaosSpec.from_dict({"seed": 3, "worker":
                                 {"crash_probability": 0.5}})
        b = ChaosSpec(seed=3, worker=WorkerChaos(crash_probability=0.5))
        assert a.canonical_json() == b.canonical_json()

    def test_with_seed_changes_only_the_seed(self):
        spec = ChaosSpec(worker=WorkerChaos(hang_probability=1.0))
        reseeded = spec.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.worker == spec.worker

    @pytest.mark.parametrize("field,value,fragment", [
        ("crash_probability", 1.5, "worker.crash_probability"),
        ("hang_probability", -0.1, "worker.hang_probability"),
        ("slow_probability", "lots", "worker.slow_probability"),
        ("slow_s", -1.0, "worker.slow_s"),
    ])
    def test_validation_names_the_offending_field(self, field, value,
                                                  fragment):
        with pytest.raises(ChaosSpecError, match=re.escape(fragment)):
            WorkerChaos(**{field: value})

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ChaosSpecError, match="unknown"):
            ChaosSpec.from_dict({"seed": 0, "worker":
                                 {"crash_probabilty": 0.5}})  # typo
        with pytest.raises(ChaosSpecError, match="unknown"):
            ChaosSpec.from_dict({"wrkr": {}})

    def test_match_must_be_a_string(self):
        with pytest.raises(ChaosSpecError, match="worker.match"):
            WorkerChaos(match=7)

    def test_non_json_and_non_object_specs_raise(self):
        with pytest.raises(ChaosSpecError, match="not JSON"):
            ChaosSpec.from_json("{nope")
        with pytest.raises(ChaosSpecError, match="JSON object"):
            ChaosSpec.from_json("[1, 2]")

    def test_load_chaos_spec_reads_a_file(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({
            "seed": 11, "storage": {"cache_corrupt_probability": 1.0},
        }))
        spec = load_chaos_spec(str(path))
        assert spec.seed == 11
        assert spec.storage.cache_corrupt_probability == 1.0


# ---------------------------------------------------------------------------
# The injector: pure-function decisions, ledger, digest


class TestChaosInjector:
    def test_unit_interval_is_deterministic_and_bounded(self):
        draws = {unit_interval(0, "worker.crash", f"fp:{i}")
                 for i in range(64)}
        assert all(0.0 <= d < 1.0 for d in draws)
        assert draws == {unit_interval(0, "worker.crash", f"fp:{i}")
                         for i in range(64)}
        assert len(draws) > 32  # distinct keys spread across [0, 1)

    def test_same_seed_same_decisions(self):
        spec = ChaosSpec(seed=5, worker=WorkerChaos(crash_probability=0.5))
        a, b = ChaosInjector(spec), ChaosInjector(spec)
        actions_a = [a.worker_action(f"fp{i}", 1) for i in range(32)]
        actions_b = [b.worker_action(f"fp{i}", 1) for i in range(32)]
        assert actions_a == actions_b
        assert a.decisions() == b.decisions()
        assert a.ledger_digest() == b.ledger_digest()

    def test_different_seeds_diverge(self):
        base = ChaosSpec(worker=WorkerChaos(crash_probability=0.5))
        a = ChaosInjector(base.with_seed(1))
        b = ChaosInjector(base.with_seed(2))
        for i in range(32):
            a.worker_action(f"fp{i}", 1)
            b.worker_action(f"fp{i}", 1)
        assert a.ledger_digest() != b.ledger_digest()

    def test_zero_probability_sites_never_touch_the_ledger(self):
        injector = ChaosInjector(
            ChaosSpec(worker=WorkerChaos(crash_probability=1.0))
        )
        injector.worker_action("fp", 1)       # hang/slow sites are p=0
        injector.drop_request("GET", "/healthz")
        injector.break_stream("run", 1)
        injector.tear_store_line("fp")
        injector.mutate_cache_entry("fp", b"{}")
        sites = {site for site, _, _ in injector.decisions()}
        assert sites == {"worker.crash"}

    def test_match_filter_shields_other_labels(self):
        injector = ChaosInjector(ChaosSpec(worker=WorkerChaos(
            crash_probability=1.0, match="rate_hz=40",
        )))
        assert injector.worker_action("fp", 1, "x(rate_hz=50.0)") is None
        action = injector.worker_action("fp", 1, "x(rate_hz=40.0)")
        assert action == {"mode": "crash"}
        # The shielded job never consulted the dice: ledger has one entry.
        assert len(injector.decisions()) == 1

    def test_crash_outranks_hang_outranks_slow(self):
        injector = ChaosInjector(ChaosSpec(worker=WorkerChaos(
            crash_probability=1.0, hang_probability=1.0,
            slow_probability=1.0, slow_s=9.0,
        )))
        assert injector.worker_action("fp", 1) == {"mode": "crash"}
        slow = ChaosInjector(ChaosSpec(worker=WorkerChaos(
            slow_probability=1.0, slow_s=0.25,
        )))
        assert slow.worker_action("fp", 1) == {"mode": "slow",
                                               "delay_s": 0.25}

    def test_cache_mutations_are_real_corruption(self):
        payload = json.dumps({"k": "v" * 50}).encode()
        corrupt = ChaosInjector(ChaosSpec(storage=StorageChaos(
            cache_corrupt_probability=1.0,
        ))).mutate_cache_entry("fp", payload)
        assert corrupt is not None and corrupt != payload
        with pytest.raises((json.JSONDecodeError, UnicodeDecodeError)):
            json.loads(corrupt)
        truncated = ChaosInjector(ChaosSpec(storage=StorageChaos(
            cache_truncate_probability=1.0,
        ))).mutate_cache_entry("fp", payload)
        assert truncated == payload[: len(payload) // 2]

    def test_drop_request_spares_writes(self):
        injector = ChaosInjector(ChaosSpec(http=HttpChaos(
            reset_probability=1.0,
        )))
        assert injector.drop_request("POST", "/v1/runs") is False
        assert injector.drop_request("GET", "/v1/runs") is True

    def test_injected_counts_hits_by_site_prefix(self):
        injector = ChaosInjector(ChaosSpec(worker=WorkerChaos(
            crash_probability=1.0,
        ), http=HttpChaos(reset_probability=1.0)))
        injector.worker_action("fp", 1)
        injector.drop_request("GET", "/healthz")
        assert injector.injected() == 2
        assert injector.injected("worker.") == 1
        assert injector.injected("http.") == 1


# ---------------------------------------------------------------------------
# Supervision primitives


class TestBackoffDelay:
    def test_caps_the_exponential_curve(self):
        # Uncapped, attempt 10 would be 0.1 * 512 = 51.2s.
        delay = backoff_delay(10, 0.1, 2.0, key="fp")
        assert delay <= 2.0

    def test_jitter_stays_in_the_half_open_band(self):
        for attempt in range(1, 12):
            delay = backoff_delay(attempt, 0.1, 5.0, key=f"k{attempt}")
            bounded = min(5.0, 0.1 * 2 ** (attempt - 1))
            assert bounded * 0.5 <= delay < bounded

    def test_deterministic_per_key_decorrelated_across_keys(self):
        assert backoff_delay(3, 0.1, 5.0, key="a") == \
            backoff_delay(3, 0.1, 5.0, key="a")
        delays = {backoff_delay(3, 0.1, 5.0, key=f"job{i}")
                  for i in range(16)}
        assert len(delays) > 8  # distinct keys spread, no thundering herd


class TestQuarantineLedger:
    def test_limit_zero_is_fully_disabled(self):
        ledger = QuarantineLedger(0)
        for _ in range(50):
            assert ledger.record_crash("fp", "boom") is None
        assert ledger.reason("fp") is None
        assert ledger.parked() == {}

    def test_parks_on_the_nth_consecutive_crash(self):
        ledger = QuarantineLedger(3)
        assert ledger.record_crash("fp") is None
        assert ledger.record_crash("fp") is None
        reason = ledger.record_crash("fp", "segfault")
        assert reason is not None and "segfault" in reason
        assert "3 consecutive" in reason
        assert ledger.reason("fp") == reason
        assert "fp" in ledger.parked()

    def test_success_clears_the_strike_count(self):
        ledger = QuarantineLedger(2)
        assert ledger.record_crash("fp") is None
        ledger.clear("fp")
        assert ledger.record_crash("fp") is None  # count restarted
        assert ledger.record_crash("fp") is not None

    def test_as_dict_snapshot(self):
        ledger = QuarantineLedger(2)
        ledger.record_crash("a")
        snapshot = ledger.as_dict()
        assert snapshot["limit"] == 2
        assert snapshot["strikes"] == {"a": 1}
        assert snapshot["parked"] == {}


class TestHeartbeat:
    def test_touch_and_staleness(self, tmp_path):
        path = str(tmp_path / "hb")
        open(path, "w").close()  # the watcher creates it, never the beat
        touch_heartbeat(path)
        assert heartbeat_stale(path, 30.0) is False
        time.sleep(0.15)
        assert heartbeat_stale(path, 0.1) is True

    def test_missing_file_gets_startup_grace(self, tmp_path):
        assert heartbeat_stale(str(tmp_path / "absent"), 0.0) is False

    def test_start_heartbeat_keeps_the_file_fresh(self, tmp_path):
        path = str(tmp_path / "hb")
        open(path, "w").close()
        stop = start_heartbeat(path, 0.05)
        try:
            time.sleep(0.3)
            assert heartbeat_stale(path, 0.2) is False
        finally:
            stop()
        assert not any(t.name == "repro-heartbeat"
                       for t in threading.enumerate())

    def test_a_beat_never_creates_the_file(self, tmp_path):
        path = str(tmp_path / "hb")
        start_heartbeat(path, 0.01)()
        touch_heartbeat(path)
        assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# Satellite: torn-tail-tolerant JSONL store (crash mid-append)


class TestStoreTornTail:
    def _torn_store(self, tmp_path):
        """A store whose final line lost its tail mid-append."""
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.append({"kind": "result", "fingerprint": "aa", "n": 1})
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "result", "fingerprint": "bb", "n')
        return path

    def test_reads_skip_the_torn_final_line(self, tmp_path):
        path = self._torn_store(tmp_path)
        records = list(ResultStore(path))
        assert [r["fingerprint"] for r in records] == ["aa"]

    def test_append_after_torn_tail_loses_neither_record(self, tmp_path):
        # The regression: appending onto a torn tail used to glue the
        # new record to the partial line, losing BOTH to the JSON
        # parser.  The store must notice the missing newline and seal
        # the torn line before writing.
        path = self._torn_store(tmp_path)
        store = ResultStore(path)
        store.append({"kind": "result", "fingerprint": "cc", "n": 3})
        fingerprints = [r["fingerprint"] for r in ResultStore(path)]
        assert fingerprints == ["aa", "cc"]

    def test_resume_index_survives_a_torn_tail(self, tmp_path):
        path = self._torn_store(tmp_path)
        done = completed_records(ResultStore(path))
        assert set(done) == {"aa"}

    def test_compact_drops_the_torn_bytes(self, tmp_path):
        path = self._torn_store(tmp_path)
        store = ResultStore(path)
        store.compact()
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        assert len(raw.decode().strip().splitlines()) == 1
        assert [r["fingerprint"] for r in ResultStore(path)] == ["aa"]

    def test_chaos_tear_is_repaired_by_the_next_append(self, tmp_path):
        injector = ChaosInjector(ChaosSpec(storage=StorageChaos(
            store_torn_write_probability=1.0,
        )))
        path = tmp_path / "results.jsonl"
        store = ResultStore(path, chaos=injector)
        store.append({"kind": "result", "fingerprint": "aa"})
        assert list(store) == []  # every append torn: nothing survives
        clean = ResultStore(path)  # chaos off: writes whole again
        clean.append({"kind": "result", "fingerprint": "bb"})
        assert [r["fingerprint"] for r in clean] == ["bb"]


# ---------------------------------------------------------------------------
# Checksummed cache entries: corruption quarantines, never crashes


class TestCacheChecksums:
    FP = "deadbeef01"

    def _record(self):
        return {"kind": "result", "fingerprint": self.FP,
                "stats": {"meets": True}}

    def _entry_path(self, root):
        paths = [p for p in root.rglob("*.json")
                 if QUARANTINE_DIR not in p.parts]
        assert len(paths) == 1
        return paths[0]

    def test_round_trip_is_unchanged(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.FP, self._record())
        assert cache.get(self.FP) == self._record()

    def test_bitflip_quarantines_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.FP, self._record())
        path = self._entry_path(tmp_path)
        entry = json.loads(path.read_text())
        entry["record"]["stats"]["meets"] = False  # silent bit-flip
        path.write_text(json.dumps(entry))
        assert cache.get(self.FP) is None  # sha256 trailer mismatches
        assert cache.quarantined() != []
        assert not path.exists()  # moved aside, not deleted

    def test_garbage_bytes_quarantine_instead_of_crashing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.FP, self._record())
        self._entry_path(tmp_path).write_bytes(b"\x00\xff garbage")
        assert cache.get(self.FP) is None
        assert len(cache.quarantined()) == 1
        # A recompute repopulates the same fingerprint cleanly.
        cache.put(self.FP, self._record())
        assert cache.get(self.FP) == self._record()

    def test_legacy_entry_without_checksum_still_reads(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.FP, self._record())
        path = self._entry_path(tmp_path)
        entry = json.loads(path.read_text())
        del entry["sha256"]  # written by a pre-checksum version
        path.write_text(json.dumps(entry))
        assert cache.get(self.FP) == self._record()
        assert cache.quarantined() == []

    def test_chaos_corruption_never_surfaces_corrupt_data(self, tmp_path):
        injector = ChaosInjector(ChaosSpec(storage=StorageChaos(
            cache_corrupt_probability=1.0,
        )))
        cache = ResultCache(tmp_path, chaos=injector)
        cache.put(self.FP, self._record())
        assert cache.get(self.FP) is None  # corrupt on disk -> miss
        assert cache.quarantined() != []

    def test_chaos_truncation_never_surfaces_corrupt_data(self, tmp_path):
        injector = ChaosInjector(ChaosSpec(storage=StorageChaos(
            cache_truncate_probability=1.0,
        )))
        cache = ResultCache(tmp_path, chaos=injector)
        cache.put(self.FP, self._record())
        assert cache.get(self.FP) is None
        assert cache.quarantined() != []

    def test_quarantine_dir_is_invisible_to_iteration(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.FP, self._record())
        self._entry_path(tmp_path).write_bytes(b"junk")
        assert cache.get(self.FP) is None
        assert len(cache) == 0
        assert list(cache.fingerprints()) == []


# ---------------------------------------------------------------------------
# Worker chaos through the real executor (real worker processes)


class TestWorkerChaosExecution:
    def test_slow_action_still_succeeds(self):
        payload = run_job_isolated(job_at(), poll_s=0.02,
                                   chaos_action={"mode": "slow",
                                                 "delay_s": 0.2})
        assert payload["ok"] is True

    def test_crash_action_reports_a_retryable_crash(self):
        payload = run_job_isolated(job_at(), poll_s=0.02,
                                   chaos_action={"mode": "crash"})
        assert payload["ok"] is False
        assert payload["kind"] == "crash"
        assert payload["retryable"] is True

    def test_watchdog_reaps_a_hung_worker(self):
        started = time.monotonic()
        payload = run_job_isolated(
            job_at(timeout_s=300.0), poll_s=0.02, heartbeat_s=0.5,
            chaos_action={"mode": "hang"},
        )
        elapsed = time.monotonic() - started
        assert payload["ok"] is False
        assert payload["kind"] == "crash"
        assert payload["retryable"] is True
        assert payload.get("watchdog") is True
        assert "watchdog" in payload["message"]
        assert elapsed < 60.0  # reaped by heartbeat, not the 300s deadline

    def test_healthy_job_unbothered_by_armed_watchdog(self):
        payload = run_job_isolated(job_at(), poll_s=0.02, heartbeat_s=5.0)
        assert payload["ok"] is True

    def test_run_sweep_quarantines_a_crash_looping_job(self, tmp_path):
        injector = ChaosInjector(ChaosSpec(worker=WorkerChaos(
            crash_probability=1.0, match="rate_hz=40",
        )))
        jobs = [job_at(40.0), job_at(50.0)]
        events = []
        result = run_sweep(
            jobs,
            store=ResultStore(tmp_path / "r.jsonl"),
            options=SweepOptions(workers=1, retries=5, backoff_s=0.01,
                                 backoff_max_s=0.05, quarantine_after=2),
            on_event=events.append,
            chaos=injector,
        )
        by_label = {r["label"]: r for r in result.records}
        victim = next(r for label, r in by_label.items()
                      if "rate_hz=40" in label)
        survivor = next(r for label, r in by_label.items()
                        if "rate_hz=50" in label)
        assert victim["kind"] == "failure"
        assert victim["failure"]["kind"] == "quarantined"
        assert victim.get("quarantined") is True
        assert victim["attempts"] == 2  # parked at the budget, not retries
        assert survivor["kind"] == "result"
        # Both front ends mark what ran under an injector, results and
        # failures alike, so no analysis mistakes it for a clean run.
        assert victim["chaos"] is True and survivor["chaos"] is True
        stored = ResultStore(tmp_path / "r.jsonl").load()
        assert stored and all(r["chaos"] is True for r in stored)
        failed = [e for e in events
                  if type(e).__name__ == "JobFailed"]
        assert any(e.kind == "quarantined" for e in failed)


# ---------------------------------------------------------------------------
# Satellite: the scheduler's two cancel races


class TestSchedulerCancelRaces:
    def _service(self, tmp_path, **knobs):
        knobs.setdefault("workers", 2)
        knobs.setdefault("tick_s", 0.02)
        knobs.setdefault("backoff_s", 0.01)
        storage = ServiceStorage(tmp_path / "data")
        return SweepService(storage, ServiceConfig(**knobs))

    def test_cancel_during_retry_backoff_settles_promptly(self, tmp_path,
                                                          monkeypatch):
        # First attempt crashes; the scheduler enters a ~30s backoff.
        # Cancel lands inside that window: the run must settle with one
        # cancelled terminal record, not sleep out the delay and not
        # resurrect the job with a retry.
        jobs = [job_at()]
        monkeypatch.setattr("repro.serve.scheduler.SweepPlan",
                            _PlanStub(plan_of(jobs)))
        calls = []

        def crashing(job, **kwargs):
            calls.append(job.fingerprint)
            return {"ok": False, "kind": "crash", "message": "injected",
                    "retryable": True}

        monkeypatch.setattr("repro.serve.scheduler.run_job_isolated",
                            crashing)

        async def scenario():
            service = self._service(tmp_path, retries=5, backoff_s=30.0,
                                    backoff_max_s=30.0)
            await service.start()
            handle = await service.submit({})
            deadline = time.monotonic() + 30.0
            while not calls and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.1)  # let _execute enter the backoff
            service.cancel(handle.plan.run_id)
            events = [e async for e in service.watch(handle.plan.run_id)]
            await service.stop()
            return handle, events

        started = time.monotonic()
        handle, events = run(scenario())
        assert time.monotonic() - started < 20.0  # no 30s backoff wait
        assert handle.machine.status == "cancelled"
        assert [e["event"] for e in events].count("RunFinished") == 1
        assert len(calls) == 1  # the cancelled job was never retried
        assert len(handle.records) == 1
        record = next(iter(handle.records.values()))
        assert record["failure"]["kind"] == "cancelled"
        assert "backoff" in record["failure"]["message"]
        assert record["attempts"] == 1  # backing off after attempt 1

    def test_cancel_racing_a_crash_payload_stays_cancelled(self, tmp_path,
                                                           monkeypatch):
        # The worker dies (e.g. a watchdog kill) in the same window the
        # cancel flag goes up: the returned payload reads "crash", which
        # is retryable.  The scheduler must honour the cancel — exactly
        # one terminal record, status cancelled, zero retries.
        jobs = [job_at()]
        monkeypatch.setattr("repro.serve.scheduler.SweepPlan",
                            _PlanStub(plan_of(jobs)))
        calls = []

        def racing(job, *, cancel=None, **kwargs):
            calls.append(job.fingerprint)
            while not cancel.is_set():
                time.sleep(0.01)
            return {"ok": False, "kind": "crash", "retryable": True,
                    "watchdog": True,
                    "message": "watchdog: no heartbeat for 0.5s; "
                               "worker killed"}

        monkeypatch.setattr("repro.serve.scheduler.run_job_isolated",
                            racing)

        async def scenario():
            service = self._service(tmp_path, retries=5)
            await service.start()
            handle = await service.submit({})
            deadline = time.monotonic() + 30.0
            while not calls and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            service.cancel(handle.plan.run_id)
            events = [e async for e in service.watch(handle.plan.run_id)]
            await service.stop()
            return handle, events

        handle, events = run(scenario())
        assert handle.machine.status == "cancelled"
        assert [e["event"] for e in events].count("RunFinished") == 1
        assert len(calls) == 1  # crash payload did not trigger a retry
        assert len(handle.records) == 1
        record = next(iter(handle.records.values()))
        assert record["failure"]["kind"] == "cancelled"
        assert "crash" in record["failure"]["message"]
        assert record["attempts"] == 1

    def test_cancelled_records_count_the_attempts_started(self, tmp_path,
                                                          monkeypatch):
        # One worker, two jobs: the first fails twice, is cancelled
        # inside its third attempt; the second never leaves the queue.
        # Each record (and its JobFailed) says how many attempts were
        # actually started — the number of JobStarted events it got.
        jobs = [job_at(40.0), job_at(50.0)]
        monkeypatch.setattr("repro.serve.scheduler.SweepPlan",
                            _PlanStub(plan_of(jobs)))
        calls = []

        def third_time_hangs(job, *, cancel=None, **kwargs):
            calls.append(job.fingerprint)
            if len(calls) == 3:
                while not cancel.is_set():
                    time.sleep(0.01)
            return {"ok": False, "kind": "error", "message": "injected",
                    "retryable": True}

        monkeypatch.setattr("repro.serve.scheduler.run_job_isolated",
                            third_time_hangs)

        async def scenario():
            service = self._service(tmp_path, workers=1, retries=5,
                                    backoff_max_s=0.02)
            await service.start()
            handle = await service.submit({})
            deadline = time.monotonic() + 30.0
            while len(calls) < 3 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            service.cancel(handle.plan.run_id)
            events = [e async for e in service.watch(handle.plan.run_id)]
            await service.stop()
            return handle, events

        handle, events = run(scenario())
        assert handle.machine.status == "cancelled"
        assert calls == [jobs[0].fingerprint] * 3
        assert [(r["failure"]["kind"], r["attempts"])
                for r in (handle.records[0], handle.records[1])] == [
            ("cancelled", 3), ("cancelled", 0)]
        assert "queued" in handle.records[1]["failure"]["message"]
        for job in jobs:
            mine = [e for e in events if e.get("label") == job.label]
            started = [e for e in mine if e["event"] == "JobStarted"]
            (failed,) = [e for e in mine if e["event"] == "JobFailed"]
            assert failed["attempts"] == len(started)


# ---------------------------------------------------------------------------
# Satellite: client auto-reconnect over the ?since cursor


class _LiveService:
    """The real ``run_service`` loop on a background thread."""

    def __init__(self, data_dir, *, chaos=None, **knobs):
        knobs.setdefault("workers", 2)
        knobs.setdefault("tick_s", 0.02)
        knobs.setdefault("backoff_s", 0.01)
        self._urls: queue.Queue[str] = queue.Queue()
        self.chaos = ChaosInjector(chaos) if chaos is not None else None
        self.thread = threading.Thread(
            target=run_service,
            kwargs=dict(host="127.0.0.1", port=0, data_dir=str(data_dir),
                        config=ServiceConfig(**knobs),
                        announce=self._announce, chaos=self.chaos),
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
            ServiceClient(self.url).shutdown(drain=False)
        except ServeError:
            pass
        self.thread.join(timeout=30)


SPEC = {
    "name": "chaos-client",
    "app": "image_pipeline",
    "axes": {"rate_hz": [50.0, 100.0]},
    "fixed": GOOD,
    "frames": 2,
    "timeout_s": 120,
}


class TestClientReconnect:
    def test_watch_survives_a_stream_cut_after_every_envelope(self,
                                                              tmp_path):
        # stream_break_probability=1.0 aborts the connection after every
        # envelope; each break is keyed (run, seq) so it fires exactly
        # once and the ?since cursor resumes after the delivered seq.
        chaos = ChaosSpec(http=HttpChaos(stream_break_probability=1.0))
        with _LiveService(tmp_path / "data", chaos=chaos) as live:
            client = ServiceClient(live.url, backoff_s=0.01,
                                   backoff_max_s=0.05, reconnects=64)
            info = client.submit(SPEC)
            envelopes = list(client.watch(info["run"]))
        seqs = [e["seq"] for e in envelopes]
        assert seqs == sorted(set(seqs))  # no loss, no duplicates
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        assert envelopes[-1]["event"] == "RunFinished"
        assert [e["event"] for e in envelopes].count("RunFinished") == 1
        assert live.chaos.injected("http.break") > 0

    def test_plain_events_stream_ends_early_on_a_cut(self, tmp_path):
        # The single-connection building block does NOT heal: a cut
        # reads as EOF.  This is the contract watch() is built on.
        chaos = ChaosSpec(http=HttpChaos(stream_break_probability=1.0))
        with _LiveService(tmp_path / "data", chaos=chaos) as live:
            client = ServiceClient(live.url)
            info = client.submit(SPEC)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if client.run(info["run"])["status"] == "succeeded":
                    break
                time.sleep(0.05)
            envelopes = list(client.events(info["run"]))
        assert len(envelopes) == 1  # cut right after the first envelope

    def test_get_retries_ride_through_connection_resets(self, tmp_path):
        chaos = ChaosSpec(http=HttpChaos(reset_probability=0.4))
        with _LiveService(tmp_path / "data", chaos=chaos) as live:
            client = ServiceClient(live.url, retries=16, backoff_s=0.01,
                                   backoff_max_s=0.05)
            for _ in range(10):
                assert client.health()["ok"] is True
        assert live.chaos.injected("http.reset") > 0

    def test_watch_gives_up_after_the_reconnect_budget(self, tmp_path):
        with _LiveService(tmp_path / "data") as live:
            client = ServiceClient(live.url, retries=0, backoff_s=0.01,
                                   backoff_max_s=0.02, reconnects=2)
            info = client.submit(SPEC)
            list(client.watch(info["run"]))  # drain to terminal
        # Service is now down: watch must fail crisply, not spin.
        with pytest.raises(ServiceUnreachable, match="no progress"):
            list(client.watch(info["run"], since=10_000))

    def test_dead_port_raises_service_unreachable(self):
        client = ServiceClient("http://127.0.0.1:9", timeout_s=0.5,
                               retries=1, backoff_s=0.01)
        with pytest.raises(ServiceUnreachable, match="unreachable"):
            client.health()
        assert isinstance(ServiceUnreachable("x"), ServeError)


# ---------------------------------------------------------------------------
# Protocol: RunStateChanged reason codes


class TestRunStateChangedReason:
    def test_reason_round_trips(self):
        event = RunStateChanged("svc", run_id="r1", state="cancelling",
                                reason="shutdown")
        envelope = encode_event(event, seq=1, run_id="r1")
        decoded = decode_event(envelope)
        assert decoded.reason == "shutdown"
        assert "(shutdown)" in decoded.describe()

    def test_legacy_payload_without_reason_defaults_empty(self):
        event = RunStateChanged("svc", run_id="r1", state="cancelling")
        payload = encode_event(event, seq=1, run_id="r1")
        del payload["reason"]
        decoded = decode_event(payload)
        assert decoded.reason == ""


# ---------------------------------------------------------------------------
# The scenario matrix (one fast scenario; CI runs the full set)


class TestScenarioMatrix:
    def test_run_matrix_smoke(self, tmp_path):
        from repro.chaos.suite import run_matrix, write_report

        report = run_matrix(tmp_path / "chaos", seed=0,
                            names=["worker-slow"])
        assert report.ok is True
        assert [o.name for o in report.outcomes] == ["worker-slow"]
        assert all(c.ok for c in report.outcomes[0].checks)
        out = tmp_path / "report.json"
        write_report(report, out)
        data = json.loads(out.read_text())
        assert data["ok"] is True and data["seed"] == 0
        assert "worker-slow" in report.describe()

    def test_unknown_scenario_name_raises(self, tmp_path):
        from repro.chaos.suite import run_matrix

        with pytest.raises(ValueError, match="unknown"):
            run_matrix(tmp_path / "chaos", names=["nope"])

    def test_cli_rejects_unknown_scenarios(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["chaos", "--scenarios", "nope",
                     "--data-dir", str(tmp_path / "chaos")])
        assert code == 2
        assert "unknown" in capsys.readouterr().err
