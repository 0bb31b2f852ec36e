"""Worker-lifecycle tests for the sweep executor.

Worker processes are resident: a :class:`~repro.explore.executor.Crew`
forks one when a flight finds nobody parked, a worker that answered
serves the next flight, and every other ending (crash, stale heartbeat,
deadline, cancel) kills it so the next flight forks a clean one.  These
tests count forks and kills at the ``_Worker`` seam and check that no
process, and no heartbeat file, outlives its owner.
"""

import asyncio
import multiprocessing
import os
import signal
import socket
import tempfile
import threading

import pytest

from repro.chaos import (
    ChaosInjector,
    ChaosSpec,
    QuarantineLedger,
    WorkerChaos,
    backoff_delay,
)
from repro.explore import (
    EventLog,
    Job,
    JobStarted,
    SweepOptions,
    SweepSpec,
    run_job_isolated,
    run_sweep,
)
from repro.explore import executor
from repro.explore.executor import Crew, settle
from repro.serve import ServiceConfig, ServiceStorage, SweepService

GRID = {
    "name": "workers",
    "app": "image_pipeline",
    "axes": {"width": [16, 24], "rate_hz": [40.0, 50.0, 60.0],
             "mapping": ["greedy", "1:1"]},
    "fixed": {"height": 12},
    "frames": 2,
}

FAST = dict(workers=2, retries=0, tick_s=0.02)

#: A healthy job that sleeps first (``hang`` only sleeps): it keeps the
#: other slot busy until the hung neighbour has been reaped, so jobs are
#: still queued when the reaped slot needs its fresh worker.
SLOW = {"mode": "hang", "sleep_s": 1.0}

#: ``stats`` keys that are wall-clock readings, not results.
TIMING_KEYS = ("elapsed_s", "sim_elapsed_s", "events_per_s")


def grid():
    jobs = SweepSpec.from_dict(GRID).jobs()
    assert len(jobs) == 12
    return jobs


def with_inject(job, inject, timeout_s=300.0):
    return Job.from_dict({**job.to_dict(), "fingerprint": "",
                          "inject": inject, "timeout_s": timeout_s})


@pytest.fixture
def seam(monkeypatch):
    """Every fork and kill of a worker process, in order, as
    ``("fork" | "kill", pid)``."""
    log = []

    class Recorded(executor._Worker):
        def __init__(self):
            super().__init__()
            self.pid = self.proc.pid
            log.append(("fork", self.pid))

        def kill(self):
            log.append(("kill", self.pid))
            super().kill()

    monkeypatch.setattr(executor, "_Worker", Recorded)
    return log


def forks(seam):
    return [pid for what, pid in seam if what == "fork"]


def outcomes(result):
    return [
        ("result" if r["kind"] == "result" else r["failure"]["kind"],
         r["attempts"])
        for r in result.records
    ]


def assert_only_one_slot_paid(seam):
    """Two forks, one kill, one fork, then the two kills of the crew
    closing: the slot that lost its worker got a fresh one and the other
    slot kept its process from first job to last."""
    assert [what for what, _ in seam] == [
        "fork", "fork", "kill", "fork", "kill", "kill"]
    first, second, lost, fresh = (pid for _, pid in seam[:4])
    assert lost in (first, second)
    survivor = second if lost == first else first
    assert {pid for _, pid in seam[4:]} == {survivor, fresh}


class TestResidentWorkers:
    def test_a_sweep_forks_one_worker_per_slot(self, seam):
        result = run_sweep(grid(), options=SweepOptions(**FAST))
        assert outcomes(result) == [("result", 1)] * 12
        assert len(forks(seam)) == 2
        assert sorted(seam[2:]) == sorted(
            ("kill", pid) for pid in forks(seam))

    def test_a_cached_sweep_forks_none(self, seam, tmp_path):
        from repro.explore import ResultCache

        cache = ResultCache(tmp_path)
        jobs = grid()[:2]
        run_sweep(jobs, cache=cache, options=SweepOptions(**FAST))
        del seam[:]
        result = run_sweep(jobs, cache=cache, options=SweepOptions(**FAST))
        assert result.cache_hits == 2
        assert seam == []

    def test_a_crash_costs_only_its_own_slot(self, seam):
        jobs = grid()
        jobs[3] = with_inject(jobs[3], {"mode": "crash"})
        result = run_sweep(jobs, options=SweepOptions(**FAST))
        expected = [("result", 1)] * 12
        expected[3] = ("crash", 1)
        assert outcomes(result) == expected
        assert_only_one_slot_paid(seam)

    def test_a_deadline_costs_only_its_own_slot(self, seam):
        jobs = grid()
        jobs[3] = with_inject(jobs[3], {"mode": "hang", "sleep_s": 60.0},
                              timeout_s=0.4)
        jobs[4] = with_inject(jobs[4], SLOW)
        result = run_sweep(jobs, options=SweepOptions(**FAST))
        expected = [("result", 1)] * 12
        expected[3] = ("timeout", 1)
        assert outcomes(result) == expected
        assert_only_one_slot_paid(seam)

    def test_a_watchdog_reap_costs_only_its_own_slot(self, seam):
        jobs = grid()
        hung = jobs[3].label
        jobs[4] = with_inject(jobs[4], SLOW)
        chaos = ChaosInjector(ChaosSpec(worker=WorkerChaos(
            hang_probability=1.0, match=hung)))
        result = run_sweep(
            jobs, options=SweepOptions(heartbeat_s=0.4, **FAST),
            chaos=chaos)
        expected = [("result", 1)] * 12
        expected[3] = ("crash", 1)
        assert outcomes(result) == expected
        assert "watchdog" in result.records[3]["failure"]["message"]
        assert_only_one_slot_paid(seam)

    def test_a_worker_killed_while_idle_is_not_the_next_jobs_crash(
            self, seam):
        first, second = grid()[:2]
        ledger = QuarantineLedger(1)  # one strike would park
        with Crew() as crew:
            assert run_job_isolated(first, poll_s=0.02, crew=crew)["ok"]
            (parked,) = crew._parked
            os.kill(parked.pid, signal.SIGKILL)
            # Block until it is dead, leaving it for the crew to reap.
            os.waitid(os.P_PID, parked.pid, os.WEXITED | os.WNOWAIT)
            payload = run_job_isolated(second, poll_s=0.02, crew=crew)
            outcome = settle(second, payload, 1, SweepOptions(), ledger)
        assert outcome["kind"] == "result" and outcome["attempts"] == 1
        assert ledger.as_dict()["strikes"] == {}
        assert [what for what, _ in seam] == [
            "fork", "kill", "fork", "kill"]

    def test_cancel_mid_flight_kills_the_worker_and_frees_the_slot(
            self, seam):
        hung = with_inject(grid()[0], {"mode": "hang", "sleep_s": 60.0})
        cancel = threading.Event()
        with Crew() as crew:
            timer = threading.Timer(0.2, cancel.set)
            timer.start()
            try:
                payload = run_job_isolated(hung, cancel=cancel,
                                           poll_s=0.02, crew=crew)
            finally:
                timer.cancel()
            assert payload["kind"] == "cancelled"
            assert [what for what, _ in seam] == ["fork", "kill"]
            assert crew._parked == []
            assert run_job_isolated(grid()[1], poll_s=0.02,
                                    crew=crew)["ok"]
            assert len(forks(seam)) == 2

    def test_a_resident_worker_holds_none_of_its_parents_sockets(self):
        """``repro serve`` ends event streams by closing the connection;
        a copy of it in a parked worker would keep the client waiting."""
        ours, theirs = socket.socketpair()
        with ours, theirs, Crew() as crew:
            assert run_job_isolated(grid()[0], poll_s=0.02,
                                    crew=crew)["ok"]  # forked just now
            assert len(crew._parked) == 1
            ours.close()
            theirs.settimeout(5.0)
            assert theirs.recv(1) == b""  # EOF: ours was the last copy

    def test_a_lone_call_is_a_crew_of_one(self, seam):
        assert run_job_isolated(grid()[0], poll_s=0.02)["ok"]
        assert [what for what, _ in seam] == ["fork", "kill"]
        assert multiprocessing.active_children() == []


class TestOrderIndependence:
    def test_stats_do_not_depend_on_worker_or_order(self):
        def stats_by_label(jobs, workers):
            result = run_sweep(jobs, options=SweepOptions(
                workers=workers, retries=0, tick_s=0.02))
            return {
                r["label"]: {k: v for k, v in r["stats"].items()
                             if k not in TIMING_KEYS}
                for r in result.records
            }

        serial = stats_by_label(grid(), 0)
        assert len(serial) == 12
        assert stats_by_label(grid(), 2) == serial
        assert stats_by_label(grid()[::-1], 2) == serial


class TestNothingOutlivesItsOwner:
    def test_after_run_sweep_returns(self):
        run_sweep(grid()[:4], options=SweepOptions(**FAST))
        assert multiprocessing.active_children() == []

    def test_after_an_exception_inside_on_event(self):
        started = []

        def on_event(event):
            if isinstance(event, JobStarted):
                started.append(event.label)
                if len(started) == 3:  # two flights are in the air
                    raise RuntimeError("observer bug")

        with pytest.raises(RuntimeError, match="observer bug"):
            run_sweep(grid(), options=SweepOptions(**FAST),
                      on_event=on_event)
        assert multiprocessing.active_children() == []

    def test_after_service_stop(self, tmp_path):
        async def scenario():
            service = SweepService(ServiceStorage(tmp_path / "data"),
                                   ServiceConfig(tick_s=0.02))
            await service.start()
            handle = await service.submit(
                {**GRID, "axes": {"rate_hz": [40.0, 50.0, 60.0]}})
            async for _ in service.watch(handle.plan.run_id):
                pass
            busy = len(multiprocessing.active_children())
            await service.stop()
            return handle, busy

        handle, busy = asyncio.run(scenario())
        assert handle.succeeded == 3
        assert 1 <= busy <= 2  # resident between jobs, at most one a slot
        assert multiprocessing.active_children() == []

    def test_no_heartbeat_file_is_left_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        result = run_sweep(grid(), options=SweepOptions(
            heartbeat_s=0.4, **FAST))
        assert result.succeeded == 12
        assert list(tmp_path.glob("repro-heartbeat-*")) == []


class TestLaunchOrder:
    def test_ready_tasks_launch_in_pending_order(self, monkeypatch):
        """Three jobs on one slot, the first two failing once: after the
        first pass the retries launch as their backoff expires, a ready
        task overtaking an earlier one that is still backing off."""
        jobs = SweepSpec.from_dict(
            {**GRID, "axes": {"rate_hz": [40.0, 50.0, 60.0]}}).jobs()
        error = {"ok": False, "kind": "error", "message": "m",
                 "retryable": True}
        ok = {"ok": True, "stats": {"meets": True}}
        scripts = {jobs[0].fingerprint: [error, ok],
                   jobs[1].fingerprint: [error, ok],
                   jobs[2].fingerprint: [ok]}
        delay = [backoff_delay(1, 0.4, 1.0, key=j.fingerprint)
                 for j in jobs[:2]]
        assert abs(delay[0] - delay[1]) > 0.02  # else pick other rates
        retry_order = sorted(range(2), key=delay.__getitem__)

        class StubFlight:
            def __init__(self, crew, flown, **kwargs):
                self.payload = scripts[flown.fingerprint].pop(0)
                self.waitables = ()

            def poll(self):
                return self.payload

            def close(self):
                pass

        monkeypatch.setattr(executor, "_Flight", StubFlight)
        log = EventLog()
        run_sweep(jobs, options=SweepOptions(
            workers=1, retries=1, backoff_s=0.4, backoff_max_s=1.0,
            tick_s=0.001), on_event=log)
        assert [(e.label, e.attempt) for e in log.events
                if isinstance(e, JobStarted)] == (
            [(j.label, 1) for j in jobs]
            + [(jobs[i].label, 2) for i in retry_order])
