"""Failure-path tests for the sweep executor.

Injected hangs, crashes, and flaky errors exercise the fault isolation
that makes long sweeps safe: a bad design point must cost exactly its own
budget and produce exactly one terminal record, never wedge the sweep or
take neighbouring jobs down with it.
"""

import asyncio
import dataclasses
import itertools
import time

import pytest

from repro.chaos import QuarantineLedger, backoff_delay
from repro.explore import (
    EventLog,
    Job,
    JobFailed,
    JobFinished,
    JobRetried,
    JobStarted,
    SweepOptions,
    SweepSpec,
    run_sweep,
)
from repro.explore.executor import Retry, settle
from repro.serve import ServiceConfig, ServiceStorage, SweepService

GOOD = {"width": 16, "height": 12, "rate_hz": 50.0}


def job(inject=None, timeout_s=300.0):
    return Job.from_dict({
        "sweep": "faults",
        "app": "image_pipeline",
        "params": GOOD,
        "frames": 2,
        "timeout_s": timeout_s,
        "inject": inject or {},
    })


def terminal_kinds(result):
    out = []
    for record in result.records:
        if record["kind"] == "result":
            out.append(("result", record["attempts"]))
        else:
            out.append((record["failure"]["kind"], record["attempts"]))
    return out


class TestPooledFailures:
    def test_mixed_sweep_one_terminal_record_per_job(self, tmp_path):
        """A hang, a crash, and a flaky job ride alongside healthy ones;
        every job still gets exactly one terminal record."""
        jobs = [
            job(),
            job(inject={"mode": "hang", "sleep_s": 60.0}, timeout_s=1.5),
            job(inject={"mode": "crash"}),
            job(inject={"mode": "flaky", "fail_times": 1,
                        "marker_dir": str(tmp_path / "markers")}),
            job(inject={"mode": "error", "message": "boom"}),
        ]
        log = EventLog()
        started = time.monotonic()
        result = run_sweep(jobs, options=SweepOptions(
            workers=2, retries=2, backoff_s=0.05, tick_s=0.02,
        ), on_event=log)
        elapsed = time.monotonic() - started

        assert len(result.records) == len(jobs)
        kinds = terminal_kinds(result)
        assert kinds[0] == ("result", 1)
        assert kinds[1] == ("timeout", 1)   # terminal on first hang
        assert kinds[2] == ("crash", 3)     # retried, then terminal
        assert kinds[3] == ("result", 2)    # flaky: failed once, then ok
        assert kinds[4] == ("error", 3)     # deterministic raise, retried
        assert result.succeeded == 2
        assert result.failed == 3

        # Exactly one terminal event per job, and the sweep didn't wait
        # for the injected 60s sleep.
        terminals = [e for e in log.events
                     if isinstance(e, (JobFinished, JobFailed))]
        assert len(terminals) == len(jobs)
        assert elapsed < 30.0

        report = result.report()
        assert {f["kind"] for f in report.as_dict()["failures"]} == \
            {"timeout", "crash", "error"}

    def test_timeout_is_retried_when_opted_in(self):
        jobs = [job(inject={"mode": "hang", "sleep_s": 60.0}, timeout_s=0.8)]
        log = EventLog()
        result = run_sweep(jobs, options=SweepOptions(
            workers=1, retries=1, backoff_s=0.05, tick_s=0.02,
            retry_timeouts=True,
        ), on_event=log)
        assert terminal_kinds(result) == [("timeout", 2)]
        retried = [e for e in log.events if isinstance(e, JobRetried)]
        assert len(retried) == 1
        assert "timeout" in retried[0].reason


class TestSerialFailures:
    def test_error_retries_then_fails(self):
        result = run_sweep(
            [job(inject={"mode": "error", "message": "boom"})],
            options=SweepOptions(workers=0, retries=1, backoff_s=0.01),
        )
        assert terminal_kinds(result) == [("error", 2)]
        failure = result.records[0]["failure"]
        assert "boom" in failure["message"]

    def test_flaky_succeeds_on_second_attempt(self, tmp_path):
        log = EventLog()
        result = run_sweep(
            [job(inject={"mode": "flaky", "fail_times": 1,
                         "marker_dir": str(tmp_path / "markers")})],
            options=SweepOptions(workers=0, retries=2, backoff_s=0.01),
            on_event=log,
        )
        assert terminal_kinds(result) == [("result", 2)]
        assert sum(isinstance(e, JobRetried) for e in log.events) == 1

    def test_compile_error_is_not_retried(self):
        # An impossible rate is a deterministic compile failure; retrying
        # it would only burn the budget again.
        impossible = Job.from_dict({
            "sweep": "faults",
            "app": "image_pipeline",
            "params": {"width": 16, "height": 12, "rate_hz": 1e7},
            "frames": 2,
        })
        result = run_sweep([impossible],
                           options=SweepOptions(workers=0, retries=2))
        assert terminal_kinds(result) == [("compile-error", 1)]


# ---------------------------------------------------------------------------
# The one retry policy, as a table


#: Payload by name, as ``_worker`` / ``_Flight.poll`` classify them.
PAYLOADS = {
    "ok": {"ok": True, "stats": {"meets": True}},
    "compile-error": {"ok": False, "kind": "compile-error",
                      "message": "m", "retryable": False},
    "error": {"ok": False, "kind": "error", "message": "m",
              "retryable": True},
    "crash": {"ok": False, "kind": "crash", "message": "m",
              "retryable": True},
    "timeout": {"ok": False, "kind": "timeout", "message": "m",
                "retryable": False},
    "watchdog": {"ok": False, "kind": "crash", "message": "m",
                 "retryable": True, "watchdog": True},
}

#: Expected decision (attempt below the retry budget, attempt at it).
#: ``timeout`` is keyed by ``retry_timeouts``; a crash under an armed
#: ledger holding one prior strike is quarantined whatever the budget.
DECISIONS = {
    "ok": ("result", "result"),
    "compile-error": ("fail:compile-error", "fail:compile-error"),
    "error": ("retry", "fail:error"),
    "crash": ("retry", "fail:crash"),
    "watchdog": ("retry", "fail:crash"),
    ("timeout", False): ("fail:timeout", "fail:timeout"),
    ("timeout", True): ("retry", "fail:timeout"),
}

RETRIES = 2


def describe(outcome):
    if isinstance(outcome, Retry):
        return "retry"
    if outcome["kind"] == "result":
        return "result"
    return "fail:" + outcome["failure"]["kind"]


class TestSettle:
    @pytest.mark.parametrize(
        "name, at_budget, retry_timeouts, limit",
        itertools.product(PAYLOADS, (False, True), (False, True), (0, 2)),
    )
    def test_decision_and_ledger(self, name, at_budget, retry_timeouts,
                                 limit):
        target = job()
        fingerprint = target.fingerprint
        attempt = RETRIES + 1 if at_budget else 1
        options = SweepOptions(retries=RETRIES, backoff_s=0.25,
                               backoff_max_s=1.0,
                               retry_timeouts=retry_timeouts,
                               quarantine_after=limit)
        ledger = QuarantineLedger(limit)
        ledger.record_crash(fingerprint, "earlier")  # one prior strike
        payload = PAYLOADS[name]
        crash = payload.get("kind") == "crash"

        outcome = settle(target, payload, attempt, options, ledger)

        key = (name, retry_timeouts) if name == "timeout" else name
        expected = DECISIONS[key][at_budget]
        if crash and limit:
            expected = "fail:quarantined"
        assert describe(outcome) == expected

        if expected == "retry":
            assert outcome == Retry(
                backoff_delay(attempt, 0.25, 1.0, key=fingerprint),
                f"{payload['kind']}: m",
            )
        elif expected == "result":
            assert outcome == {"kind": "result", "attempts": attempt,
                               "stats": payload["stats"]}
        else:
            assert outcome["kind"] == "failure"
            assert outcome["attempts"] == attempt
            assert outcome.get("quarantined", False) is (
                expected == "fail:quarantined")
            if expected != "fail:quarantined":
                assert outcome["failure"] == {"kind": payload["kind"],
                                              "message": "m"}

        # Ledger: only an armed ledger counts; success clears, a crash
        # adds the strike that parks, anything else leaves it alone.
        state = ledger.as_dict()
        if not limit:
            assert state == {"limit": 0, "strikes": {}, "parked": {}}
        elif name == "ok":
            assert state["strikes"] == {} and state["parked"] == {}
        elif crash:
            assert state["strikes"] == {fingerprint: 2}
            assert fingerprint in state["parked"]
        else:
            assert state["strikes"] == {fingerprint: 1}
            assert state["parked"] == {}

    def test_first_strike_of_an_armed_ledger_still_retries(self):
        outcome = settle(job(), PAYLOADS["crash"], 1,
                         SweepOptions(retries=RETRIES), QuarantineLedger(2))
        assert isinstance(outcome, Retry)

    def test_payload_that_does_not_say_is_not_retryable(self):
        outcome = settle(job(), {"ok": False}, 1,
                         SweepOptions(retries=RETRIES), QuarantineLedger())
        assert outcome["failure"] == {"kind": "error",
                                      "message": "unknown failure"}


# ---------------------------------------------------------------------------
# Two front ends, one policy


PARITY_SPEC = {
    "name": "parity",
    "app": "image_pipeline",
    "axes": {"rate_hz": [50.0, 51.0, 52.0, 53.0, 54.0]},
    "fixed": {"width": 16, "height": 12},
    "frames": 2,
}

KNOBS = dict(workers=1, retries=RETRIES, backoff_s=0.001,
             backoff_max_s=0.002, tick_s=0.001, quarantine_after=2)


def scripts_for(jobs):
    """Scripted attempt payloads per fingerprint, one path per job."""
    ok, error, crash, timeout = (
        PAYLOADS[k] for k in ("ok", "error", "crash", "timeout"))
    paths = (
        [ok],                       # first-try success
        [error, ok],                # retried, then ok
        [crash, crash],             # second strike: quarantined
        [timeout],                  # terminal, retry_timeouts off
        [error] * (RETRIES + 1),    # retry budget exhausted
    )
    return {j.fingerprint: list(path) for j, path in zip(jobs, paths)}


JOB_EVENTS = ("JobStarted", "JobRetried", "JobFinished", "JobFailed")


def by_label(events):
    out = {}
    for event in events:
        if event["event"] in JOB_EVENTS:
            out.setdefault(event["label"], []).append(
                {k: v for k, v in event.items() if k not in ("seq", "run")})
    return out


class TestFrontEndParity:
    def test_same_scripts_same_records_and_events(self, tmp_path,
                                                  monkeypatch):
        jobs = SweepSpec.from_dict(PARITY_SPEC).jobs()

        # Front end 1: run_sweep over stubbed flights.
        scripts = scripts_for(jobs)

        class StubFlight:
            def __init__(self, crew, flown, **kwargs):
                self.payload = scripts[flown.fingerprint].pop(0)
                self.waitables = ()

            def poll(self):
                return self.payload

            def close(self):
                pass

        monkeypatch.setattr("repro.explore.executor._Flight", StubFlight)
        log = EventLog()
        swept = run_sweep(jobs, options=SweepOptions(**KNOBS), on_event=log)
        assert not any(scripts.values())
        sweep_events = by_label(e.as_dict() for e in log.events)

        # Front end 2: SweepService over the stubbed run_job_isolated.
        scripts = scripts_for(jobs)
        monkeypatch.setattr(
            "repro.serve.scheduler.run_job_isolated",
            lambda flown, **kwargs: scripts[flown.fingerprint].pop(0),
        )

        async def scenario():
            service = SweepService(ServiceStorage(tmp_path / "data"),
                                   ServiceConfig(**KNOBS))
            await service.start()
            handle = await service.submit(PARITY_SPEC, tenant="t")
            events = [e async for e in service.watch(handle.plan.run_id)]
            await service.stop()
            return handle, events

        handle, envelopes = asyncio.run(scenario())
        assert not any(scripts.values())

        served = [
            {k: v for k, v in handle.records[i].items()
             if k not in ("run", "tenant")}
            for i in range(len(jobs))
        ]
        assert served == swept.records
        assert [list(r) for r in served] == [list(r) for r in swept.records]
        assert terminal_kinds(swept) == [
            ("result", 1), ("result", 2), ("quarantined", 2),
            ("timeout", 1), ("error", RETRIES + 1),
        ]
        assert by_label(envelopes) == sweep_events
        assert sum(isinstance(e, JobStarted) for e in log.events) == \
            1 + 2 + 2 + 1 + 3

    def test_service_config_declares_no_knob_of_its_own(self):
        names = [f.name for f in dataclasses.fields(ServiceConfig)]
        assert names == [f.name for f in dataclasses.fields(SweepOptions)]
        assert ServiceConfig().workers == 2
        assert ServiceConfig().quarantine_after == 3
        assert ServiceConfig(workers=0).resolved_workers() == 1
