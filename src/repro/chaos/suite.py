"""The chaos scenario matrix behind ``repro chaos``.

Each scenario boots a real ``repro serve`` instance (in a thread, on an
ephemeral port, against its own data directory under the matrix root),
arms one failure mode through a seed-deterministic
:class:`~.model.ChaosSpec`, drives it with the real
:class:`~repro.serve.client.ServiceClient`, and asserts the service's
core invariants *under* that failure:

* **exactly one** ``RunFinished`` per run, and it is the last envelope;
* envelope ``seq`` numbers are contiguous from 1 — no lost, no
  duplicated events, even observed across connection resets;
* **exactly one terminal job event** (cache hit / finished / failed)
  per job per run, and one store record to match — no lost and no
  duplicated job records;
* the cache never returns corrupt data: poisoned entries quarantine
  and recompute;
* a restart (new service, same data directory) completes only the
  un-cached remainder;
* the same ``(spec, seed)`` injects the same faults — witnessed by
  comparing decision-ledger digests across two fresh instances.

This module is deliberately *not* imported by ``repro.chaos.__init__``:
it drives the serve stack, which itself imports the chaos seams — the
lazy import (the CLI does ``import repro.chaos.suite`` at call time)
keeps the package cycle-free.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..explore.cache import ResultCache
from ..explore.events import TERMINAL_JOB_EVENTS
from ..explore.store import ResultStore
from ..serve.client import ServiceClient
from ..serve.http import run_service
from ..serve.scheduler import ServiceConfig
from .inject import ChaosInjector
from .model import ChaosSpec

__all__ = [
    "Check",
    "ScenarioOutcome",
    "MatrixReport",
    "SCENARIOS",
    "run_matrix",
]

#: The sweep every scenario drives: small enough to finish in seconds,
#: wide enough that failures and survivors coexist.  ``rate_hz=40`` is
#: the designated victim of the targeted (``match``-filtered) modes —
#: job labels render params as ``k=v``, so ``"rate_hz=40"`` selects it.
_RATES = [40.0, 50.0, 60.0, 80.0]
_VICTIM = "rate_hz=40"


def _spec(name: str) -> dict[str, Any]:
    return {
        "name": name,
        "app": "image_pipeline",
        "axes": {"rate_hz": list(_RATES)},
        "fixed": {"width": 16, "height": 12},
        "frames": 2,
        "timeout_s": 120,
    }


def _config(**overrides: Any) -> ServiceConfig:
    """Fast-feedback scheduler knobs; scenarios override per mode."""
    knobs: dict[str, Any] = dict(
        workers=2, retries=2, backoff_s=0.01, backoff_max_s=0.05,
        tick_s=0.02, quarantine_after=0,
    )
    knobs.update(overrides)
    return ServiceConfig(**knobs)


# ---------------------------------------------------------------------------
# Report plumbing


@dataclass(frozen=True, slots=True)
class Check:
    """One named assertion inside a scenario."""

    name: str
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(slots=True)
class ScenarioOutcome:
    """Everything one scenario produced, checks first."""

    name: str
    checks: list[Check] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)
    data_dir: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and all(c.ok for c in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))

    def as_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.name,
            "ok": self.ok,
            "checks": [c.as_dict() for c in self.checks],
            "details": self.details,
            "data_dir": self.data_dir,
            "error": self.error,
        }

    def describe(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        lines = [f"[{mark}] {self.name}"]
        for check in self.checks:
            tick = "+" if check.ok else "-"
            tail = f" ({check.detail})" if check.detail else ""
            lines.append(f"    {tick} {check.name}{tail}")
        if self.error:
            lines.append(f"    ! {self.error}")
        return "\n".join(lines)


@dataclass(slots=True)
class MatrixReport:
    """The whole matrix: one outcome per scenario."""

    seed: int
    outcomes: list[ScenarioOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def as_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "scenarios": [o.as_dict() for o in self.outcomes],
        }

    def describe(self) -> str:
        lines = [o.describe() for o in self.outcomes]
        verdict = "all scenarios passed" if self.ok else "FAILURES above"
        lines.append(f"chaos matrix (seed {self.seed}): {verdict}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# A live service under test


_URL_RE = re.compile(r"http://[\d.]+:\d+")


class _LiveService:
    """``run_service`` in a daemon thread, shut down through the API."""

    def __init__(self, data_dir: Path, config: ServiceConfig,
                 chaos: ChaosSpec | None = None) -> None:
        self.injector = None if chaos is None else ChaosInjector(chaos)
        self.url = ""
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=run_service,
            kwargs=dict(host="127.0.0.1", port=0, data_dir=str(data_dir),
                        config=config, announce=self._announce,
                        chaos=self.injector),
            daemon=True,
        )

    def _announce(self, line: str) -> None:
        match = _URL_RE.search(line)
        if match and not self.url:
            self.url = match.group(0)
            self._ready.set()

    def __enter__(self) -> "_LiveService":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service did not announce a URL in 30s")
        return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            ServiceClient(self.url).shutdown(drain=False)
        except Exception:  # noqa: BLE001 - already down is fine
            pass
        self._thread.join(timeout=30.0)


# ---------------------------------------------------------------------------
# Shared invariant checks


def _terminals(envelopes: list[dict[str, Any]]) -> dict[str, list[dict]]:
    by_label: dict[str, list[dict]] = {}
    for env in envelopes:
        if env.get("event") in TERMINAL_JOB_EVENTS:
            by_label.setdefault(env.get("label", "?"), []).append(env)
    return by_label


def _started_labels(envelopes: list[dict[str, Any]]) -> set[str]:
    return {env.get("label", "?") for env in envelopes
            if env.get("event") == "JobStarted"}


def _check_stream(out: ScenarioOutcome, envelopes: list[dict[str, Any]],
                  total: int, tag: str = "") -> None:
    """The PR-6 invariants, asserted on one run's envelope stream."""
    prefix = f"{tag}:" if tag else ""
    seqs = [env.get("seq") for env in envelopes]
    out.check(f"{prefix}contiguous-seq",
              seqs == list(range(1, len(seqs) + 1)),
              f"{len(seqs)} envelopes")
    finished = [env for env in envelopes
                if env.get("event") == "RunFinished"]
    out.check(f"{prefix}exactly-one-run-terminal",
              len(finished) == 1 and bool(envelopes)
              and envelopes[-1].get("event") == "RunFinished",
              finished[0].get("status", "?") if finished else "none")
    terminals = _terminals(envelopes)
    out.check(f"{prefix}one-terminal-per-job",
              len(terminals) == total
              and all(len(v) == 1 for v in terminals.values()),
              f"{len(terminals)}/{total} jobs")


def _check_store(out: ScenarioOutcome, data_dir: Path, run_id: str,
                 total: int, tag: str = "") -> None:
    """One store record per job for ``run_id`` — none lost, none doubled."""
    prefix = f"{tag}:" if tag else ""
    records = [r for r in ResultStore(data_dir / "results.jsonl")
               if r.get("run") == run_id]
    labels = [r.get("label") for r in records]
    out.check(f"{prefix}store-one-record-per-job",
              len(records) == total and len(set(labels)) == total,
              f"{len(records)} records")


def _finish(client: ServiceClient,
            spec: dict[str, Any]) -> tuple[str, list[dict[str, Any]]]:
    """Submit and follow to the terminal event; returns (run, stream)."""
    run_id = client.submit(spec)["run"]
    return run_id, list(client.watch(run_id))


# ---------------------------------------------------------------------------
# Scenarios


def _scenario_worker_crash(root: Path, seed: int) -> ScenarioOutcome:
    """Workers die mid-job; retries absorb what the budget allows, and
    every job still gets exactly one terminal record."""
    out = ScenarioOutcome("worker-crash", data_dir=str(root))
    chaos = ChaosSpec.from_dict(
        {"seed": seed, "worker": {"crash_probability": 0.6}})
    with _LiveService(root, _config(retries=5), chaos) as live:
        run_id, envelopes = _finish(ServiceClient(live.url),
                                    _spec("chaos-crash"))
        crashes = live.injector.injected("worker.crash")
    _check_stream(out, envelopes, len(_RATES))
    _check_store(out, root, run_id, len(_RATES))
    out.check("crashes-injected", crashes > 0, f"{crashes} crash(es)")
    out.details.update(run=run_id, crashes=crashes)
    return out


def _scenario_worker_hang(root: Path, seed: int) -> ScenarioOutcome:
    """One job's workers wedge (no heartbeat); the watchdog reaps them
    within the heartbeat window instead of the 120s job timeout, and the
    other jobs keep flowing."""
    out = ScenarioOutcome("worker-hang", data_dir=str(root))
    chaos = ChaosSpec.from_dict({
        "seed": seed,
        "worker": {"hang_probability": 1.0, "match": _VICTIM},
    })
    config = _config(retries=1, heartbeat_s=0.5)
    started = time.monotonic()
    with _LiveService(root, config, chaos) as live:
        run_id, envelopes = _finish(ServiceClient(live.url),
                                    _spec("chaos-hang"))
    elapsed = time.monotonic() - started
    _check_stream(out, envelopes, len(_RATES))
    _check_store(out, root, run_id, len(_RATES))
    victims = [env for label, envs in _terminals(envelopes).items()
               if _VICTIM in label for env in envs]
    out.check("victim-reaped-by-watchdog",
              len(victims) == 1 and victims[0]["event"] == "JobFailed"
              and "watchdog" in victims[0].get("message", ""),
              victims[0].get("message", "?") if victims else "none")
    survivors = [env for label, envs in _terminals(envelopes).items()
                 if _VICTIM not in label for env in envs]
    out.check("other-jobs-unstalled",
              all(env["event"] == "JobFinished" for env in survivors),
              f"{len(survivors)} survivor(s)")
    out.check("reaped-within-heartbeat-windows", elapsed < 60.0,
              f"{elapsed:.1f}s wall clock")
    out.details.update(run=run_id, elapsed_s=round(elapsed, 2))
    return out


def _scenario_worker_slow(root: Path, seed: int) -> ScenarioOutcome:
    """Every worker is slowed; nothing fails, nothing is duplicated."""
    out = ScenarioOutcome("worker-slow", data_dir=str(root))
    chaos = ChaosSpec.from_dict({
        "seed": seed,
        "worker": {"slow_probability": 1.0, "slow_s": 0.2},
    })
    with _LiveService(root, _config(), chaos) as live:
        run_id, envelopes = _finish(ServiceClient(live.url),
                                    _spec("chaos-slow"))
        slowed = live.injector.injected("worker.slow")
    _check_stream(out, envelopes, len(_RATES))
    _check_store(out, root, run_id, len(_RATES))
    finished = [env for env in envelopes
                if env.get("event") == "RunFinished"]
    out.check("run-succeeded-despite-slowdown",
              bool(finished) and finished[0].get("status") == "succeeded",
              finished[0].get("status", "?") if finished else "none")
    out.check("slowdowns-injected", slowed == len(_RATES),
              f"{slowed} slowdown(s)")
    out.details.update(run=run_id, slowed=slowed)
    return out


def _scenario_cache_corrupt(root: Path, seed: int) -> ScenarioOutcome:
    """Every cache write is corrupted; reads detect it (checksum or
    parse), quarantine the entry, and recompute — corrupt data is never
    served and never crashes the scheduler."""
    out = ScenarioOutcome("cache-corrupt", data_dir=str(root))
    chaos = ChaosSpec.from_dict({
        "seed": seed,
        "storage": {"cache_corrupt_probability": 1.0},
    })
    with _LiveService(root, _config(), chaos) as live:
        client = ServiceClient(live.url)
        run1, stream1 = _finish(client, _spec("chaos-cache"))
        run2, stream2 = _finish(client, _spec("chaos-cache"))
    _check_stream(out, stream1, len(_RATES), tag="run1")
    _check_stream(out, stream2, len(_RATES), tag="run2")
    finished2 = [env for env in stream2
                 if env.get("event") == "RunFinished"][-1]
    out.check("corrupt-entries-never-served",
              finished2.get("cache_hits") == 0
              and finished2.get("status") == "succeeded",
              f"{finished2.get('cache_hits')} cache hit(s)")
    out.check("rerun-recomputed-every-job",
              len(_started_labels(stream2)) == len(_RATES))
    quarantined = ResultCache(root / "cache").quarantined()
    out.check("corrupt-entries-quarantined", len(quarantined) > 0,
              f"{len(quarantined)} parked entr(ies)")
    out.details.update(run1=run1, run2=run2,
                       quarantined=len(quarantined))
    return out


def _scenario_store_torn(root: Path, seed: int) -> ScenarioOutcome:
    """Appends lose their tails (crash-mid-append); the store stays
    parseable, survivors are intact, and the next clean append repairs
    the torn tail instead of being glued onto it."""
    out = ScenarioOutcome("store-torn", data_dir=str(root))
    chaos = ChaosSpec.from_dict({
        "seed": seed,
        "storage": {"store_torn_write_probability": 0.7},
    })
    with _LiveService(root, _config(), chaos) as live:
        run_id, envelopes = _finish(ServiceClient(live.url),
                                    _spec("chaos-store"))
        torn = live.injector.injected("store.torn")
    _check_stream(out, envelopes, len(_RATES))
    store = ResultStore(root / "results.jsonl")
    records = store.load()  # must not raise, whatever the disk holds
    out.check("store-still-parses",
              all(r.get("run") == run_id for r in records),
              f"{len(records)} surviving record(s), {torn} torn")
    out.check("survivors-count-consistent",
              len(records) == len(_RATES) - torn,
              f"{len(_RATES)} appended - {torn} torn")
    # A clean writer appending after the crash must not lose its line
    # to the torn tail (the gluing bug this PR fixes).
    sentinel = {"fingerprint": "sentinel", "kind": "result",
                "run": "sentinel-run"}
    ResultStore(root / "results.jsonl").append(sentinel)
    reread = ResultStore(root / "results.jsonl").load()
    out.check("clean-append-after-tear-survives",
              any(r.get("run") == "sentinel-run" for r in reread)
              and len(reread) == len(records) + 1,
              f"{len(reread)} record(s) after repair append")
    out.details.update(run=run_id, torn=torn, survivors=len(records))
    return out


def _scenario_connection_reset(root: Path, seed: int) -> ScenarioOutcome:
    """The network misbehaves: GETs are reset and event streams cut
    mid-run.  ``ServiceClient.watch`` reconnects on the ``?since=``
    cursor and still observes every envelope exactly once, in order."""
    out = ScenarioOutcome("connection-reset", data_dir=str(root))
    chaos = ChaosSpec.from_dict({
        "seed": seed,
        "http": {"reset_probability": 0.2,
                 "stream_break_probability": 0.35},
    })
    with _LiveService(root, _config(), chaos) as live:
        client = ServiceClient(live.url, retries=5, reconnects=16)
        run_id, envelopes = _finish(client, _spec("chaos-reset"))
        broken = live.injector.injected("http.")
    _check_stream(out, envelopes, len(_RATES))
    out.check("disruptions-injected", broken > 0,
              f"{broken} reset(s)/break(s)")
    out.details.update(run=run_id, disruptions=broken)
    return out


def _scenario_quarantine(root: Path, seed: int) -> ScenarioOutcome:
    """One poison job crash-loops; after the crash budget it is parked
    with a terminal ``quarantined`` record, the rest of the run
    completes, and a resubmission never executes it again."""
    out = ScenarioOutcome("quarantine", data_dir=str(root))
    chaos = ChaosSpec.from_dict({
        "seed": seed,
        "worker": {"crash_probability": 1.0, "match": _VICTIM},
    })
    config = _config(retries=5, quarantine_after=2)
    with _LiveService(root, config, chaos) as live:
        client = ServiceClient(live.url)
        run1, stream1 = _finish(client, _spec("chaos-quarantine"))
        run2, stream2 = _finish(client, _spec("chaos-quarantine"))
    _check_stream(out, stream1, len(_RATES), tag="run1")
    _check_stream(out, stream2, len(_RATES), tag="run2")
    victims1 = [env for label, envs in _terminals(stream1).items()
                if _VICTIM in label for env in envs]
    out.check("poison-job-quarantined",
              len(victims1) == 1
              and victims1[0].get("kind") == "quarantined"
              and victims1[0].get("attempts") == 2,
              victims1[0].get("message", "?") if victims1 else "none")
    survivors1 = [env for label, envs in _terminals(stream1).items()
                  if _VICTIM not in label for env in envs]
    out.check("rest-of-run-completed",
              all(env["event"] == "JobFinished" for env in survivors1),
              f"{len(survivors1)} survivor(s)")
    started2 = _started_labels(stream2)
    victims2 = [env for label, envs in _terminals(stream2).items()
                if _VICTIM in label for env in envs]
    out.check("parked-job-never-reexecuted",
              all(_VICTIM not in label for label in started2)
              and len(victims2) == 1
              and victims2[0].get("kind") == "quarantined"
              and victims2[0].get("attempts") == 0,
              f"{len(started2)} job(s) started in run2")
    out.details.update(run1=run1, run2=run2)
    return out


def _scenario_restart_resume(root: Path, seed: int) -> ScenarioOutcome:
    """Kill a chaos-stricken service, restart clean on the same data
    directory, resubmit: completed work rides the cache, only the
    failed remainder executes."""
    out = ScenarioOutcome("restart-resume", data_dir=str(root))
    chaos = ChaosSpec.from_dict(
        {"seed": seed, "worker": {"crash_probability": 0.75}})
    with _LiveService(root, _config(retries=0), chaos) as live:
        run1, stream1 = _finish(ServiceClient(live.url),
                                _spec("chaos-restart"))
    _check_stream(out, stream1, len(_RATES), tag="run1")
    finished1 = [env for env in stream1
                 if env.get("event") == "RunFinished"][-1]
    failed_labels = {label for label, envs in _terminals(stream1).items()
                     if envs[0]["event"] == "JobFailed"}
    # Second life: same data dir, chaos disarmed — a clean restart.
    with _LiveService(root, _config()) as live2:
        run2, stream2 = _finish(ServiceClient(live2.url),
                                _spec("chaos-restart"))
    _check_stream(out, stream2, len(_RATES), tag="run2")
    finished2 = [env for env in stream2
                 if env.get("event") == "RunFinished"][-1]
    out.check("restart-run-succeeded",
              finished2.get("status") == "succeeded",
              finished2.get("status", "?"))
    out.check("completed-work-rides-the-cache",
              finished2.get("cache_hits") == finished1.get("succeeded"),
              f"{finished2.get('cache_hits')} hit(s) vs "
              f"{finished1.get('succeeded')} prior success(es)")
    out.check("only-remainder-executed",
              _started_labels(stream2) == failed_labels,
              f"{len(failed_labels)} job(s) re-run")
    out.details.update(run1=run1, run2=run2,
                       first_failed=sorted(failed_labels))
    return out


def _scenario_reproducible(root: Path, seed: int) -> ScenarioOutcome:
    """The headline determinism claim: two fresh instances under the
    same ``(spec, seed)`` draw bit-identical injection decisions and
    reach the same terminal outcome per job."""
    out = ScenarioOutcome("reproducible", data_dir=str(root))
    chaos_dict = {"seed": seed, "worker": {"crash_probability": 0.55}}

    def one_life(sub: str) -> tuple[str, dict[str, str]]:
        with _LiveService(root / sub, _config(),
                          ChaosSpec.from_dict(chaos_dict)) as live:
            _, stream = _finish(ServiceClient(live.url),
                                _spec("chaos-repro"))
            digest = live.injector.ledger_digest()
        outcome = {label: envs[0]["event"]
                   for label, envs in _terminals(stream).items()}
        return digest, outcome

    digest_a, outcome_a = one_life("a")
    digest_b, outcome_b = one_life("b")
    out.check("identical-decision-ledgers", digest_a == digest_b,
              digest_a[:16])
    out.check("identical-terminal-outcomes", outcome_a == outcome_b,
              f"{len(outcome_a)} job(s) compared")
    out.details.update(digest=digest_a, outcomes=outcome_a)
    return out


SCENARIOS: dict[str, Callable[[Path, int], ScenarioOutcome]] = {
    "worker-crash": _scenario_worker_crash,
    "worker-hang": _scenario_worker_hang,
    "worker-slow": _scenario_worker_slow,
    "cache-corrupt": _scenario_cache_corrupt,
    "store-torn": _scenario_store_torn,
    "connection-reset": _scenario_connection_reset,
    "quarantine": _scenario_quarantine,
    "restart-resume": _scenario_restart_resume,
    "reproducible": _scenario_reproducible,
}


def run_matrix(root: str | Path, *, seed: int = 0,
               names: list[str] | None = None,
               announce: Callable[[str], None] | None = None,
               ) -> MatrixReport:
    """Run the scenario matrix; each scenario gets ``root/<name>``.

    ``names`` selects a subset (unknown names raise ``ValueError`` so a
    typo cannot silently pass CI by running nothing).  Scenario crashes
    are caught into the outcome — one broken scenario must not hide the
    verdicts of the rest.
    """
    root = Path(root)
    selected = list(SCENARIOS) if names is None else list(names)
    unknown = [n for n in selected if n not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown chaos scenario(s) {unknown}; "
            f"known: {', '.join(SCENARIOS)}"
        )
    report = MatrixReport(seed=seed)
    for name in selected:
        if announce is not None:
            announce(f"repro chaos: scenario {name} (seed {seed})")
        try:
            outcome = SCENARIOS[name](root / name, seed)
        except Exception as exc:  # noqa: BLE001 - isolate scenarios
            outcome = ScenarioOutcome(name, data_dir=str(root / name),
                                      error=f"{type(exc).__name__}: {exc}")
        report.outcomes.append(outcome)
        if announce is not None:
            announce(outcome.describe())
    return report


def write_report(report: MatrixReport, path: str | Path) -> None:
    """Persist the matrix verdict as JSON (the CI artifact)."""
    Path(path).write_text(
        json.dumps(report.as_dict(), indent=2, default=str) + "\n",
        encoding="utf-8",
    )
