"""Fold the typed event stream and terminal records into snapshots.

:class:`MetricsAggregator` is a **pure consumer** with two inlets, both
mirroring seams that already exist:

* :meth:`envelope` — one wire envelope (``{"seq", "run", **event}``),
  exactly what :meth:`RunHandle.emit` appends to the per-run NDJSON
  event log.  Live, the aggregator is handed to
  :class:`~repro.serve.scheduler.SweepService` as its ``observer`` and
  sees each envelope right after it is persisted; offline,
  :meth:`from_data_dir` replays the same logs from disk.
* :meth:`record` — one terminal job record, exactly what lands in
  ``results.jsonl``.  Live it arrives from ``RunHandle.finish_job`` (the
  one-terminal-record-per-job narrowest point, in store-append order);
  offline it is read back from the store.

Counting rules match :class:`RunHandle` accounting bit for bit: a cache
hit is a success *and* a cache hit, a ``cancelled`` failure is counted
apart from other failures, and a ``quarantined`` failure counts as both
quarantined and failed.  ``RunFinished`` carries the authoritative final
counters and overwrites the incremental tallies, so a log truncated of
intermediate events still folds to the right terminal state.

Nothing in the fold reads a clock — see :mod:`.snapshot` — which is
what makes the live-terminal and offline-replay snapshots identical
(the acceptance test compares their canonical JSON).  The live snapshot
covers the current service lifetime; an offline fold covers everything
the data dir remembers, including previous lives.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from ..explore.events import TERMINAL_JOB_EVENTS
from .snapshot import DashSnapshot

__all__ = ["MetricsAggregator", "telemetry_drilldown"]


def _fresh_run(run_id: str) -> dict[str, Any]:
    return {
        "run": run_id,
        "name": "",
        "tenant": "",
        "priority": 0,
        "total": 0,
        "state": "unknown",
        "status": None,
        "done": 0,
        "succeeded": 0,
        "failed": 0,
        "cancelled": 0,
        "cache_hits": 0,
        "quarantined": 0,
        "retries": 0,
        "last_seq": 0,
        "elapsed_s": None,
        "jobs": {},
        "drilldown": [],
    }


def _reduce_record(record: dict[str, Any]) -> dict[str, Any]:
    """The deterministic subset of a terminal record the snapshot needs.

    Reducing on *both* inlets (live record dicts carry no ``schema``
    key; store lines do) normalizes away every transport difference, so
    the same record folds identically wherever it came from.
    """
    stats = record.get("stats") or {}
    reduced: dict[str, Any] = {
        "kind": record.get("kind", ""),
        "label": record.get("label", ""),
        "run": record.get("run", ""),
        "job": {"app": (record.get("job") or {}).get("app", "?")},
        "stats": {
            "meets": bool(stats.get("meets")),
            "rate_hz": stats.get("rate_hz") or 0.0,
            "processor_count": int(stats.get("processor_count") or 0),
            "avg_utilization": float(stats.get("avg_utilization") or 0.0),
        },
    }
    if record.get("cache_hit"):
        reduced["cache_hit"] = True
    if record.get("chaos"):
        reduced["chaos"] = True
    return reduced


def _drill_row(record: dict[str, Any]) -> dict[str, Any]:
    """One per-run drill-down row: the job's result axes plus whatever
    :mod:`repro.obs`/NoC accounting rode along on its record."""
    row: dict[str, Any] = {
        "label": record.get("label", ""),
        "kind": record.get("kind", ""),
        "cache_hit": bool(record.get("cache_hit")),
    }
    if record.get("kind") == "result":
        stats = record.get("stats") or {}
        row.update(
            processor_count=int(stats.get("processor_count") or 0),
            rate_hz=stats.get("rate_hz") or 0.0,
            meets=bool(stats.get("meets")),
            avg_utilization=float(stats.get("avg_utilization") or 0.0),
            makespan_s=stats.get("makespan_s"),
        )
        telemetry = stats.get("telemetry")
        if isinstance(telemetry, dict):
            row["critical_path"] = telemetry.get("critical_path")
        noc = stats.get("noc")
        if isinstance(noc, dict):
            row["noc"] = {
                "placement": noc.get("placement", ""),
                "mean_link_utilization": noc.get(
                    "mean_link_utilization", 0.0
                ),
                "worst_link": noc.get("worst_link"),
            }
    else:
        failure = record.get("failure") or {}
        row["failure"] = {
            "kind": failure.get("kind", "?"),
            "message": failure.get("message", ""),
        }
    return row


class MetricsAggregator:
    """Deterministic fold of envelopes + records into a snapshot.

    The two fold methods match the observer protocol the scheduler's
    ``observer`` seam calls (``envelope(dict)``, ``record(dict)``); the
    whole class is also usable offline via :meth:`from_data_dir`.  All
    live calls happen on the service's single event-loop thread, so no
    locking is needed; :meth:`snapshot` builds fresh dicts and may be
    called from the HTTP handler at any point between folds.
    """

    def __init__(self) -> None:
        self._runs: dict[str, dict[str, Any]] = {}
        #: Reduced terminal records, in store-append order.
        self._records: list[dict[str, Any]] = []

    # -- the two inlets ------------------------------------------------

    def envelope(self, envelope: dict[str, Any]) -> None:
        """Fold one wire envelope; duplicate/stale seqs are ignored."""
        run_id = str(envelope.get("run") or "")
        if not run_id:
            return
        entry = self._runs.setdefault(run_id, _fresh_run(run_id))
        try:
            seq = int(envelope.get("seq", 0))
        except (TypeError, ValueError):
            return
        if seq <= entry["last_seq"]:
            return  # replayed overlap (e.g. a reconnecting watch)
        entry["last_seq"] = seq
        name = envelope.get("event")
        label = envelope.get("label", "")
        if name in TERMINAL_JOB_EVENTS:
            entry["done"] += 1
        if name == "RunAccepted":
            entry["name"] = envelope.get("label", entry["name"])
            entry["total"] = int(envelope.get("total") or 0)
            entry["tenant"] = envelope.get("tenant", "")
            entry["priority"] = int(envelope.get("priority") or 0)
            entry["state"] = "accepted"
        elif name == "RunStateChanged":
            entry["state"] = envelope.get("state", entry["state"])
        elif name == "JobScheduled":
            entry["jobs"][label] = "queued"
        elif name == "JobStarted":
            entry["jobs"][label] = "running"
        elif name == "JobRetried":
            entry["retries"] += 1
            entry["jobs"][label] = "retrying"
        elif name == "JobCacheHit":
            entry["jobs"][label] = "cached"
            entry["succeeded"] += 1
            entry["cache_hits"] += 1
        elif name == "JobFinished":
            entry["jobs"][label] = "done"
            entry["succeeded"] += 1
        elif name == "JobFailed":
            kind = envelope.get("kind", "error")
            if kind == "cancelled":
                entry["jobs"][label] = "cancelled"
                entry["cancelled"] += 1
            elif kind == "quarantined":
                entry["jobs"][label] = "quarantined"
                entry["quarantined"] += 1
                entry["failed"] += 1
            else:
                entry["jobs"][label] = "failed"
                entry["failed"] += 1
        elif name == "RunFinished":
            # Authoritative terminal counters overwrite the tallies.
            entry["state"] = "terminal"
            entry["status"] = envelope.get("status")
            entry["total"] = int(envelope.get("total") or entry["total"])
            entry["succeeded"] = int(envelope.get("succeeded") or 0)
            entry["failed"] = int(envelope.get("failed") or 0)
            entry["cancelled"] = int(envelope.get("cancelled") or 0)
            entry["cache_hits"] = int(envelope.get("cache_hits") or 0)
            entry["done"] = (entry["succeeded"] + entry["failed"]
                             + entry["cancelled"])
            elapsed = envelope.get("elapsed_s")
            entry["elapsed_s"] = (float(elapsed)
                                  if elapsed is not None else None)
        # Unknown event types still advanced last_seq: forward compat.

    def record(self, record: dict[str, Any]) -> None:
        """Fold one terminal job record (store line or live dict)."""
        self._records.append(_reduce_record(record))
        run_id = str(record.get("run") or "")
        if run_id:
            # Cache-hit records keep the run id of the execution that
            # produced them, so a hit served across runs drills down
            # under the primary — the run whose worker did the work.
            entry = self._runs.setdefault(run_id, _fresh_run(run_id))
            entry["drilldown"].append(_drill_row(record))

    # -- offline construction ------------------------------------------

    @classmethod
    def from_data_dir(cls, data_dir: str | os.PathLike[str],
                      ) -> "MetricsAggregator":
        """Replay a service data dir: every per-run NDJSON event log,
        then the result store, through the same two inlets.

        Reads only — the :class:`~repro.serve.storage.ServiceStorage`
        layout without its constructor, which creates the layout: a
        missing dir folds to an empty snapshot and stays missing.
        """
        from ..explore.store import ResultStore, read_jsonl

        root = Path(data_dir)
        aggregator = cls()
        if not root.is_dir():  # ResultStore() would create it
            return aggregator
        for path in sorted((root / "events").glob("*.ndjson")):
            for envelope in read_jsonl(path):
                aggregator.envelope(envelope)
        for record in ResultStore(root / "results.jsonl"):
            aggregator.record(record)
        return aggregator

    # -- products ------------------------------------------------------

    def snapshot(self) -> DashSnapshot:
        from ..explore.store import SweepReport

        runs = []
        totals = {
            "runs": len(self._runs),
            "active": 0,
            "jobs": 0,
            "done": 0,
            "succeeded": 0,
            "failed": 0,
            "cancelled": 0,
            "cache_hits": 0,
            "quarantined": 0,
            "retries": 0,
            "events": 0,
        }
        for run_id in sorted(self._runs):
            entry = self._runs[run_id]
            view = {**entry, "jobs": dict(entry["jobs"]),
                    "drilldown": list(entry["drilldown"])}
            elapsed = entry["elapsed_s"]
            if elapsed is not None and elapsed > 0:
                view["jobs_per_s"] = entry["done"] / elapsed
                view["events_per_s"] = entry["last_seq"] / elapsed
            else:
                view["jobs_per_s"] = None
                view["events_per_s"] = None
            runs.append(view)
            if entry["state"] not in ("terminal", "unknown"):
                totals["active"] += 1
            totals["jobs"] += entry["total"]
            for key in ("done", "succeeded", "failed", "cancelled",
                        "cache_hits", "quarantined", "retries"):
                totals[key] += entry[key]
            totals["events"] += entry["last_seq"]
        totals["cache_hit_ratio"] = (
            totals["cache_hits"] / totals["done"]
            if totals["done"] > 0 else None
        )
        report = SweepReport(records=self._records)
        totals["records"] = {
            "total": len(self._records),
            "results": len(report.results),
            "failures": len(report.failures),
            "cache_hits": report.cache_hits,
            "chaos": sum(1 for r in self._records if r.get("chaos")),
        }
        return DashSnapshot(
            runs=runs,
            totals=totals,
            frontier=report.frontier(),
            utilization_by_processors=report.utilization_by_processors(),
        )

    def progress(self, run_id: str) -> dict[str, Any] | None:
        """Progress counters of one run — the ``repro watch`` fold."""
        entry = self._runs.get(run_id)
        if entry is None:
            return None
        total = entry["total"]
        done = entry["done"]
        return {
            "done": done,
            "total": total,
            "pct": (100.0 * done / total) if total > 0 else 0.0,
            "elapsed_s": entry["elapsed_s"],
        }

    def progress_line(self, run_id: str, *,
                      elapsed_s: float | None = None) -> str | None:
        """Human progress line: ``[done/total jobs, pct, jobs/s]``.

        The rate uses the run's own terminal ``elapsed_s`` when it has
        one (deterministic, travels in the event stream) and the
        caller-supplied wall-clock ``elapsed_s`` while the run is still
        live; with neither, the rate is omitted.
        """
        progress = self.progress(run_id)
        if progress is None:
            return None
        elapsed = progress["elapsed_s"]
        if elapsed is None:
            elapsed = elapsed_s
        head = (f"[{progress['done']}/{progress['total']} jobs, "
                f"{progress['pct']:.0f}%")
        if elapsed is not None and elapsed > 0:
            return f"{head}, {progress['done'] / elapsed:.2f} jobs/s]"
        return f"{head}]"


def telemetry_drilldown(telemetry: Any) -> dict[str, Any]:
    """Per-run drill-down views from one simulation's full telemetry.

    Composes the :mod:`repro.obs` surfaces into the three panels the
    dashboard's deep view draws: structured timeline rows (who ran when,
    per processing element), the reconstructed critical path with its
    full segment list, and the NoC link heatmap (per-link busy seconds
    and utilization from the link-occupancy intervals the NoC model
    reported).  Pure function of the telemetry — identical telemetry
    yields identical JSON.
    """
    from ..obs import analyze_critical_path, timeline_rows

    path = analyze_critical_path(telemetry)
    makespan = telemetry.makespan_s
    busy_by_link: dict[str, float] = {}
    for label, start, end in telemetry.link_occupancy:
        busy_by_link[label] = busy_by_link.get(label, 0.0) + (end - start)
    links = [
        {
            "link": label,
            "busy_s": busy,
            "utilization": busy / makespan if makespan > 0 else 0.0,
        }
        for label, busy in sorted(busy_by_link.items())
    ]
    return {
        "makespan_s": makespan,
        "timeline": timeline_rows(telemetry),
        "critical_path": {
            **path.as_dict(),
            "segments": path.segments_as_dicts(),
        },
        "noc_links": links,
    }
