"""On-disk layout of a service data directory.

::

    <data_dir>/
      cache/               # sharded content-addressed result cache,
                           #   shared by every tenant and every restart
      results.jsonl        # append-only JSONL store of terminal records
      runs.jsonl           # run registry: one line per admission and
                           #   one per terminal status (restart history)
      events/<run>.ndjson  # full event stream of each run, replayable

The cache and store are the *same* classes the one-shot ``repro
explore`` path uses — which is the whole resumability story: a service
restart loses only in-memory state, and resubmitting a spec finds every
completed job's fingerprint already cached and executes just the
remainder.  Nothing here is service-private magic.

All three line files go through :func:`~repro.explore.store.append_jsonl`
and :func:`~repro.explore.store.read_jsonl`: an append closes a torn tail
before writing, a read skips torn lines, so a service killed mid-write
loses that one line and nothing written after the restart.

The optional ``chaos`` injector (see :mod:`repro.chaos`) is threaded
through to both: the cache then corrupts or truncates entries at write
time and the store tears appends, exercising exactly the recovery paths
(checksum quarantine, torn-tail repair) that real disk failures need.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from ..explore.cache import ResultCache
from ..explore.store import ResultStore, append_jsonl, read_jsonl

__all__ = ["ServiceStorage"]


class ServiceStorage:
    """All durable state of one service instance."""

    def __init__(self, root: str | os.PathLike[str], *,
                 chaos: Any | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.root / "cache", chaos=chaos)
        self.store = ResultStore(self.root / "results.jsonl", chaos=chaos)
        self.runs_path = self.root / "runs.jsonl"
        self.events_dir = self.root / "events"
        self.events_dir.mkdir(exist_ok=True)

    # -- per-run event logs --------------------------------------------

    def event_log_path(self, run_id: str) -> Path:
        return self.events_dir / f"{run_id}.ndjson"

    def append_event(self, run_id: str, envelope: dict[str, Any]) -> None:
        append_jsonl(self.event_log_path(run_id), envelope)

    # -- the run registry ----------------------------------------------

    def register(self, entry: dict[str, Any]) -> None:
        """Append one registry line (admission or terminal status)."""
        append_jsonl(self.runs_path, entry)

    def registry(self) -> list[dict[str, Any]]:
        """Latest registry entry per run id, admission order preserved."""
        latest: dict[str, dict[str, Any]] = {}
        for entry in read_jsonl(self.runs_path):
            run_id = entry.get("run")
            if isinstance(run_id, str) and run_id:
                latest[run_id] = {**latest.get(run_id, {}), **entry}
        return list(latest.values())

    # -- maintenance ---------------------------------------------------

    def compact(self) -> dict[str, int]:
        """Bound long-lived state: drop superseded store records and
        migrate any pre-sharding flat cache entries into their shards."""
        stats = self.store.compact()
        stats["cache_migrated"] = self.cache.migrate_flat_entries()
        return stats
