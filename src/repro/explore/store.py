"""Append-only JSONL result store and sweep-level aggregation.

Every terminal job record — result or failure — appends one line to a
JSONL file with a schema version, so a sweep's history survives crashes
mid-run (lines already written stay valid) and heterogeneous sweeps can
share one store.  ``load`` tolerates truncated final lines (the one
partial write a crash can produce) and skips foreign-schema lines rather
than failing.

Crash-mid-append is handled on *both* sides of the file.  Reading, a
torn tail is skipped.  Writing, ``append`` first checks that the file
ends in a newline and repairs it if not — without this, the first
record written after a crash would be glued onto the torn tail and
*both* lines would be lost, silently shrinking the resume index
(``completed_records``) and re-running work ``--resume`` should have
skipped.  ``compact`` then drops the torn bytes for good while keeping
every valid record.

The optional ``chaos`` injector (see :mod:`repro.chaos`) simulates
exactly that crash: a torn append writes only a prefix of the line with
no newline.  ``chaos=None`` (the default) takes none of these branches.

Aggregation turns raw records into the paper's design-space axes:
the best-rate frontier per processor count (Figure 11's rate/processor
trade-off) and utilization versus processor count (Figure 13's bars).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "STORE_SCHEMA",
    "append_jsonl",
    "read_jsonl",
    "ResultStore",
    "SweepReport",
    "aggregate",
    "completed_records",
]

STORE_SCHEMA = 1


def append_jsonl(path: str | os.PathLike[str], obj: Any, *,
                 tear: bool = False) -> None:
    """Append ``obj`` as one JSON line, closing a torn tail first.

    A file that ends mid-line (a crashed writer's partial append) gets
    its newline before the new line, so the new line is not glued onto
    the torn one and lost with it — see the module docstring.  ``tear``
    is the chaos injector's crash-mid-append: only a prefix of the line
    is written, and no newline.
    """
    data = (json.dumps(obj, default=str) + "\n").encode("utf-8")
    if tear:
        data = data[: max(1, len(data) // 2)]
    try:
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            torn = fh.read(1) != b"\n"
    except (OSError, ValueError):
        torn = False  # missing or empty: nothing to repair
    with open(path, "ab") as fh:
        if torn:
            fh.write(b"\n")
        fh.write(data)
        fh.flush()


def read_jsonl(path: str | os.PathLike[str]) -> Iterator[Any]:
    """Every line of ``path`` that parses as JSON, in file order; blank
    and torn lines are skipped and a missing file reads as empty."""
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line from a crashed writer


class ResultStore:
    """An append-only JSONL file of terminal job records."""

    def __init__(self, path: str | os.PathLike[str], *,
                 chaos: Any | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._chaos = chaos

    def append(self, record: dict[str, Any]) -> None:
        append_jsonl(
            self.path, {"schema": STORE_SCHEMA, **record},
            tear=self._chaos is not None and self._chaos.tear_store_line(
                str(record.get("fingerprint", ""))),
        )

    def compact(self, *, rotate_to: str | os.PathLike[str] | None = None,
                ) -> dict[str, int]:
        """Drop superseded records so a long-lived store stays bounded.

        A record is superseded when a *later* line carries the same
        fingerprint: re-running a sweep point appends a fresh terminal
        record each time, and only the newest one matters to resume
        logic and reports.  Records without a fingerprint (foreign or
        hand-written lines that passed the schema check) are kept
        verbatim.  The survivors keep their relative order; the rewrite
        is atomic (temp file + ``os.replace``), so a crash mid-compact
        leaves the original store intact.

        ``rotate_to`` additionally moves the *pre-compaction* file to
        that path first (rotation for audit trails), compacting into a
        fresh file at :attr:`path`.

        Returns ``{"kept": n, "dropped": m}``.
        """
        records = self.load()
        newest: dict[str, int] = {}
        for index, record in enumerate(records):
            fingerprint = record.get("fingerprint")
            if isinstance(fingerprint, str) and fingerprint:
                newest[fingerprint] = index
        survivors = [
            record for index, record in enumerate(records)
            if not isinstance(record.get("fingerprint"), str)
            or not record.get("fingerprint")
            or newest[record["fingerprint"]] == index
        ]
        if rotate_to is not None and self.path.exists():
            rotated = Path(rotate_to)
            rotated.parent.mkdir(parents=True, exist_ok=True)
            os.replace(self.path, rotated)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for record in survivors:
                    fh.write(json.dumps(record, default=str) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return {"kept": len(survivors),
                "dropped": len(records) - len(survivors)}

    def __iter__(self) -> Iterator[dict[str, Any]]:
        for record in read_jsonl(self.path):
            if (isinstance(record, dict)
                    and record.get("schema") == STORE_SCHEMA):
                yield record

    def load(self) -> list[dict[str, Any]]:
        return list(self)


@dataclass(slots=True)
class SweepReport:
    """Aggregate view over terminal records (possibly several sweeps)."""

    records: list[dict[str, Any]] = field(default_factory=list)

    @property
    def results(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r.get("kind") == "result"]

    @property
    def failures(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r.get("kind") == "failure"]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.get("cache_hit"))

    def frontier(self) -> list[dict[str, Any]]:
        """Best achieved rate per (app, processor count), meeting points
        only — the Figure 11 axes.  Sorted by app then processor count."""
        best: dict[tuple[str, int], dict[str, Any]] = {}
        for rec in self.results:
            stats = rec.get("stats", {})
            if not stats.get("meets"):
                continue
            rate = stats.get("rate_hz") or 0.0
            key = (rec.get("job", {}).get("app", "?"),
                   int(stats.get("processor_count", 0)))
            if key not in best or rate > best[key]["rate_hz"]:
                best[key] = {
                    "app": key[0],
                    "processor_count": key[1],
                    "rate_hz": rate,
                    "label": rec.get("label", ""),
                }
        return sorted(best.values(),
                      key=lambda r: (r["app"], r["processor_count"]))

    def utilization_by_processors(self) -> list[dict[str, Any]]:
        """Mean utilization grouped by processor count — Figure 13's
        x-axis.  Includes missing points so under-provisioned regions of
        the space stay visible."""
        groups: dict[int, list[float]] = {}
        for rec in self.results:
            stats = rec.get("stats", {})
            count = int(stats.get("processor_count", 0))
            groups.setdefault(count, []).append(
                float(stats.get("avg_utilization", 0.0))
            )
        return [
            {
                "processor_count": count,
                "mean_utilization": sum(vals) / len(vals),
                "points": len(vals),
            }
            for count, vals in sorted(groups.items())
        ]

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": STORE_SCHEMA,
            "total": len(self.records),
            "succeeded": len(self.results),
            "failed": len(self.failures),
            "cache_hits": self.cache_hits,
            "frontier": self.frontier(),
            "utilization_by_processors": self.utilization_by_processors(),
            "failures": [
                {
                    "label": r.get("label", ""),
                    "kind": r.get("failure", {}).get("kind", "?"),
                    "message": r.get("failure", {}).get("message", ""),
                }
                for r in self.failures
            ],
        }

    def describe(self) -> str:
        lines = [
            f"{len(self.records)} records: {len(self.results)} ok, "
            f"{len(self.failures)} failed, {self.cache_hits} from cache"
        ]
        frontier = self.frontier()
        if frontier:
            lines.append("best-rate frontier (meets real-time):")
            for row in frontier:
                lines.append(
                    f"  {row['app']:>16} | {row['processor_count']:3d} PEs "
                    f"| {row['rate_hz']:8.1f} Hz"
                )
        util = self.utilization_by_processors()
        if util:
            lines.append("utilization vs processor count:")
            for row in util:
                lines.append(
                    f"  {row['processor_count']:3d} PEs | "
                    f"{row['mean_utilization']:6.1%} mean over "
                    f"{row['points']} point(s)"
                )
        for row in self.failures:
            fail = row.get("failure", {})
            lines.append(
                f"  FAILED {row.get('label', '?')}: {fail.get('kind', '?')}"
                f" — {fail.get('message', '')}"
            )
        return "\n".join(lines)


def aggregate(records: Iterable[dict[str, Any]]) -> SweepReport:
    """Build a :class:`SweepReport` from raw store records."""
    return SweepReport(records=list(records))


def completed_records(
    records: Iterable[dict[str, Any]],
) -> dict[str, dict[str, Any]]:
    """Successful terminal records keyed by fingerprint, newest wins.

    This is the resume index: a sweep resumed against a store skips
    every job whose fingerprint appears here, exactly as the cache
    would.  Failures are excluded on purpose — a resumed sweep retries
    failed points rather than pinning a transient error forever (the
    same policy the cache applies).
    """
    index: dict[str, dict[str, Any]] = {}
    for record in records:
        fingerprint = record.get("fingerprint")
        if (record.get("kind") == "result"
                and isinstance(fingerprint, str) and fingerprint):
            index[fingerprint] = record
    return index
