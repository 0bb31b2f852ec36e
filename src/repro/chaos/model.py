"""Declarative, seed-deterministic *infrastructure* chaos specifications.

:mod:`repro.faults` injects failures into the simulated machine; this
module injects them into the machine the fleet actually runs on — the
worker processes, the content-addressed cache, the JSONL stores, and the
HTTP front end of :mod:`repro.serve`.  A :class:`ChaosSpec` describes a
scenario declaratively — plain data, JSON round-trippable, validated on
construction — and every decision the injector derives from it is a pure
function of ``(spec.seed, site, key)``: repeating a run with the same
spec reproduces the same crashes, corruptions, and resets (see
:mod:`repro.chaos.inject`), which is what lets the chaos suite assert
invariants *and* bit-reproducibility at once.

Scope notes
-----------
* Chaos strikes **infrastructure** only.  Job payloads are never
  altered: a crashed worker re-executes the same deterministic job, a
  corrupted cache entry is quarantined and recomputed.  The observable
  *results* of a sweep must survive any chaos scenario unchanged.
* Like faults/telemetry/NoC, the zero-chaos path is observation-free:
  no :class:`ChaosSpec` installed means no injector object, no extra
  branches taken, byte-identical behavior.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Annotated, Any, Mapping

from ..errors import ChaosSpecError
from ..records import (
    NON_NEGATIVE,
    PROBABILITY,
    conform,
    dump,
    load,
    load_file,
    parse_json,
)

__all__ = [
    "WorkerChaos",
    "StorageChaos",
    "HttpChaos",
    "ChaosSpec",
    "load_chaos_spec",
]


@dataclass(frozen=True, slots=True)
class WorkerChaos:
    """Failures of the crash-isolated worker processes.

    Decisions are keyed by ``(fingerprint, attempt)``, so whether a
    particular attempt of a particular job crashes is independent of
    worker-slot timing — the property that makes chaos runs replayable.
    ``match`` restricts injection to jobs whose label contains the
    substring (empty matches every job), which is how a scenario makes
    one design point a poison job while its neighbours stay healthy.
    """

    #: Probability an attempt dies mid-job (``os._exit``, i.e. SIGKILL
    #: semantics: the worker never answers and the attempt is charged a
    #: crash).
    crash_probability: Annotated[float, PROBABILITY] = 0.0
    #: Probability an attempt wedges: no progress, no heartbeat.  Only
    #: a deadline or the watchdog ends it.
    hang_probability: Annotated[float, PROBABILITY] = 0.0
    #: Probability an attempt is slowed by ``slow_s`` before running.
    slow_probability: Annotated[float, PROBABILITY] = 0.0
    #: Injected delay for a slow attempt, seconds.
    slow_s: Annotated[float, NON_NEGATIVE] = 0.0
    #: Label substring restricting which jobs chaos may strike.
    match: str = ""

    def __post_init__(self) -> None:
        conform(self, error=ChaosSpecError, where="worker")

    def active(self) -> bool:
        return (self.crash_probability > 0 or self.hang_probability > 0
                or self.slow_probability > 0)


@dataclass(frozen=True, slots=True)
class StorageChaos:
    """Durable-state corruption: cache entries and JSONL store lines.

    Cache decisions are keyed by fingerprint, store decisions by the
    record's fingerprint — both stable across restarts, so a scenario's
    corruption pattern is a property of the data, not of scheduling.
    """

    #: Probability a cache entry is written as garbage bytes (disk
    #: corruption; the sha256 trailer is what detects it on read).
    cache_corrupt_probability: Annotated[float, PROBABILITY] = 0.0
    #: Probability a cache entry is truncated mid-write (lost fsync).
    cache_truncate_probability: Annotated[float, PROBABILITY] = 0.0
    #: Probability a store append loses its tail (crash mid-append:
    #: a partial line with no trailing newline).
    store_torn_write_probability: Annotated[float, PROBABILITY] = 0.0

    def __post_init__(self) -> None:
        conform(self, error=ChaosSpecError, where="storage")

    def active(self) -> bool:
        return (self.cache_corrupt_probability > 0
                or self.cache_truncate_probability > 0
                or self.store_torn_write_probability > 0)


@dataclass(frozen=True, slots=True)
class HttpChaos:
    """Client-visible connection failures at the HTTP front end.

    Request drops apply to idempotent GETs only — the one place a
    client may retry blindly; write paths (submit, cancel, shutdown)
    stay exempt so chaos never manufactures duplicate admissions.
    Stream breaks cut an event stream *after* an envelope, exercising
    the ``?since=<seq>`` resumption cursor end to end.
    """

    #: Probability a GET is answered with an abrupt connection reset.
    reset_probability: Annotated[float, PROBABILITY] = 0.0
    #: Probability an event stream is cut after any given envelope.
    stream_break_probability: Annotated[float, PROBABILITY] = 0.0

    def __post_init__(self) -> None:
        conform(self, error=ChaosSpecError, where="http")

    def active(self) -> bool:
        return self.reset_probability > 0 or self.stream_break_probability > 0


@dataclass(frozen=True, slots=True)
class ChaosSpec:
    """One complete infrastructure chaos scenario."""

    seed: int = 0
    worker: WorkerChaos = WorkerChaos()
    storage: StorageChaos = StorageChaos()
    http: HttpChaos = HttpChaos()

    def __post_init__(self) -> None:
        conform(self, error=ChaosSpecError, where="")

    def active(self) -> bool:
        """Whether this spec injects anything at all."""
        return (self.worker.active() or self.storage.active()
                or self.http.active())

    def with_seed(self, seed: int) -> "ChaosSpec":
        return replace(self, seed=seed)

    def to_dict(self) -> dict[str, Any]:
        return dump(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosSpec":
        return load(cls, data, error=ChaosSpecError, where="chaos spec")

    @classmethod
    def from_json(cls, text: str) -> "ChaosSpec":
        return cls.from_dict(
            parse_json(text, error=ChaosSpecError, what="chaos spec")
        )

    def canonical_json(self) -> str:
        """Stable serialization — equal specs, equal strings."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


def load_chaos_spec(path: str) -> ChaosSpec:
    """Read and validate a :class:`ChaosSpec` JSON file."""
    return load_file(path, ChaosSpec.from_dict, error=ChaosSpecError,
                     what="chaos spec")
