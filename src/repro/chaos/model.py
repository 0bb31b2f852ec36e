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
from typing import Any, Mapping

from ..errors import ChaosSpecError

__all__ = [
    "WorkerChaos",
    "StorageChaos",
    "HttpChaos",
    "ChaosSpec",
    "load_chaos_spec",
]


def _check_probability(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ChaosSpecError(
            f"{name} must be a number, got {value!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise ChaosSpecError(f"{name} must be in [0, 1], got {value!r}")
    return value


def _check_non_negative(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ChaosSpecError(
            f"{name} must be a number, got {value!r}"
        ) from None
    if value < 0:
        raise ChaosSpecError(f"{name} must be non-negative, got {value!r}")
    return value


def _reject_unknown(what: str, data: Mapping[str, Any],
                    known: set[str]) -> None:
    unknown = set(data) - known
    if unknown:
        raise ChaosSpecError(
            f"unknown {what} keys: {sorted(unknown)} (known: {sorted(known)})"
        )


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
    crash_probability: float = 0.0
    #: Probability an attempt wedges: no progress, no heartbeat.  Only
    #: a deadline or the watchdog ends it.
    hang_probability: float = 0.0
    #: Probability an attempt is slowed by ``slow_s`` before running.
    slow_probability: float = 0.0
    #: Injected delay for a slow attempt, seconds.
    slow_s: float = 0.0
    #: Label substring restricting which jobs chaos may strike.
    match: str = ""

    def __post_init__(self) -> None:
        for name in ("crash_probability", "hang_probability",
                     "slow_probability"):
            object.__setattr__(
                self, name,
                _check_probability(f"worker.{name}", getattr(self, name)),
            )
        object.__setattr__(
            self, "slow_s", _check_non_negative("worker.slow_s", self.slow_s)
        )
        if not isinstance(self.match, str):
            raise ChaosSpecError(
                f"worker.match must be a string, got {self.match!r}"
            )

    def active(self) -> bool:
        return (self.crash_probability > 0 or self.hang_probability > 0
                or self.slow_probability > 0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "crash_probability": self.crash_probability,
            "hang_probability": self.hang_probability,
            "slow_probability": self.slow_probability,
            "slow_s": self.slow_s,
            "match": self.match,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkerChaos":
        _reject_unknown("worker", data, {
            "crash_probability", "hang_probability", "slow_probability",
            "slow_s", "match",
        })
        return cls(**dict(data))


@dataclass(frozen=True, slots=True)
class StorageChaos:
    """Durable-state corruption: cache entries and JSONL store lines.

    Cache decisions are keyed by fingerprint, store decisions by the
    record's fingerprint — both stable across restarts, so a scenario's
    corruption pattern is a property of the data, not of scheduling.
    """

    #: Probability a cache entry is written as garbage bytes (disk
    #: corruption; the sha256 trailer is what detects it on read).
    cache_corrupt_probability: float = 0.0
    #: Probability a cache entry is truncated mid-write (lost fsync).
    cache_truncate_probability: float = 0.0
    #: Probability a store append loses its tail (crash mid-append:
    #: a partial line with no trailing newline).
    store_torn_write_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("cache_corrupt_probability",
                     "cache_truncate_probability",
                     "store_torn_write_probability"):
            object.__setattr__(
                self, name,
                _check_probability(f"storage.{name}", getattr(self, name)),
            )

    def active(self) -> bool:
        return (self.cache_corrupt_probability > 0
                or self.cache_truncate_probability > 0
                or self.store_torn_write_probability > 0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "cache_corrupt_probability": self.cache_corrupt_probability,
            "cache_truncate_probability": self.cache_truncate_probability,
            "store_torn_write_probability":
                self.store_torn_write_probability,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StorageChaos":
        _reject_unknown("storage", data, {
            "cache_corrupt_probability", "cache_truncate_probability",
            "store_torn_write_probability",
        })
        return cls(**dict(data))


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
    reset_probability: float = 0.0
    #: Probability an event stream is cut after any given envelope.
    stream_break_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("reset_probability", "stream_break_probability"):
            object.__setattr__(
                self, name,
                _check_probability(f"http.{name}", getattr(self, name)),
            )

    def active(self) -> bool:
        return self.reset_probability > 0 or self.stream_break_probability > 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "reset_probability": self.reset_probability,
            "stream_break_probability": self.stream_break_probability,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HttpChaos":
        _reject_unknown("http", data, {
            "reset_probability", "stream_break_probability",
        })
        return cls(**dict(data))


@dataclass(frozen=True, slots=True)
class ChaosSpec:
    """One complete infrastructure chaos scenario."""

    seed: int = 0
    worker: WorkerChaos = WorkerChaos()
    storage: StorageChaos = StorageChaos()
    http: HttpChaos = HttpChaos()

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "seed", int(self.seed))
        except (TypeError, ValueError):
            raise ChaosSpecError(
                f"seed must be an integer, got {self.seed!r}"
            ) from None
        for name, cls in (("worker", WorkerChaos),
                          ("storage", StorageChaos), ("http", HttpChaos)):
            value = getattr(self, name)
            if isinstance(value, Mapping):
                object.__setattr__(self, name, cls.from_dict(value))
            elif not isinstance(value, cls):
                raise ChaosSpecError(
                    f"{name} must be a {cls.__name__} or mapping, "
                    f"got {value!r}"
                )

    def active(self) -> bool:
        """Whether this spec injects anything at all."""
        return (self.worker.active() or self.storage.active()
                or self.http.active())

    def with_seed(self, seed: int) -> "ChaosSpec":
        return replace(self, seed=int(seed))

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "worker": self.worker.to_dict(),
            "storage": self.storage.to_dict(),
            "http": self.http.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosSpec":
        _reject_unknown("chaos spec", data,
                        {"seed", "worker", "storage", "http"})
        return cls(
            seed=data.get("seed", 0),
            worker=WorkerChaos.from_dict(data.get("worker", {})),
            storage=StorageChaos.from_dict(data.get("storage", {})),
            http=HttpChaos.from_dict(data.get("http", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "ChaosSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ChaosSpecError(f"chaos spec is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ChaosSpecError("chaos spec must be a JSON object")
        return cls.from_dict(data)

    def canonical_json(self) -> str:
        """Stable serialization — equal specs, equal strings."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


def load_chaos_spec(path: str) -> ChaosSpec:
    """Read and validate a :class:`ChaosSpec` JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return ChaosSpec.from_json(fh.read())
