"""Typed progress events for design-space sweeps.

The executor narrates a sweep through these events rather than printing:
every scheduling decision, cache hit, retry, failure, and completion is
one immutable event handed to an ``on_event`` callback.  The CLI renders
them as progress lines; tests assert on them; :mod:`repro.serve` ships
them over a wire as NDJSON — which is why every event type round-trips
through ``as_dict`` → :meth:`SweepEvent.from_dict` and carries a schema
version consumers can check.

Invariants (mirrored by the executor and checked by the test suite):

* exactly one terminal event — :class:`JobCacheHit`, :class:`JobFinished`,
  or :class:`JobFailed` — per job per sweep;
* no job events after :class:`SweepFinished`;
* :class:`JobRetried` always precedes another :class:`JobStarted` for the
  same job.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, Mapping

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "SweepEvent",
    "SweepStarted",
    "JobScheduled",
    "JobStarted",
    "JobCacheHit",
    "JobRetried",
    "JobFailed",
    "JobFinished",
    "SweepFinished",
    "EventLog",
    "render_event",
]

EVENT_SCHEMA_VERSION = "1.0"

#: Concrete event classes by name — the wire-decoding registry.  Filled
#: by ``__init_subclass__`` so a new event type can never forget to
#: register itself (the round-trip test iterates this mapping).
EVENT_TYPES: dict[str, type["SweepEvent"]] = {}


@dataclass(frozen=True, slots=True)
class SweepEvent:
    """Base class for all sweep progress events."""

    #: Short human label of the job (empty for sweep-level events).
    label: str

    def __init_subclass__(cls, **kwargs) -> None:
        # Explicit super: ``@dataclass(slots=True)`` recreates the class,
        # which orphans the zero-argument form's ``__class__`` cell.
        super(SweepEvent, cls).__init_subclass__(**kwargs)
        EVENT_TYPES[cls.__name__] = cls

    def as_dict(self) -> dict:
        data = asdict(self)
        data["event"] = type(self).__name__
        data["schema"] = EVENT_SCHEMA_VERSION
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepEvent":
        """Rebuild the typed event an ``as_dict`` payload came from.

        Unknown event names and missing *required* fields raise
        ``ValueError`` (a wire consumer must not silently mistype an
        event); a missing field that declares a default takes the
        default, so adding an optional field never breaks decoding of
        payloads written by older producers.  Extra keys — ``schema``,
        transport envelopes like ``seq`` — are ignored so the format
        can grow without breaking old decoders.
        """
        name = data.get("event")
        event_cls = EVENT_TYPES.get(name)
        if event_cls is None:
            raise ValueError(f"unknown sweep event type {name!r}")
        kwargs = {}
        for field_info in fields(event_cls):
            if field_info.name in data:
                kwargs[field_info.name] = data[field_info.name]
            elif (field_info.default is MISSING
                    and field_info.default_factory is MISSING):
                raise ValueError(
                    f"event {name!r} payload is missing field "
                    f"{field_info.name!r}"
                )
        return event_cls(**kwargs)

    def describe(self) -> str:  # pragma: no cover - subclasses override
        return f"{type(self).__name__} {self.label}"


@dataclass(frozen=True, slots=True)
class SweepStarted(SweepEvent):
    """The sweep accepted ``total`` jobs for execution."""

    total: int
    workers: int

    def describe(self) -> str:
        return (f"sweep {self.label!r}: {self.total} jobs on "
                f"{self.workers} worker(s)")


@dataclass(frozen=True, slots=True)
class JobScheduled(SweepEvent):
    """A job entered the run queue (it missed the cache)."""

    fingerprint: str

    def describe(self) -> str:
        return f"  queued   {self.label} [{self.fingerprint[:12]}]"


@dataclass(frozen=True, slots=True)
class JobStarted(SweepEvent):
    """A worker began executing a job attempt."""

    attempt: int

    def describe(self) -> str:
        tag = f" (attempt {self.attempt})" if self.attempt > 1 else ""
        return f"  running  {self.label}{tag}"


@dataclass(frozen=True, slots=True)
class JobCacheHit(SweepEvent):
    """A previously stored result satisfied the job — terminal."""

    fingerprint: str

    def describe(self) -> str:
        return f"  cached   {self.label} [{self.fingerprint[:12]}]"


@dataclass(frozen=True, slots=True)
class JobRetried(SweepEvent):
    """A transient failure; the job will run again after ``delay_s``."""

    attempt: int
    reason: str
    delay_s: float

    def describe(self) -> str:
        return (f"  retry    {self.label}: {self.reason} "
                f"(attempt {self.attempt} failed; backing off "
                f"{self.delay_s:.2g}s)")


@dataclass(frozen=True, slots=True)
class JobFailed(SweepEvent):
    """The job exhausted its attempts — terminal."""

    kind: str  # "timeout" | "crash" | "error" | "compile-error"
    message: str
    attempts: int

    def describe(self) -> str:
        return (f"  FAILED   {self.label}: {self.kind} after "
                f"{self.attempts} attempt(s): {self.message}")


@dataclass(frozen=True, slots=True)
class JobFinished(SweepEvent):
    """The job produced a result — terminal."""

    elapsed_s: float
    meets: bool
    processor_count: int

    def describe(self) -> str:
        verdict = "meets" if self.meets else "MISSES"
        return (f"  done     {self.label}: {self.processor_count} PEs, "
                f"{verdict} real-time ({self.elapsed_s:.2f}s)")


@dataclass(frozen=True, slots=True)
class SweepFinished(SweepEvent):
    """The sweep completed; every job has exactly one terminal event."""

    total: int
    succeeded: int
    failed: int
    cache_hits: int
    elapsed_s: float

    def describe(self) -> str:
        return (f"sweep {self.label!r} finished in {self.elapsed_s:.2f}s: "
                f"{self.succeeded} ok, {self.failed} failed, "
                f"{self.cache_hits} from cache")


@dataclass(slots=True)
class EventLog:
    """A callback that records every event — the test observability hook."""

    events: list[SweepEvent] = field(default_factory=list)

    def __call__(self, event: SweepEvent) -> None:
        self.events.append(event)


def render_event(event: SweepEvent,
                 write: Callable[[str], None] = print) -> None:
    """The CLI renderer: one line per event."""
    write(event.describe())
