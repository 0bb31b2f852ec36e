"""Declarative, seed-deterministic fault specifications.

The paper targets real-time *embedded* deployments, where the substrate
degrades: processing elements die or slow down, firings suffer transient
upsets, transfers get lost or replayed on a flaky interconnect.  A
:class:`FaultSpec` describes such a scenario declaratively — plain data,
JSON round-trippable, validated on construction — and attaches to
:class:`~repro.sim.SimulationOptions`.  Everything the injected scenario
does is a pure function of ``(spec, seed)``: repeating a simulation with
the same spec reproduces the same faults, recoveries, and timings bit
for bit, which is what lets fault scenarios be swept and cached like any
other design axis (``repro.explore``).

Scope notes
-----------
* Faults strike **on-chip** kernels only.  Application inputs, constant
  sources, and outputs model off-chip I/O and are assumed reliable (the
  input's reliability is already a modelling axiom — it cannot be
  stalled).
* Control tokens are never dropped or duplicated: they ride the
  reliable control plane that end-of-frame resynchronization depends on.
  Channel faults apply to data transfers.
* A processing element fails *fail-stop at firing boundaries*: a firing
  in flight when the element dies completes, then the element never
  starts another.  This matches the firing being the atomic scheduling
  unit of the runtime.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..errors import FaultSpecError
from ..records import conform, dump, load, load_file, parse_json

__all__ = [
    "TransientFaults",
    "PEFailure",
    "ChannelFaults",
    "RecoveryPolicy",
    "FaultSpec",
    "FaultStats",
    "load_fault_spec",
]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultSpecError(f"{name} must be in [0, 1], got {value!r}")


def _check_non_negative(name: str, value: float) -> None:
    if value < 0:
        raise FaultSpecError(f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True, slots=True)
class TransientFaults:
    """Transient (soft) firing faults on on-chip kernels.

    A faulted firing attempt wastes its processing element for the
    firing's declared cycles (the fault is detected at the end of the
    attempt), then the recovery policy decides what happens next.
    """

    #: Per-firing-attempt fault probability.
    probability: float = 0.0
    #: Restrict probabilistic faults to these kernels; empty = all.
    kernels: tuple[str, ...] = ()
    #: Deterministic injections at ``(kernel, firing_index)`` — the
    #: index counts that kernel's *successful* firings, so a retried
    #: attempt does not shift later schedule entries.  Repeating one
    #: entry faults that many consecutive attempts.
    schedule: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        conform(self, error=FaultSpecError, where="transient")
        _check_probability("transient.probability", self.probability)
        for entry in self.schedule:
            if entry[1] < 0:
                raise FaultSpecError(
                    "transient.schedule entries must be "
                    f"(kernel, firing_index >= 0), got {entry!r}"
                )


@dataclass(frozen=True, slots=True)
class PEFailure:
    """Permanent death of one processing element at a simulated time."""

    processor: int
    time_s: float

    def __post_init__(self) -> None:
        conform(self, error=FaultSpecError, where="pe_failures")
        if self.processor < 0:
            raise FaultSpecError(
                f"pe_failures.processor must be >= 0, got {self.processor!r}"
            )
        _check_non_negative("pe_failures.time_s", self.time_s)


@dataclass(frozen=True, slots=True)
class ChannelFaults:
    """Lost or replayed data transfers on the interconnect.

    Applies per data item delivered into a channel; control tokens are
    exempt (see the module docstring).  ``edges`` restricts the faults
    to specific channels, keyed like the capacity overrides of
    :class:`~repro.sim.SimulationOptions`.
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    #: Restrict to these ``(src, src_port, dst, dst_port)`` channels;
    #: empty = every channel.
    edges: tuple[tuple[str, str, str, str], ...] = ()

    def __post_init__(self) -> None:
        conform(self, error=FaultSpecError, where="channel")
        _check_probability("channel.drop_probability", self.drop_probability)
        _check_probability("channel.duplicate_probability",
                           self.duplicate_probability)


@dataclass(frozen=True, slots=True)
class RecoveryPolicy:
    """What the runtime does when a fault strikes.

    Three escalating mechanisms, all accounted in simulated time:

    * **retry** — a faulted firing is re-attempted after ``backoff_cycles``
      times the attempt number, up to ``max_retries`` extra attempts;
    * **migration** — when a processing element dies, every kernel it
      hosted moves to a spare element reserved by the mapper
      (``CompileOptions.spare_processors``), paying ``migration_cycles``
      before the spare accepts work;
    * **shedding** — a firing whose retries are exhausted consumes its
      inputs but drops its *data* emissions (tokens still flow, so the
      frame structure resynchronizes); the frame degrades to an
      incomplete one instead of carrying wrong pixels downstream.

    With ``shed=False`` an unrecovered firing emits zeroed data instead —
    the silent-divergence baseline shedding exists to avoid.
    """

    max_retries: int = 0
    backoff_cycles: float = 0.0
    migrate: bool = False
    migration_cycles: float = 0.0
    shed: bool = False

    def __post_init__(self) -> None:
        conform(self, error=FaultSpecError, where="recovery")
        if self.max_retries < 0:
            raise FaultSpecError(
                f"recovery.max_retries must be >= 0, got {self.max_retries!r}"
            )
        _check_non_negative("recovery.backoff_cycles", self.backoff_cycles)
        _check_non_negative("recovery.migration_cycles", self.migration_cycles)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """A complete, validated fault scenario for one simulation."""

    seed: int = 0
    transient: TransientFaults = field(default_factory=TransientFaults)
    pe_failures: tuple[PEFailure, ...] = ()
    #: ``(processor, cycle_multiplier)`` pairs: the element still works
    #: but every firing takes ``multiplier`` times as long (aging,
    #: thermal throttling).  A multiplier of 1.0 is a no-op.
    slow_pes: tuple[tuple[int, float], ...] = ()
    channel: ChannelFaults = field(default_factory=ChannelFaults)
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)

    def __post_init__(self) -> None:
        conform(self, error=FaultSpecError, where="")
        seen: set[int] = set()
        for proc, mult in self.slow_pes:
            if proc < 0:
                raise FaultSpecError(
                    f"slow_pes processor must be >= 0, got {proc!r}"
                )
            if mult <= 0:
                raise FaultSpecError(
                    f"slow_pes multiplier must be positive, got {mult!r}"
                )
            if proc in seen:
                raise FaultSpecError(
                    f"slow_pes lists processor {proc} twice"
                )
            seen.add(proc)
        dead: set[int] = set()
        for failure in self.pe_failures:
            if failure.processor in dead:
                raise FaultSpecError(
                    f"pe_failures lists processor {failure.processor} twice"
                )
            dead.add(failure.processor)

    def active(self) -> bool:
        """Whether this spec can inject anything at all.

        A spec that cannot (zero probabilities, empty schedules, no
        deaths, unit multipliers) leaves the simulator on its zero-fault
        path, observably identical to running with no spec.
        """
        return bool(
            self.transient.probability > 0.0
            or self.transient.schedule
            or self.pe_failures
            or any(mult != 1.0 for _, mult in self.slow_pes)
            or self.channel.drop_probability > 0.0
            or self.channel.duplicate_probability > 0.0
        )

    def with_seed(self, seed: int) -> "FaultSpec":
        return replace(self, seed=seed)

    def to_dict(self) -> dict[str, Any]:
        return dump(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        return load(cls, data, error=FaultSpecError, where="fault spec")

    @classmethod
    def from_json(cls, text: str) -> "FaultSpec":
        return cls.from_dict(
            parse_json(text, error=FaultSpecError, what="fault spec")
        )

    def canonical_json(self) -> str:
        """Stable identity string: equivalent specs fingerprint equal."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


def load_fault_spec(path: str) -> FaultSpec:
    """Load and validate a :class:`FaultSpec` from a JSON file."""
    return load_file(path, FaultSpec.from_dict, error=FaultSpecError,
                     what="fault spec")


@dataclass(slots=True)
class FaultStats:
    """Degradation accounting for one simulation run.

    All counters are zero on the zero-fault path; the result's
    ``as_dict`` only carries the section when a fault spec was active,
    keeping the conformance surface of fault-free runs unchanged.
    """

    #: Transient firing faults injected (every faulted attempt).
    injected: int = 0
    #: Retry attempts consumed recovering from transient faults.
    retries: int = 0
    #: Transient faults that a retry eventually cleared.
    recovered: int = 0
    #: Faults past recovery: exhausted retries, or a dead element with
    #: no spare to migrate to.
    unrecovered: int = 0
    #: Unrecovered firings that emitted corrupted (zeroed) data because
    #: shedding was disabled.
    corrupted: int = 0
    #: Data emissions dropped by the shedding policy.
    data_shed: int = 0
    #: Processing elements that died.
    pe_deaths: int = 0
    #: Kernel-group migrations to a spare element.
    migrations: int = 0
    transfers_dropped: int = 0
    transfers_duplicated: int = 0
    #: Total simulated time from fault to restored service, summed over
    #: retry recoveries and migrations.
    recovery_latency_s: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "injected": self.injected,
            "retries": self.retries,
            "recovered": self.recovered,
            "unrecovered": self.unrecovered,
            "corrupted": self.corrupted,
            "data_shed": self.data_shed,
            "pe_deaths": self.pe_deaths,
            "migrations": self.migrations,
            "transfers_dropped": self.transfers_dropped,
            "transfers_duplicated": self.transfers_duplicated,
            "recovery_latency_s": self.recovery_latency_s,
        }

    def describe(self) -> str:
        return (
            f"faults: {self.injected} injected "
            f"({self.recovered} recovered via {self.retries} retries, "
            f"{self.unrecovered} unrecovered), "
            f"{self.pe_deaths} PE deaths / {self.migrations} migrations, "
            f"{self.transfers_dropped} transfers dropped / "
            f"{self.transfers_duplicated} duplicated, "
            f"{self.data_shed} emissions shed, {self.corrupted} corrupted, "
            f"recovery latency {self.recovery_latency_s * 1e3:.3f} ms"
        )
