"""Simulation statistics: utilization breakdown and real-time verdicts.

Processor busy time is split into run (kernel execution), read (input
access), and write (output access) components — the three bars of
Figure 13.  Real-time verdicts combine input-overrun detection with
steady-state throughput at the application outputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping

__all__ = ["ProcessorStats", "UtilizationSummary", "RealTimeVerdict",
           "ReplayStats"]


@dataclass(slots=True)
class ProcessorStats:
    """Accumulated busy time for one processing element."""

    index: int
    read_s: float = 0.0
    run_s: float = 0.0
    write_s: float = 0.0
    firings: int = 0
    #: Kernels serviced by this element.  A set at runtime (membership
    #: adds during the loop); serialized sorted so the JSON form is
    #: deterministic regardless of hash seeding.
    kernels: set[str] = field(default_factory=set)

    @property
    def busy_s(self) -> float:
        return self.read_s + self.run_s + self.write_s

    def utilization(self, duration: float) -> float:
        return self.busy_s / duration if duration > 0 else 0.0

    def as_dict(self, duration: float) -> dict:
        """Machine-readable form (one ``processors`` row of the summary)."""
        return {
            "index": self.index,
            "utilization": self.utilization(duration),
            "read_s": self.read_s,
            "run_s": self.run_s,
            "write_s": self.write_s,
            "firings": self.firings,
            "kernels": sorted(self.kernels),
        }


@dataclass(frozen=True, slots=True)
class UtilizationSummary:
    """Fleet-wide utilization over a simulation window (Figures 12/13)."""

    duration_s: float
    processors: Mapping[int, ProcessorStats]

    @property
    def processor_count(self) -> int:
        return len(self.processors)

    @property
    def total_busy_s(self) -> float:
        return sum(p.busy_s for p in self.processors.values())

    @property
    def average_utilization(self) -> float:
        """Mean per-processor utilization — the Figure 13 bar height."""
        if not self.processors or self.duration_s <= 0:
            return 0.0
        return self.total_busy_s / (self.processor_count * self.duration_s)

    def component_fractions(self) -> dict[str, float]:
        """Average utilization split into run/read/write components."""
        denom = self.processor_count * self.duration_s
        if denom <= 0:
            return {"run": 0.0, "read": 0.0, "write": 0.0}
        return {
            "run": sum(p.run_s for p in self.processors.values()) / denom,
            "read": sum(p.read_s for p in self.processors.values()) / denom,
            "write": sum(p.write_s for p in self.processors.values()) / denom,
        }

    def as_dict(self) -> dict:
        """Machine-readable form (the CLI's ``--json`` output)."""
        return {
            "duration_s": self.duration_s,
            "processor_count": self.processor_count,
            "average_utilization": self.average_utilization,
            "components": self.component_fractions(),
            "processors": [
                p.as_dict(self.duration_s)
                for _, p in sorted(self.processors.items())
            ],
        }

    def describe(self) -> str:
        comp = self.component_fractions()
        lines = [
            f"{self.processor_count} processors over {self.duration_s * 1e3:.3f} ms: "
            f"avg utilization {self.average_utilization:.1%} "
            f"(run {comp['run']:.1%}, read {comp['read']:.1%}, "
            f"write {comp['write']:.1%})"
        ]
        for idx, p in sorted(self.processors.items()):
            lines.append(
                f"  PE{idx}: {p.utilization(self.duration_s):6.1%} "
                f"({', '.join(sorted(p.kernels))})"
            )
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class RealTimeVerdict:
    """Did the application keep up with its input rate?"""

    meets: bool
    frames_expected: int
    frames_completed: int
    #: Worst inter-frame completion interval over the steady tail, seconds.
    worst_interval_s: float
    frame_period_s: float
    input_overruns: int
    reason: str = ""
    #: Frames that never completed because the recovery policy shed their
    #: data (see docs/robustness.md); informational unless the verdict was
    #: evaluated with ``allow_shedding=True``.
    frames_shed: int = 0

    def as_dict(self) -> dict:
        """Machine-readable form (the CLI's ``--json`` output)."""
        return {
            "meets": self.meets,
            "frames_expected": self.frames_expected,
            "frames_completed": self.frames_completed,
            "worst_interval_s": (
                None if self.worst_interval_s == float("inf")
                else self.worst_interval_s
            ),
            "frame_period_s": self.frame_period_s,
            "input_overruns": self.input_overruns,
            "reason": self.reason,
            "frames_shed": self.frames_shed,
        }

    def describe(self) -> str:
        status = "MEETS" if self.meets else "MISSES"
        return (
            f"{status} real-time: {self.frames_completed}/"
            f"{self.frames_expected} frames, worst interval "
            f"{self.worst_interval_s * 1e3:.3f} ms vs period "
            f"{self.frame_period_s * 1e3:.3f} ms, "
            f"{self.input_overruns} input overruns"
            + (f", {self.frames_shed} frames shed" if self.frames_shed else "")
            + (f" ({self.reason})" if self.reason else "")
        )


@dataclass(slots=True)
class ReplayStats:
    """The ledger a ``SimulationOptions(replay=True)`` run returns.

    The quasi-static replay engine this described was removed: a
    replay run is the event loop, so every event is interpreted and
    every replay and batch counter is zero.  The ledger stays because
    callers built on it read these fields.  Attached as
    :attr:`SimulationResult.replay`, never part of ``as_dict()``.
    """

    #: Events the event loop processed: all of them.
    events_interpreted: int = 0
    reason: str = "replay engine removed: the event loop ran every event"
    events_replayed: int = 0
    firings_batched: int = 0
    firings_scalar: int = 0
    periods_compiled: int = 0
    restarts: int = 0
    demotions: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)
