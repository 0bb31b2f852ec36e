"""Exception hierarchy for the block-parallel programming system.

Every error raised by the language frontend, the compiler analyses and
transformations, and the simulator derives from :class:`BlockParallelError`,
so callers can catch the whole family with one clause while tests can assert
on precise subclasses.
"""

from __future__ import annotations

__all__ = [
    "BlockParallelError",
    "GraphError",
    "PortError",
    "MethodError",
    "AnalysisError",
    "AlignmentError",
    "RateError",
    "TransformError",
    "ParallelizationError",
    "MappingError",
    "PlacementError",
    "SimulationError",
    "FiringError",
    "FaultSpecError",
    "ChaosSpecError",
    "RealTimeViolation",
    "ResourceError",
]


class BlockParallelError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(BlockParallelError):
    """Malformed application graph (dangling ports, duplicate names, ...)."""


class PortError(GraphError):
    """Invalid port parameterization or port lookup failure."""


class MethodError(GraphError):
    """Invalid method registration (unknown inputs, duplicate triggers...)."""


class AnalysisError(BlockParallelError):
    """A static analysis could not complete on the given graph."""


class AlignmentError(AnalysisError):
    """Multi-input method receives data with mismatched extents or insets.

    Raised by the alignment checker when the automatic inset/pad transform
    has not been run (or cannot reconcile the inputs).
    """


class RateError(AnalysisError):
    """Inconsistent rates reach a kernel (e.g. mismatched input frame rates)."""


class TransformError(BlockParallelError):
    """A compiler transformation could not be applied."""


class ParallelizationError(TransformError):
    """Kernel cannot be parallelized to the required degree.

    For example a kernel whose single-iteration cost already exceeds one
    processing element's per-iteration budget, or a data-dependency edge that
    caps parallelism below the degree required to sustain the input rate.
    """


class MappingError(TransformError):
    """Kernel-to-processor mapping failure (e.g. capacity exceeded)."""


class PlacementError(TransformError):
    """Placement onto the chip grid failed (e.g. more PEs than tiles)."""


class SimulationError(BlockParallelError):
    """Generic simulator failure."""


class FiringError(SimulationError):
    """A kernel method misbehaved at runtime (wrong output shape, ...)."""


class FaultSpecError(SimulationError):
    """A fault-injection specification is malformed (see :mod:`repro.faults`).

    Carries the offending field in the message so sweep authors can fix
    the spec without reading the validator.
    """


class ChaosSpecError(BlockParallelError):
    """An infrastructure chaos specification is malformed (see
    :mod:`repro.chaos`).

    Deliberately *not* a :class:`SimulationError`: chaos strikes the
    host-side fleet (workers, cache, store, HTTP), never the simulated
    machine — that is :class:`FaultSpecError`'s domain.  Carries the
    offending field in the message, like its faults counterpart.
    """


class RealTimeViolation(SimulationError):
    """The application failed to keep up with its real-time input rate.

    Carries the simulation time of the first violation and the offending
    element so benchmark harnesses can report *where* the pipeline fell
    behind.
    """

    def __init__(self, message: str, *, time: float | None = None,
                 element: str | None = None) -> None:
        super().__init__(message)
        self.time = time
        self.element = element


class ResourceError(BlockParallelError):
    """Declared kernel resources are invalid (negative cycles, zero memory)."""
