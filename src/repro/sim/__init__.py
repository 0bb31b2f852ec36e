"""Timing-accurate functional simulator and untimed golden executor.

One discrete-event loop lives here (:mod:`.simulator`); every run,
``SimulationOptions(replay=True)`` included, is that loop.  The frozen
seed implementation (:mod:`.reference`) is the oracle: the conformance
and differential suites prove the loop and the oracle observably
identical; the benchmark suite measures speedups against it.
"""

from .functional import FunctionalResult, run_functional
from .reference import ReferenceSimulator, reference_simulate
from .runtime import Channel, RuntimeKernel, build_runtime
from .simulator import (
    BudgetOverrun,
    SimulationOptions,
    SimulationResult,
    Simulator,
    simulate,
)
from .stats import (
    ProcessorStats,
    RealTimeVerdict,
    ReplayStats,
    UtilizationSummary,
)
from .trace import (
    TraceEvent,
    busy_time_by_processor,
    event_as_dict,
    gantt,
    trace_digest,
)

__all__ = [
    "FunctionalResult",
    "run_functional",
    "Channel",
    "RuntimeKernel",
    "build_runtime",
    "BudgetOverrun",
    "SimulationOptions",
    "SimulationResult",
    "Simulator",
    "simulate",
    "ReferenceSimulator",
    "reference_simulate",
    "ReplayStats",
    "ProcessorStats",
    "RealTimeVerdict",
    "UtilizationSummary",
    "TraceEvent",
    "busy_time_by_processor",
    "event_as_dict",
    "gantt",
    "trace_digest",
]
