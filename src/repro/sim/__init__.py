"""Timing-accurate functional simulator and untimed golden executor.

One discrete-event loop lives here (:mod:`.simulator`).  Quasi-static
schedule replay (:mod:`.replay`, opt-in via
``SimulationOptions(replay=True)``) is a recorder that loop reports to
and a period executor it hands locked periods to — not a second loop —
with batched kernel bodies in :mod:`.batch` and the op vocabulary the
three share in :mod:`.plan`.  The frozen seed implementation
(:mod:`.reference`) is the oracle: the conformance and differential
suites prove replay-on, replay-off and the oracle observably identical;
the benchmark suite measures speedups against it.
"""

from .functional import FunctionalResult, run_functional
from .reference import ReferenceSimulator, reference_simulate
from .replay import ReplayStats
from .runtime import Channel, RuntimeKernel, build_runtime
from .simulator import (
    BudgetOverrun,
    SimulationOptions,
    SimulationResult,
    Simulator,
    simulate,
)
from .stats import ProcessorStats, RealTimeVerdict, UtilizationSummary
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
