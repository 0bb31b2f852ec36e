"""repro.obs — full-fidelity simulation telemetry.

Typed spans, a deterministic metrics registry, Perfetto/JSONL/text
exporters, and a critical-path analysis pass over one simulation run.
Enable via ``SimulationOptions(telemetry=True)`` (or a
:class:`TelemetryConfig`); the result lands on
``SimulationResult.telemetry``.
"""

from .collect import Telemetry, TelemetryCollector, TelemetryConfig
from .critical_path import (
    CriticalPathReport,
    PathSegment,
    analyze_critical_path,
)
from .export import (
    spans_jsonl,
    timeline,
    timeline_rows,
    to_perfetto,
    validate_perfetto,
    write_perfetto,
    write_spans_jsonl,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import (
    FaultSpan,
    FiringSpan,
    IdleSpan,
    Span,
    StallSpan,
    TransferSpan,
    WaitSpan,
    span_as_dict,
    spans_digest,
)

__all__ = [
    "Telemetry",
    "TelemetryCollector",
    "TelemetryConfig",
    "CriticalPathReport",
    "PathSegment",
    "analyze_critical_path",
    "to_perfetto",
    "write_perfetto",
    "validate_perfetto",
    "spans_jsonl",
    "write_spans_jsonl",
    "timeline",
    "timeline_rows",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "FiringSpan",
    "TransferSpan",
    "WaitSpan",
    "StallSpan",
    "FaultSpan",
    "IdleSpan",
    "Span",
    "span_as_dict",
    "spans_digest",
]
