"""``repro.dash`` — live metrics aggregation and the web dashboard.

The first consumer that composes the explore, serve, obs, faults, and
NoC surfaces in one place: :class:`MetricsAggregator` folds the typed
event stream (live via the scheduler's observer seam, or offline from a
data dir's NDJSON logs and JSONL store) into a deterministic
:class:`DashSnapshot`; :mod:`~.page` renders snapshots as a single-file
stdlib-only HTML dashboard.

Both are served by the one HTTP front end, :mod:`repro.serve.http`: live
as ``repro serve --dashboard`` (``GET /v1/metrics`` and ``GET
/v1/dashboard`` beside the run routes, gated behind the same ``is not
None`` seam as faults/telemetry/chaos), offline as ``repro dash``
(:func:`serve_dashboard`: the same server with no scheduler, re-folding
a completed or still-growing data dir per request).  See
``docs/dashboard.md``.
"""

from ..serve.http import serve_dashboard
from .aggregate import MetricsAggregator, telemetry_drilldown
from .page import dashboard_page
from .snapshot import DASH_SCHEMA, DashSnapshot, canonical_json

__all__ = [
    "DASH_SCHEMA",
    "DashSnapshot",
    "MetricsAggregator",
    "canonical_json",
    "dashboard_page",
    "telemetry_drilldown",
    "serve_dashboard",
]
