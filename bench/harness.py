"""Shared plumbing of the benchmark: spans, statistics, goldens.

Everything here is benchmark-side.  Nothing under ``src/`` knows it is
being measured: spans are recorded around calls into the public
functions of each layer (``choosing-metrics`` section 4), and the
correctness check compares against digests committed under
``bench/golden/`` instead of asking the program for its own reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_DIR = BENCH_DIR / "golden"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


# ---------------------------------------------------------------------------
# Statistics


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def iqr_spread(values) -> float:
    """(Q3 - Q1) / median — the run-to-run spread the driver computes."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# ---------------------------------------------------------------------------
# Spans


class Tracer:
    """In-memory span recorder.

    ``enabled=False`` (the untraced pass every end-to-end metric comes
    from) makes :meth:`span` a no-op.  Spans nest per thread; a span
    without an explicit ``request`` inherits its parent's, so all spans
    of one request share an identifier.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["request"]
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": request,
            "start": time.perf_counter(),
            "end": 0.0,
        }
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part its
        child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span["name"]] += (
                span["end"] - span["start"] - child_time[span["id"]]
            )
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n")


# ---------------------------------------------------------------------------
# Goldens


def digest(value: Any) -> str:
    """Digest of the canonical JSON of ``value`` (sorted keys, compact)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


#: ``execute_job`` stats fields that read the host clock.
HOST_TIME_FIELDS = ("elapsed_s", "sim_elapsed_s", "events_per_s")


def sim_golden(result_dict: dict[str, Any]) -> dict[str, Any]:
    """The golden form of ``SimulationResult.as_dict()``: the event count
    in the clear (it is also the work unit) and a digest of the rest."""
    rest = {k: v for k, v in result_dict.items() if k != "events"}
    return {"events": result_dict["events"], "digest": digest(rest)}


def job_golden(stats: dict[str, Any]) -> str:
    """Digest of a job's ``stats`` minus the host-time fields."""
    return digest({k: v for k, v in stats.items()
                   if k not in HOST_TIME_FIELDS})


def job_key(job_dict: dict[str, Any]) -> str:
    """Golden key of an ``image_pipeline`` sweep job (``Job.to_dict()``)."""
    params = job_dict["params"]
    mapping = job_dict["options"].get("mapping", "greedy")
    return (f"{params['width']}x{params['height']}@{params['rate_hz']}"
            f"|{mapping}|F{job_dict['frames']}")


class Goldens:
    """The committed expectations, one JSON file per section."""

    SECTIONS = ("sim", "compile", "jobs")

    def __init__(self, directory: Path = GOLDEN_DIR) -> None:
        self.data: dict[str, dict[str, Any]] = {}
        for section in self.SECTIONS:
            path = directory / f"{section}.json"
            self.data[section] = json.loads(path.read_text())

    def mismatch(self, section: str, key: str, actual: Any) -> str | None:
        """``None`` when ``actual`` equals the golden, else a message
        naming the entry (the caller counts it as a failed request)."""
        expected = self.data[section].get(key)
        if expected is None:
            return f"{section}[{key}]: no golden"
        if expected != actual:
            return f"{section}[{key}]: expected {expected}, got {actual}"
        return None


# ---------------------------------------------------------------------------
# BENCHMARK.json


def load_contract() -> dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text())
