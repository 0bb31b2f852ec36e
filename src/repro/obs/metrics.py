"""A small labelled metrics registry: counters, gauges, histograms.

The registry is deliberately tiny and deterministic — metrics are part
of the reproducibility surface (two identical simulations must serialize
identical registries), so:

* metric identity is ``(name, sorted labels)``;
* histograms keep a **bounded reservoir** (Vitter's algorithm R) driven
  by a private ``random.Random(0)``, so the sample — and therefore the
  reported quantiles — is a pure function of the observation sequence,
  never of process state;
* serialization sorts everything.

Counters accumulate, gauges keep the last value plus a high-water mark,
histograms keep count/sum/min/max exactly and quantiles approximately
(exact until the reservoir overflows).
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Mapping

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Reservoir size used when the registry is built without a config.
DEFAULT_RESERVOIR = 512


class Counter:
    """A monotonically accumulating value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-set value plus its high-water mark."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value

    def as_dict(self) -> dict:
        return {"value": self.value, "max": self.max}


class Histogram:
    """Bounded-reservoir distribution with exact count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max", "_reservoir", "_capacity",
                 "_rng")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR) -> None:
        if capacity <= 0:
            raise ValueError("histogram capacity must be positive, "
                             f"got {capacity!r}")
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: list[float] = []
        self._capacity = capacity
        # Seeded so the retained sample is deterministic across runs and
        # processes (hash/process state never leaks in).
        self._rng = random.Random(0)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
        else:
            # Algorithm R: keep each observation with probability k/n.
            slot = self._rng.randrange(self.count)
            if slot < self._capacity:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the reservoir (exact until it fills)."""
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    def as_dict(self) -> dict:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "mean": 0.0, "p50": None, "p90": None, "p99": None}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


def _key(name: str, labels: Mapping[str, Any]) -> tuple:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class MetricsRegistry:
    """Get-or-create store for labelled metrics."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_reservoir")

    def __init__(self, reservoir_size: int = DEFAULT_RESERVOIR) -> None:
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._reservoir = reservoir_size

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = _key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(self._reservoir)
        return metric

    # -- read side -----------------------------------------------------

    @staticmethod
    def _rows(table: Mapping[tuple, Any]) -> Iterable[tuple[str, dict, Any]]:
        for (name, labels), metric in sorted(table.items()):
            yield name, dict(labels), metric

    def counters(self) -> list[tuple[str, dict, Counter]]:
        return list(self._rows(self._counters))

    def gauges(self) -> list[tuple[str, dict, Gauge]]:
        return list(self._rows(self._gauges))

    def histograms(self) -> list[tuple[str, dict, Histogram]]:
        return list(self._rows(self._histograms))

    def as_dict(self) -> dict:
        """Deterministic JSON-safe dump of every metric, sorted by key."""
        return {
            "counters": [
                {"name": name, "labels": labels, **metric.as_dict()}
                for name, labels, metric in self._rows(self._counters)
            ],
            "gauges": [
                {"name": name, "labels": labels, **metric.as_dict()}
                for name, labels, metric in self._rows(self._gauges)
            ],
            "histograms": [
                {"name": name, "labels": labels, **metric.as_dict()}
                for name, labels, metric in self._rows(self._histograms)
            ],
        }
