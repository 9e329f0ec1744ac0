"""Metrics registry: counters, gauges and fixed-bound histograms.

The registry is the numeric half of the observability layer
(:mod:`repro.obs`).  Metrics carry hierarchical dot-separated names
(``engine.replay.cached_shots``, ``service.journal.append.time_ns``)
and snapshot to a plain dict in *sorted-name order*, so two exported
snapshots diff cleanly line by line.

Determinism contract: every metric that measures wall-clock time is
named with a final segment ending in ``_ns`` or ``_s`` (``time_ns``,
``latency_s``).  :func:`filter_timing` strips exactly those entries,
and what remains is a pure function of the program, seed and
configuration — two identical seeded runs produce byte-identical
filtered snapshots (pinned by ``tests/obs/test_determinism.py``).

Histograms use *fixed* bucket bounds chosen at creation, so histograms
of the same name merge exactly (bucket-wise addition) across runs,
workers and processes; percentiles are estimated by linear
interpolation inside the owning bucket and clamped to the observed
``[min, max]``.  This is the one percentile implementation in the
library — ``ServiceStats`` point latency consumes it (perfbench's
``sweep_mixed`` workload times the same sweep points from outside).
"""

from __future__ import annotations

import math
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_S_BOUNDS",
    "MetricsRegistry",
    "TIME_NS_BOUNDS",
    "exponential_bounds",
    "filter_timing",
]


def exponential_bounds(start: float, factor: float,
                       count: int) -> tuple[float, ...]:
    """``count`` geometrically spaced bucket upper edges from ``start``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError(
            f"bounds need start > 0, factor > 1, count >= 1; got "
            f"start={start!r} factor={factor!r} count={count!r}")
    return tuple(start * factor ** i for i in range(count))


#: Default bounds for nanosecond timing histograms: 1 us .. ~4.3 s.
TIME_NS_BOUNDS = exponential_bounds(1_000.0, 4.0, 12)

#: Default bounds for second-scale latency histograms: 100 us .. ~52 s.
LATENCY_S_BOUNDS = exponential_bounds(1e-4, 2.0, 20)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only count up, got {amount!r}")
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time numeric level (queue depth, cache size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bound histogram with interpolated percentile summaries.

    ``bounds`` are the strictly increasing upper edges of the finite
    buckets; one implicit overflow bucket catches everything above the
    last edge.  Two histograms with identical bounds merge exactly.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total",
                 "min_value", "max_value")

    def __init__(self, bounds: tuple[float, ...] = TIME_NS_BOUNDS):
        bounds = tuple(float(edge) for edge in bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram bounds must be non-empty and strictly "
                f"increasing, got {bounds!r}")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    def record(self, value: float) -> None:
        """Add one observation.  This sits on per-shot hot paths, so
        the bucket search is a C-level bisect (first edge with
        ``value <= edge``; past the last edge lands in overflow)."""
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def merge(self, other: "Histogram") -> None:
        """Bucket-wise addition; bounds must match exactly."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} edges)")
        for index, increment in enumerate(other.bucket_counts):
            self.bucket_counts[index] += increment
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    def copy(self) -> "Histogram":
        clone = Histogram(self.bounds)
        clone.bucket_counts = list(self.bucket_counts)
        clone.count = self.count
        clone.total = self.total
        clone.min_value = self.min_value
        clone.max_value = self.max_value
        return clone

    def percentile(self, fraction: float) -> float:
        """The ``fraction``-quantile, interpolated inside its bucket.

        Empty histograms report 0.0.  The estimate is exact at the
        observed extremes (clamped to ``[min, max]``) and linear in
        between, which keeps it deterministic and merge-stable.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], "
                             f"got {fraction!r}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(fraction * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if index == 0:
                    lower = self.min_value
                else:
                    lower = self.bounds[index - 1]
                if index < len(self.bounds):
                    upper = self.bounds[index]
                else:
                    upper = self.max_value
                position = (rank - cumulative) / bucket_count
                value = lower + position * (upper - lower)
                return min(max(value, self.min_value), self.max_value)
            cumulative += bucket_count
        return self.max_value  # unreachable with count > 0

    def as_dict(self) -> dict:
        empty = self.count == 0
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": 0.0 if empty else self.min_value,
            "max": 0.0 if empty else self.max_value,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Rebuild a histogram from its exported ``as_dict`` payload."""
        histogram = cls(tuple(payload["bounds"]))
        histogram.bucket_counts = list(payload["bucket_counts"])
        histogram.count = int(payload["count"])
        histogram.total = float(payload["sum"])
        if histogram.count:
            histogram.min_value = float(payload["min"])
            histogram.max_value = float(payload["max"])
        return histogram


class MetricsRegistry:
    """Named metrics with get-or-create access and sorted snapshots."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, kind: type, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, Gauge)

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = TIME_NS_BOUNDS) -> Histogram:
        return self._get_or_create(name, Histogram,
                                   lambda: Histogram(bounds))

    # Convenience single-call forms used by the instrumentation hooks.
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                bounds: tuple[float, ...] = TIME_NS_BOUNDS) -> None:
        self.histogram(name, bounds).record(value)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """Every metric as a JSON-ready dict, in sorted-name order."""
        return {name: self._metrics[name].as_dict()
                for name in sorted(self._metrics)}

    def merge_snapshot(self, snapshot: dict[str, dict]) -> None:
        """Fold an exported snapshot in: counters and histograms add,
        gauges take the incoming level.  This is how worker-process
        metrics aggregate into the serving driver's registry."""
        for name, payload in snapshot.items():
            kind = payload.get("type")
            if kind == "counter":
                self.counter(name).inc(int(payload["value"]))
            elif kind == "gauge":
                self.gauge(name).set(payload["value"])
            elif kind == "histogram":
                incoming = Histogram.from_dict(payload)
                self.histogram(name, incoming.bounds).merge(incoming)
            else:
                raise ValueError(
                    f"metric {name!r} has unknown type {kind!r}")

    def clear(self) -> None:
        self._metrics.clear()


def _is_timing_name(name: str) -> bool:
    leaf = name.rsplit(".", 1)[-1]
    return leaf.endswith("_ns") or leaf.endswith("_s")


def filter_timing(snapshot: dict[str, dict]) -> dict[str, dict]:
    """Drop timing-valued entries (leaf name ending ``_ns``/``_s``).

    What survives is deterministic for seeded runs — the basis of the
    byte-identical-snapshot guarantee in :mod:`repro.obs`.
    """
    return {name: payload for name, payload in snapshot.items()
            if not _is_timing_name(name)}
