"""Unit tests for the metrics half of :mod:`repro.obs`.

Pins the numeric contracts the instrumentation relies on: bucket-edge
assignment, interpolated percentiles, exact merges, registry typing,
sorted snapshots, and the timing-name filter behind the
deterministic-snapshot guarantee.
"""

import json

import pytest

from repro.obs import (
    Histogram,
    LATENCY_S_BOUNDS,
    MetricsRegistry,
    TIME_NS_BOUNDS,
    exponential_bounds,
    filter_timing,
)


def histogram_of(values, bounds):
    histogram = Histogram(bounds)
    for value in values:
        histogram.record(value)
    return histogram


class TestExponentialBounds:
    def test_values(self):
        assert exponential_bounds(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    @pytest.mark.parametrize("start,factor,count",
                             [(0.0, 2.0, 4), (-1.0, 2.0, 4),
                              (1.0, 1.0, 4), (1.0, 0.5, 4),
                              (1.0, 2.0, 0)])
    def test_rejects_degenerate(self, start, factor, count):
        with pytest.raises(ValueError):
            exponential_bounds(start, factor, count)

    def test_default_bounds_are_strictly_increasing(self):
        for bounds in (TIME_NS_BOUNDS, LATENCY_S_BOUNDS):
            assert all(a < b for a, b in zip(bounds, bounds[1:]))


class TestHistogramBuckets:
    """Bucket assignment: first bucket whose upper edge satisfies
    ``value <= edge``; past the last edge lands in overflow."""

    def test_edge_values_land_in_their_bucket(self):
        h = Histogram((1.0, 2.0, 4.0))
        # A value exactly on an edge belongs to that edge's bucket.
        h.record(1.0)   # bucket 0 (<= 1.0)
        h.record(1.5)   # bucket 1
        h.record(2.0)   # bucket 1 (<= 2.0)
        h.record(4.0)   # bucket 2
        h.record(4.1)   # overflow
        h.record(0.0)   # bucket 0
        assert h.bucket_counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.min_value == 0.0 and h.max_value == 4.1
        assert h.total == pytest.approx(12.6)

    def test_overflow_bucket_is_implicit(self):
        h = Histogram((10.0,))
        assert len(h.bucket_counts) == 2
        h.record(1e9)
        assert h.bucket_counts == [0, 1]

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))


class TestHistogramPercentiles:
    def test_empty_reports_zero(self):
        assert Histogram((1.0,)).percentile(0.5) == 0.0

    def test_clamped_to_observed_extremes(self):
        h = histogram_of([5.0, 5.0, 5.0], (1.0, 10.0, 100.0))
        assert h.percentile(0.0) == 5.0
        assert h.percentile(1.0) == 5.0

    def test_interpolates_within_bucket(self):
        h = histogram_of(range(1, 101), (25.0, 50.0, 75.0, 100.0))
        assert h.percentile(0.50) == pytest.approx(50.0, abs=1.0)
        assert h.percentile(0.99) == pytest.approx(99.0, abs=1.0)

    def test_fraction_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram((1.0,)).percentile(1.5)


class TestHistogramMerge:
    def test_merge_is_exact_bucketwise_addition(self):
        bounds = (1.0, 2.0, 4.0)
        a = histogram_of([0.5, 1.5, 3.0], bounds)
        b = histogram_of([3.5, 100.0], bounds)
        combined = histogram_of([0.5, 1.5, 3.0, 3.5, 100.0], bounds)
        a.merge(b)
        assert a.bucket_counts == combined.bucket_counts
        assert a.count == combined.count
        assert a.total == pytest.approx(combined.total)
        assert a.min_value == combined.min_value
        assert a.max_value == combined.max_value

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            Histogram((1.0, 2.0)).merge(Histogram((1.0, 3.0)))

    def test_copy_is_independent(self):
        original = histogram_of([1.0], (2.0,))
        clone = original.copy()
        clone.record(1.0)
        assert original.count == 1 and clone.count == 2

    def test_as_dict_from_dict_roundtrip(self):
        h = histogram_of([0.5, 3.0, 9.0], (1.0, 4.0))
        rebuilt = Histogram.from_dict(
            json.loads(json.dumps(h.as_dict())))
        assert rebuilt.as_dict() == h.as_dict()


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError):
            registry.gauge("a.b")
        with pytest.raises(ValueError):
            registry.histogram("a.b")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("a").inc(-1)

    def test_snapshot_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.inc("z.last")
        registry.set_gauge("a.first", 3.5)
        registry.observe("m.middle.time_ns", 1500.0)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        json.dumps(snapshot)  # must be serialisable as-is
        assert snapshot["z.last"] == {"type": "counter", "value": 1}
        assert snapshot["a.first"]["type"] == "gauge"
        assert snapshot["m.middle.time_ns"]["count"] == 1

    def test_merge_snapshot_semantics(self):
        """Counters add, gauges take the incoming level, histograms
        merge — the worker-to-driver aggregation rule."""
        driver = MetricsRegistry()
        driver.inc("engine.shots_total", 10)
        driver.set_gauge("queue.depth", 1)
        driver.observe("kernel.time_ns", 500.0)

        worker = MetricsRegistry()
        worker.inc("engine.shots_total", 7)
        worker.set_gauge("queue.depth", 9)
        worker.observe("kernel.time_ns", 2e9)

        driver.merge_snapshot(worker.snapshot())
        snapshot = driver.snapshot()
        assert snapshot["engine.shots_total"]["value"] == 17
        assert snapshot["queue.depth"]["value"] == 9
        assert snapshot["kernel.time_ns"]["count"] == 2
        assert snapshot["kernel.time_ns"]["max"] == 2e9

    def test_merge_snapshot_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            MetricsRegistry().merge_snapshot(
                {"x": {"type": "mystery", "value": 1}})

    def test_len_and_clear(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("b")
        assert len(registry) == 2
        registry.clear()
        assert len(registry) == 0


class TestFilterTiming:
    def test_strips_exactly_timing_leaves(self):
        snapshot = {
            "engine.replay.walk.time_ns": {"type": "counter", "value": 1},
            "service.point.latency_s": {"type": "histogram"},
            "engine.shots_total": {"type": "counter", "value": 5},
            # Leaf must *end with* "_ns"/"_s" — these all survive.
            "engine.ns.shots": {"type": "counter", "value": 2},
            "latency_s.count": {"type": "counter", "value": 3},
        }
        filtered = filter_timing(snapshot)
        assert sorted(filtered) == ["engine.ns.shots",
                                    "engine.shots_total",
                                    "latency_s.count"]
