"""Tests for repro.telemetry.metrics and the stats migration onto it."""

import pytest

from repro.inet.engine import OutcomeCache, PropagationEngine
from repro.inet.gen import InternetConfig, build_internet
from repro.inet.routing import Announcement, OriginSpec
from repro.telemetry.metrics import (
    MetricError,
    MetricsRegistry,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        counter = registry.counter("peering_ops_total", "ops")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_labels_are_independent_children(self, registry):
        counter = registry.counter("peering_ops_total", "ops", ("server",))
        counter.labels("a").inc()
        counter.labels("b").inc(4)
        assert counter.labels("a").value == 1.0
        assert counter.labels("b").value == 4.0
        assert counter.value == 5.0  # family value sums children

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("peering_ops_total", "ops")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_wrong_label_count_rejected(self, registry):
        counter = registry.counter("peering_ops_total", "ops", ("server",))
        with pytest.raises(MetricError):
            counter.labels("a", "b")


class TestGauge:
    def test_set_and_adjust(self, registry):
        gauge = registry.gauge("peering_depth", "depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7.0


class TestHistogram:
    def test_observe_buckets_sum_count(self, registry):
        histogram = registry.histogram(
            "peering_seconds", "latency", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        child = histogram.labels()
        assert child.count == 3
        assert child.sum == pytest.approx(5.55)
        cumulative = dict(child.cumulative())
        assert cumulative[0.1] == 1
        assert cumulative[1.0] == 2
        assert cumulative[float("inf")] == 3


class TestRegistry:
    def test_reregistration_is_idempotent(self, registry):
        first = registry.counter("peering_ops_total", "ops", ("server",))
        second = registry.counter("peering_ops_total", "ops", ("server",))
        assert first is second

    def test_type_mismatch_raises(self, registry):
        registry.counter("peering_ops_total", "ops")
        with pytest.raises(MetricError):
            registry.gauge("peering_ops_total", "ops")

    def test_label_mismatch_raises(self, registry):
        registry.counter("peering_ops_total", "ops", ("server",))
        with pytest.raises(MetricError):
            registry.counter("peering_ops_total", "ops", ("client",))

    def test_export_text_format(self, registry):
        counter = registry.counter("peering_ops_total", "ops total", ("server",))
        counter.labels("ams\n\"x\"").inc()
        text = registry.export_text()
        assert "# HELP peering_ops_total ops total" in text
        assert "# TYPE peering_ops_total counter" in text
        # label values are escaped per the exposition format
        assert 'peering_ops_total{server="ams\\n\\"x\\""} 1' in text

    def test_export_histogram_series(self, registry):
        registry.histogram("peering_seconds", "latency", buckets=(1.0,)).observe(0.5)
        text = registry.export_text()
        assert 'peering_seconds_bucket{le="1"} 1' in text
        assert 'peering_seconds_bucket{le="+Inf"} 1' in text
        assert "peering_seconds_sum 0.5" in text
        assert "peering_seconds_count 1" in text


class TestOutcomeCacheMigration:
    """The cache's stat dict moved onto MetricsRegistry; the old int API
    must keep working (satellite: summary stays a thin view)."""

    def test_counts_via_properties(self):
        cache = OutcomeCache(maxsize=2)
        cache.put(("a",), "A")
        assert cache.get(("a",)) == "A"
        assert cache.get(("b",)) is None
        assert isinstance(cache.hits, int) and cache.hits == 1
        assert cache.misses == 1
        cache.put(("b",), "B")
        cache.put(("c",), "C")
        assert cache.evictions == 1

    def test_stats_shape_unchanged(self):
        cache = OutcomeCache(maxsize=4)
        stats = cache.stats()
        assert set(stats) == {"size", "maxsize", "hits", "misses", "evictions"}

    def test_shared_registry_exports_cache_series(self):
        registry = MetricsRegistry()
        cache = OutcomeCache(maxsize=4, metrics=registry, name="test")
        cache.get(("missing",))
        text = registry.export_text()
        assert 'peering_cache_misses_total{cache="test"} 1' in text


class TestEngineMigration:
    def test_compile_and_run_counters(self):
        internet = build_internet(InternetConfig(n_ases=80, seed=5, total_prefixes=1000))
        registry = MetricsRegistry()
        engine = PropagationEngine(internet.graph, metrics=registry)
        origin = OriginSpec(asn=next(internet.graph.asns()))
        engine.propagate(Announcement(origins=(origin,)))
        assert engine.compile_count == 1
        assert registry.get("peering_propagation_compiles_total").value == 1.0
        assert registry.get("peering_propagation_runs_total").value == 1.0
        assert registry.get("peering_propagation_seconds").labels().count == 1
