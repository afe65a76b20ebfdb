"""Unified metrics layer: thread safety, exports, global registry."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.metrics import (
    BATCH_STAGE_BUCKETS,
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MeterCache,
    MetricsRegistry,
    NULL_METRIC,
    PrometheusFormatError,
    global_registry,
    instrument,
    metrics_enabled,
    parse_prometheus_text,
    reset_global_registry,
    set_enabled,
)


@pytest.fixture(autouse=True)
def _fresh_global_state():
    """Every test gets its own global registry, observability on."""
    set_enabled(True)
    reset_global_registry()
    yield
    set_enabled(True)
    reset_global_registry()


class TestThreadSafety:
    def test_counter_increments_do_not_race(self):
        counter = Counter("c")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(10_000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000

    def test_histogram_observations_do_not_race(self):
        hist = Histogram("h", bounds=(0.5,))
        threads = [
            threading.Thread(
                target=lambda: [hist.observe(0.1) for _ in range(10_000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.count == 80_000
        assert hist.bucket_counts[0] == 80_000


class TestQuantileSentinels:
    """The documented edge-case contract (regression pin)."""

    def test_empty_histogram_returns_none_for_every_quantile(self):
        hist = Histogram("h", bounds=(0.1, 1.0))
        assert hist.quantile(0.5) is None
        assert hist.quantile(0.99) is None
        assert hist.quantile(1.0) is None

    def test_quantile_of_exactly_one_is_max_populated_bound(self):
        hist = Histogram("h", bounds=(0.1, 1.0, 10.0))
        hist.observe(0.05)
        hist.observe(0.7)
        assert hist.quantile(1.0) == 1.0

    def test_quantile_of_one_with_overflow_is_inf(self):
        hist = Histogram("h", bounds=(0.1,))
        hist.observe(0.05)
        hist.observe(99.0)
        assert hist.quantile(1.0) == float("inf")

    def test_quantile_of_one_never_underreports_from_float_error(self):
        # Many observations: a naive rank accumulation (0.999... * n)
        # can land one bucket short; q == 1.0 must short-circuit.
        hist = Histogram("h", bounds=(0.1, 1.0))
        for _ in range(1_000_000):
            hist.observe(0.05)
        hist.observe(0.5)
        assert hist.quantile(1.0) == 1.0

    def test_out_of_range_quantiles_rejected(self):
        hist = Histogram("h", bounds=(1.0,))
        with pytest.raises(ValueError):
            hist.quantile(0.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestBucketPresets:
    def test_default_latency_buckets_resolve_sub_millisecond(self):
        # The serving plane's p99 < 1ms SLO needs resolution *below*
        # the SLO bound: 10us floor, 750us as the last sub-ms edge,
        # and at least five edges strictly under 1ms.
        assert DEFAULT_LATENCY_BUCKETS[0] == 0.00001
        assert 0.00075 in DEFAULT_LATENCY_BUCKETS
        assert 1.0 == DEFAULT_LATENCY_BUCKETS[-1]
        sub_ms = [b for b in DEFAULT_LATENCY_BUCKETS if b < 0.001]
        assert len(sub_ms) >= 5
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_batch_stage_buckets_cover_seconds_scale(self):
        assert BATCH_STAGE_BUCKETS[0] == 0.001
        assert BATCH_STAGE_BUCKETS[-1] == 60.0
        assert list(BATCH_STAGE_BUCKETS) == sorted(BATCH_STAGE_BUCKETS)

    def test_count_buckets_cover_event_counts(self):
        assert COUNT_BUCKETS[0] == 1.0
        assert COUNT_BUCKETS[-1] == 10_000_000.0
        assert list(COUNT_BUCKETS) == sorted(COUNT_BUCKETS)


class TestExportSnapshots:
    """Exports are deep snapshots -- no aliasing of live state."""

    def test_mutating_export_does_not_corrupt_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(0.1, 1.0))
        hist.observe(0.05)
        snapshot = registry.as_dict()
        snapshot["h"]["buckets"]["0.1"] = 999
        snapshot["h"]["count"] = 999
        again = registry.as_dict()
        assert again["h"]["buckets"]["0.1"] == 1
        assert again["h"]["count"] == 1
        assert hist.bucket_counts[0] == 1

    def test_bucket_lists_are_not_shared_references(self):
        hist = Histogram("h", bounds=(0.1,))
        hist.observe(0.05)
        export = hist.as_dict()
        export["buckets"].clear()
        assert hist.as_dict()["buckets"] == {"0.1": 1}

    def test_json_render_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        raw = json.loads(registry.render_json())
        assert raw["c"]["value"] == 3


class TestRegistry:
    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_exist_ok_returns_the_existing_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("x", exist_ok=True)
        second = registry.counter("x", exist_ok=True)
        assert first is second

    def test_exist_ok_still_rejects_kind_mismatch(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x", exist_ok=True)


class TestPrometheusExport:
    def test_render_parses_back(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs").inc(7)
        registry.gauge("depth", "queue depth").set(2.5)
        hist = registry.histogram("lat_seconds", "latency", bounds=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(50.0)
        parsed = parse_prometheus_text(registry.render_prometheus())
        assert parsed["jobs_total"]["type"] == "counter"
        samples = {
            name: value
            for name, _labels, value in parsed["lat_seconds"]["samples"]
        }
        assert samples["lat_seconds_count"] == 2
        # Buckets are cumulative and +Inf covers everything.
        bucket = {
            labels: value
            for name, labels, value in parsed["lat_seconds"]["samples"]
            if name == "lat_seconds_bucket"
        }
        assert bucket['le="0.1"'] == 1
        assert bucket['le="+Inf"'] == 2

    def test_every_metric_carries_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "the a counter")
        text = registry.render_prometheus()
        assert "# HELP a_total the a counter" in text
        assert "# TYPE a_total counter" in text

    def test_parser_rejects_duplicate_names(self):
        bad = (
            "# HELP x_total x\n# TYPE x_total counter\nx_total 1\n"
            "# HELP x_total x\n# TYPE x_total counter\nx_total 2\n"
        )
        with pytest.raises(PrometheusFormatError):
            parse_prometheus_text(bad)

    def test_parser_rejects_samples_without_declarations(self):
        with pytest.raises(PrometheusFormatError):
            parse_prometheus_text("mystery_total 1\n")

    def test_parser_rejects_bad_values(self):
        bad = "# HELP x x\n# TYPE x gauge\nx banana\n"
        with pytest.raises(PrometheusFormatError):
            parse_prometheus_text(bad)


class TestGlobalRegistry:
    def test_instrument_registers_on_the_global_registry(self):
        counter = instrument("counter", "things_total", "things")
        counter.inc(2)
        assert global_registry().get("things_total").value == 2

    def test_instrument_is_idempotent(self):
        first = instrument("counter", "things_total")
        second = instrument("counter", "things_total")
        assert first is second

    def test_disabled_instrumentation_is_a_null_metric(self):
        set_enabled(False)
        assert not metrics_enabled()
        metric = instrument("counter", "things_total")
        assert metric is NULL_METRIC
        metric.inc(5)  # no-op, no error
        set_enabled(True)
        assert "things_total" not in global_registry().names()

    def test_reset_swaps_the_registry(self):
        instrument("counter", "things_total").inc(1)
        fresh = reset_global_registry()
        assert "things_total" not in fresh.names()
        assert global_registry() is fresh


class TestMeterCache:
    def test_handles_survive_within_one_registry(self):
        cache = MeterCache(lambda: (instrument("counter", "c_total"),))
        (first,) = cache.resolve()
        (second,) = cache.resolve()
        assert first is second

    def test_cache_invalidates_on_registry_reset(self):
        cache = MeterCache(lambda: (instrument("counter", "c_total"),))
        (stale,) = cache.resolve()
        stale.inc(5)
        reset_global_registry()
        (fresh,) = cache.resolve()
        assert fresh is not stale
        fresh.inc(1)
        assert global_registry().get("c_total").value == 1

    def test_cache_invalidates_on_enable_toggle(self):
        cache = MeterCache(lambda: (instrument("counter", "c_total"),))
        cache.resolve()
        set_enabled(False)
        (nulled,) = cache.resolve()
        assert nulled is NULL_METRIC
        set_enabled(True)
        (live,) = cache.resolve()
        assert live is not NULL_METRIC
