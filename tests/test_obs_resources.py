"""Resource-plane tests: /proc parsing against fixture files, sampler
lifecycle, labelled-gauge export, watermark attribution, and SIGUSR1
dump atomicity while sampling."""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.obs import observed_command
from repro.obs.metrics import (
    LabeledGauge,
    MetricsRegistry,
    NullMetric,
    parse_prometheus_text,
    reset_global_registry,
)
from repro.obs.resources import (
    ResourceSampler,
    count_open_fds,
    read_io,
    read_statm,
    read_status,
    rusage_snapshot,
    total_memory_bytes,
)
from repro.obs.sampler import SamplingProfiler
from repro.runtime import faults
from repro.runtime.faults import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    chaos,
    fault_point,
    injected_counts,
    load_fault_plan,
)
from repro.obs.timeseries import MetricScraper, TimeSeriesStore
from repro.obs.trace import _SPAN_EXIT_HOOKS, get_tracer, reset_tracer


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_global_registry()
    yield
    reset_global_registry()


@pytest.fixture()
def proc_dir(tmp_path):
    """A synthetic /proc/self with parseable files."""
    root = tmp_path / "proc"
    root.mkdir()
    # 2000 resident pages, 3000 total, at whatever the page size is.
    (root / "statm").write_text("3000 2000 100 1 0 500 0\n")
    (root / "status").write_text(
        "Name:\tpytest\n"
        "VmSize:\t  12000 kB\n"
        "VmHWM:\t  9000 kB\n"
        "VmRSS:\t  8000 kB\n"
        "Threads:\t3\n"
    )
    (root / "io").write_text(
        "rchar: 100\nwchar: 50\nread_bytes: 4096\nwrite_bytes: 8192\n"
    )
    fd_dir = root / "fd"
    fd_dir.mkdir()
    for n in range(4):
        (fd_dir / str(n)).write_text("")
    return root


class TestProcParsing:
    def test_statm_good(self, proc_dir):
        rss, vms = read_statm(proc_dir / "statm", page_size=4096)
        assert rss == 2000 * 4096
        assert vms == 3000 * 4096

    def test_statm_missing(self, tmp_path):
        assert read_statm(tmp_path / "nope") is None

    def test_statm_truncated(self, tmp_path):
        path = tmp_path / "statm"
        path.write_text("3000")
        assert read_statm(path) is None
        path.write_text("")
        assert read_statm(path) is None

    def test_statm_garbled(self, tmp_path):
        path = tmp_path / "statm"
        path.write_text("lots of garbage here\n")
        assert read_statm(path) is None
        path.write_text("-3 -4 0 0\n")
        assert read_statm(path) is None

    def test_status_good(self, proc_dir):
        fields = read_status(proc_dir / "status")
        assert fields["VmRSS"] == 8000 * 1024
        assert fields["VmHWM"] == 9000 * 1024
        assert fields["VmSize"] == 12000 * 1024
        assert fields["Threads"] == 3

    def test_status_garbled_lines_skipped(self, tmp_path):
        path = tmp_path / "status"
        path.write_text(
            "VmRSS:\tnot-a-number kB\n"
            "no colon separator\n"
            "VmHWM:\t  500 kB\n"
            "Threads:\n"
        )
        fields = read_status(path)
        assert fields == {"VmHWM": 500 * 1024}

    def test_status_missing(self, tmp_path):
        assert read_status(tmp_path / "nope") == {}

    def test_io_good_and_garbled(self, proc_dir, tmp_path):
        assert read_io(proc_dir / "io") == {
            "read_bytes": 4096, "write_bytes": 8192,
        }
        bad = tmp_path / "io"
        bad.write_text("read_bytes: xx\nwrite_bytes: -1\n")
        assert read_io(bad) == {}
        assert read_io(tmp_path / "nope") == {}

    def test_count_open_fds(self, proc_dir, tmp_path):
        assert count_open_fds(proc_dir / "fd") == 4
        assert count_open_fds(tmp_path / "nope") is None

    def test_rusage_snapshot(self):
        usage = rusage_snapshot()
        assert usage["maxrss_bytes"] > 0
        assert usage["cpu_seconds"] >= 0

    def test_total_memory_bytes_fixture(self, tmp_path):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:  2048 kB\nMemFree: 1024 kB\n")
        assert total_memory_bytes(meminfo) == 2048 * 1024
        assert total_memory_bytes(tmp_path / "nope") is None
        meminfo.write_text("MemTotal: garbage kB\n")
        assert total_memory_bytes(meminfo) is None


class TestResourceSampler:
    def test_sample_from_fixture_proc(self, proc_dir):
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry=registry, proc_root=proc_dir)
        assert sampler.proc_available
        out = sampler.sample_once()
        page = sampler.page_size
        assert out["rss_bytes"] == 2000 * page
        assert out["vms_bytes"] == 3000 * page
        assert out["rss_peak_bytes"] == 9000 * 1024
        assert out["threads"] == 3
        assert out["open_fds"] == 4
        assert registry.get("process_rss_bytes").value == 2000 * page
        assert registry.get("process_threads").value == 3

    def test_non_linux_fallback_uses_rusage(self, tmp_path):
        registry = MetricsRegistry()
        empty = tmp_path / "empty"
        empty.mkdir()
        sampler = ResourceSampler(registry=registry, proc_root=empty)
        assert not sampler.proc_available
        out = sampler.sample_once()
        # No statm: the rusage peak stands in for current RSS so the
        # memory-budget rule still has a value to evaluate.
        assert out["rss_peak_bytes"] > 0
        assert out["rss_bytes"] == out["rss_peak_bytes"]
        assert "vms_bytes" not in out

    def test_io_counters_are_deltas(self, proc_dir):
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry=registry, proc_root=proc_dir)
        sampler.sample_once()
        # First sample primes the baseline; counters stay at zero.
        assert registry.get("process_io_read_bytes_total").value == 0
        (proc_dir / "io").write_text(
            "read_bytes: 6144\nwrite_bytes: 8192\n"
        )
        sampler.sample_once()
        assert registry.get("process_io_read_bytes_total").value == 2048
        assert registry.get("process_io_write_bytes_total").value == 0

    def test_cpu_percent_between_samples(self, proc_dir):
        clock = iter([100.0, 101.0, 102.0, 103.0]).__next__
        registry = MetricsRegistry()
        sampler = ResourceSampler(
            registry=registry, proc_root=proc_dir, clock=clock
        )
        first = sampler.sample_once()
        assert "cpu_percent" not in first  # needs a previous sample
        second = sampler.sample_once()
        assert "cpu_percent" in second
        assert second["cpu_percent"] >= 0

    def test_start_stop_idempotent(self, proc_dir):
        registry = MetricsRegistry()
        sampler = ResourceSampler(registry=registry, proc_root=proc_dir)
        hooks_before = len(_SPAN_EXIT_HOOKS)
        callbacks_before = len(gc.callbacks)
        sampler.start(interval_s=0.01)
        thread = sampler._thread
        sampler.start(interval_s=0.01)  # no second thread
        assert sampler._thread is thread
        assert len(_SPAN_EXIT_HOOKS) == hooks_before + 1
        assert len(gc.callbacks) == callbacks_before + 1
        sampler.stop()
        sampler.stop()  # idempotent
        assert not sampler.running
        assert len(_SPAN_EXIT_HOOKS) == hooks_before
        assert len(gc.callbacks) == callbacks_before
        assert sampler.samples_taken >= 1  # final sample on stop

    def test_span_watermark_attribution(self, proc_dir):
        registry = MetricsRegistry()
        sampler = ResourceSampler(
            registry=registry, proc_root=proc_dir,
            watermark_interval_s=0.0,
        )
        sampler.install()
        try:
            reset_tracer()
            with get_tracer().span("stage.unit-test"):
                pass
            marks = sampler.watermarks()
            assert marks["stage.unit-test"] == 2000 * sampler.page_size
        finally:
            sampler.uninstall()

    def test_watermark_only_rises(self, proc_dir):
        registry = MetricsRegistry()
        sampler = ResourceSampler(
            registry=registry, proc_root=proc_dir,
            watermark_interval_s=0.0,
        )
        sampler.install()
        try:
            reset_tracer()
            with get_tracer().span("stage.peak"):
                pass
            (proc_dir / "statm").write_text("3000 100 0 0 0 0 0\n")
            with get_tracer().span("stage.peak"):
                pass
            # Second pass saw a lower RSS: the watermark must hold.
            assert sampler.watermarks()["stage.peak"] == (
                2000 * sampler.page_size
            )
        finally:
            sampler.uninstall()

    def test_attach_rides_scraper_cadence(self, proc_dir, tmp_path):
        registry = MetricsRegistry()
        scraper = MetricScraper(
            TimeSeriesStore(tmp_path / "ts"),
            registry=registry, interval_s=60.0,
        )
        sampler = ResourceSampler(registry=registry, proc_root=proc_dir)
        sampler.attach(scraper)
        try:
            sample = scraper.scrape_once(ts=100.0)
            # The collector ran *before* the registry scrape, so the
            # persisted sample already carries the resource gauges.
            assert sample["m"]["process_rss_bytes"][1] == (
                2000 * sampler.page_size
            )
            assert sampler.samples_taken == 1
        finally:
            sampler.uninstall()

    def test_collector_errors_counted_not_fatal(self, tmp_path):
        registry = MetricsRegistry()
        scraper = MetricScraper(
            TimeSeriesStore(tmp_path / "ts"),
            registry=registry, interval_s=60.0,
        )

        def bad_collector():
            raise RuntimeError("collector boom")

        scraper.add_collector(bad_collector)
        sample = scraper.scrape_once(ts=100.0)
        assert sample is not None
        assert scraper.collector_errors == 1

    def test_enricher_errors_counted_on_registry(self, tmp_path):
        registry = MetricsRegistry()
        scraper = MetricScraper(
            TimeSeriesStore(tmp_path / "ts"),
            registry=registry, interval_s=60.0,
        )

        def bad_enricher():
            raise RuntimeError("enricher boom")

        scraper.add_enricher(bad_enricher)
        scraper.scrape_once(ts=100.0)
        assert scraper.enricher_errors == 1
        assert registry.get("scraper_enricher_errors_total").value == 1

    def test_alloc_diffing_opt_in(self, proc_dir):
        registry = MetricsRegistry()
        sampler = ResourceSampler(
            registry=registry, proc_root=proc_dir, alloc_top_n=5
        )
        sampler.install()
        try:
            sampler.sample_once()
            ballast = [bytearray(64 * 1024) for _ in range(32)]
            sampler.sample_once()
            assert sampler.alloc_top, "allocation diff must be captured"
            assert {"location", "size_diff_bytes", "count_diff"} <= set(
                sampler.alloc_top[0]
            )
            del ballast
        finally:
            sampler.uninstall()


class TestLabeledGauge:
    def test_set_max_is_a_watermark(self):
        gauge = LabeledGauge("rss_peak_bytes", label="stage")
        gauge.set_max("a", 10)
        gauge.set_max("a", 5)
        assert gauge.get("a") == 10
        gauge.set_max("a", 20)
        assert gauge.get("a") == 20
        assert gauge.values() == {"a": 20.0}

    def test_registry_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.labeled_gauge("family", label="stage")
        with pytest.raises(ValueError):
            registry.labeled_gauge("family", label="worker", exist_ok=True)

    def test_prometheus_roundtrip(self):
        registry = MetricsRegistry()
        gauge = registry.labeled_gauge(
            "rss_peak_bytes", "peaks", label="stage"
        )
        gauge.set("stage.a", 123.0)
        gauge.set("stage.b", 456.0)
        registry.labeled_gauge("empty_family", "nothing yet", label="gen")
        parsed = parse_prometheus_text(registry.render_prometheus())
        samples = {
            labels: value
            for _n, labels, value in parsed["rss_peak_bytes"]["samples"]
        }
        assert samples == {
            'stage="stage.a"': 123.0, 'stage="stage.b"': 456.0,
        }
        # An empty family renders a placeholder so strict parsing
        # ("metric has no samples") still passes.
        assert parsed["empty_family"]["samples"] == [
            ("empty_family", 'gen=""', 0.0)
        ]

    def test_null_metric_supports_labeled_api(self):
        null = NullMetric()
        null.set("a", 1)
        null.set_max("a", 2)
        assert null.get("a") is None
        assert null.values() == {}


class TestLeakFault:
    """The ``leak``/``release`` fault kinds behind the rss-growth drill."""

    @staticmethod
    def _plan(size_bytes, windows):
        return FaultPlan(name="leak", faults=[
            FaultSpec(name="leak", site="stream.window", kind="leak",
                      times=windows, size_bytes=size_bytes),
            FaultSpec(name="release", site="stream.window", kind="release",
                      at=windows),
        ])

    @staticmethod
    def _retained():
        return sum(len(chunk) for chunk in faults._BALLAST)

    def test_example_plan_parses(self):
        plan = load_fault_plan(
            Path(__file__).resolve().parents[1]
            / "examples" / "fault_plans" / "leak.json"
        )
        leak, release = plan.faults
        assert (leak.kind, leak.size_bytes, leak.times) == (
            "leak", 8 * 1024 * 1024, 100
        )
        assert (release.kind, release.at) == ("release", 100)

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param({}, id="missing-size"),
            pytest.param({"size_bytes": 0}, id="zero-size"),
            pytest.param({"size_bytes": -4096}, id="negative-size"),
            pytest.param({"size_bytes": "a"}, id="non-numeric-size"),
            pytest.param({"size_bytes": 4096, "times": 0}, id="zero-times"),
            pytest.param({"size_bytes": 4096, "windows": 3},
                         id="unknown-key"),
            pytest.param({"size_bytes": 4096, "kind": "release"},
                         id="size-on-release"),
        ],
    )
    def test_bad_leak_specs_rejected(self, extra):
        raw = {"name": "l", "site": "stream.window", "kind": "leak", **extra}
        with pytest.raises(FaultPlanError):
            FaultSpec.from_dict(raw)

    def test_retain_then_release(self):
        with chaos(self._plan(4096, 3)) as plan:
            for window, expect in enumerate((4096, 8192, 12288)):
                fault_point("stream.window", index=window)
                assert self._retained() == expect
            fault_point("stream.window", index=3)  # the release window
            assert self._retained() == 0
            fault_point("stream.window", index=4)  # no re-leak
            assert self._retained() == 0
            assert injected_counts(plan) == {"leak": 3, "release": 1}

    def test_disarming_drops_the_ballast(self):
        with chaos(self._plan(4096, 3)):
            fault_point("stream.window", index=0)
            assert self._retained() == 4096
        assert self._retained() == 0

    def test_stream_engine_window_close_fires_the_site(self):
        from repro.stream import StreamEngine, WindowPolicy
        from tests.test_obs_e2e_alerting import _hit

        engine = StreamEngine(policy=WindowPolicy(window_events=10))
        with chaos(self._plan(1024, 2)) as plan:
            for n in range(35):
                engine.ingest(_hit(n % 5, n, True))
            assert engine.windows_advanced == 3
            # 2 leaked windows + the third close released the ballast.
            assert injected_counts(plan) == {"leak": 2, "release": 1}
            assert self._retained() == 0


class TestSamplingProfiler:
    def test_start_stop_idempotent_and_collapsed_format(self, tmp_path):
        sampler = SamplingProfiler(interval_s=0.001)
        sampler.start()
        thread = sampler._thread
        sampler.start()  # already running: no respawn
        assert sampler.running and sampler._thread is thread
        deadline = time.time() + 2.0
        while sampler.samples == 0 and time.time() < deadline:
            sum(n * n for n in range(20_000))
        sampler.stop()
        sampler.stop()
        assert sampler.samples > 0
        lines = sampler.collapsed()
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0
            assert ";" in stack or "(" in stack
        out = sampler.write_collapsed(tmp_path / "prof.collapsed")
        assert out.read_text().splitlines() == lines

    def test_chrome_trace_joined_to_trace_id(self):
        sampler = SamplingProfiler(interval_s=0.001)
        sampler._counts[("root (a.py:1)", "leaf (b.py:2)")] = 7
        sampler.samples = 7
        trace = sampler.to_chrome_trace(trace_id="trace-xyz")
        assert trace["otherData"]["kind"] == "sampling-profile"
        assert trace["otherData"]["trace_id"] == "trace-xyz"
        (event,) = trace["traceEvents"]
        assert event["name"] == "leaf (b.py:2)"
        assert event["args"]["stack"] == "root (a.py:1);leaf (b.py:2)"
        assert event["dur"] == pytest.approx(7 * 0.001 * 1e6)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_s=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_depth=0)


@pytest.mark.skipif(
    not hasattr(signal, "SIGUSR1"), reason="needs SIGUSR1"
)
class TestSigusr1DuringSampling:
    def test_dump_mid_sample_parses_strictly(self, tmp_path):
        """A SIGUSR1 dump racing the resource sampler and the stack
        sampler must still produce a strictly-parseable snapshot."""
        metrics_out = tmp_path / "mid.prom"
        with observed_command(
            "unit", metrics_out=metrics_out, prof_sample=True,
            prof_sample_out=tmp_path / "mid.collapsed",
            prof_sample_interval_s=0.001,
        ):
            sampler = ResourceSampler()
            sampler.start(interval_s=0.001)
            try:
                deadline = time.time() + 2.0
                while sampler.samples_taken < 3 and time.time() < deadline:
                    time.sleep(0.005)
                os.kill(os.getpid(), signal.SIGUSR1)
                # Give the handler a beat while sampling continues.
                time.sleep(0.02)
                parsed = parse_prometheus_text(metrics_out.read_text())
                assert "process_rss_bytes" in parsed
            finally:
                sampler.stop()
        # The exit dump (racing the final sample) must also parse.
        parsed = parse_prometheus_text(metrics_out.read_text())
        assert parsed["process_rss_bytes"]["samples"][0][2] > 0
        assert (tmp_path / "mid.collapsed").exists()
        assert (tmp_path / "mid.collapsed.trace.json").exists()
