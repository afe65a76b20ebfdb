"""Resource observability: continuous memory / CPU / GC / fd telemetry.

The telemetry spine (metrics, traces, time-series, alerts) observed
everything about the workload and nothing about the *process running
it* -- "bounded-RSS streaming" was asserted, never measured.  This
module closes that gap with a dependency-free
:class:`ResourceSampler` that reads::

    /proc/self/statm    -> process_rss_bytes, process_vms_bytes
    /proc/self/status   -> process_rss_peak_bytes (VmHWM), thread count
    /proc/self/io       -> process_io_read/write_bytes_total
    /proc/self/fd       -> process_open_fds
    resource.getrusage  -> process_cpu_seconds_total / process_cpu_percent
    gc callbacks        -> process_gc_collections_total, pause histogram

into the existing :class:`~repro.obs.metrics.MetricsRegistry`, on the
:class:`~repro.obs.timeseries.MetricScraper` cadence (registered as a
pre-scrape *collector*, so every persisted sample carries fresh
resource gauges) or on its own daemon thread.  Platforms without
``/proc`` degrade gracefully to a ``getrusage``-only view.

**Per-stage peak-RSS watermarks.**  A span-exit hook
(:func:`repro.obs.trace.add_span_exit_hook`) attributes the process
RSS observed when each span completes to that span's name in the
``rss_peak_bytes`` labelled gauge family -- so every pipeline stage
(``stage.merge``), shard (``shard.spot_shard``), stream window, and
serving-plane worker reports its own high-water mark.  The RSS read is
throttled (default 20ms) so serving paths that open thousands of spans
per second pay a cached comparison, not a ``/proc`` read, per span.

'leak``/``release`` faults at the ``stream.window`` site
(:mod:`repro.runtime.faults`) are the counterpart: deliberately
retained ballast per closed stream window, so the ``rss-growth`` leak
alert can be proven to fire -- and, once released, resolve -- against
a real process.
"""

from __future__ import annotations

import gc
import logging
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.trace import add_span_exit_hook, remove_span_exit_hook
from repro.runtime.logging import get_logger, log_event

_LOG = get_logger("obs.resources")

try:
    import resource as _resource
except ImportError:  # pragma: no cover -- non-POSIX platforms
    _resource = None

#: ``ru_maxrss`` unit: kilobytes everywhere except macOS (bytes).
_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024

#: GC pause buckets (seconds): 10us .. 1s.  Collections beyond 1s are
#: overflow -- by then the pause *is* the incident.
GC_PAUSE_BUCKETS = (
    0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0,
)


def _page_size() -> int:
    try:
        return os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return 4096


def read_statm(
    path: Union[str, Path], page_size: Optional[int] = None
) -> Optional[Tuple[int, int]]:
    """``(rss_bytes, vms_bytes)`` from a ``statm`` file, None if unusable.

    ``statm`` is whitespace-separated page counts: ``size resident
    shared text lib data dt``.  Truncated, empty, or garbled files --
    all of which a hard-killed or non-Linux environment can present --
    return None rather than raising.
    """
    try:
        text = Path(path).read_text()
    except OSError:
        return None
    fields = text.split()
    if len(fields) < 2:
        return None
    try:
        size_pages = int(fields[0])
        resident_pages = int(fields[1])
    except ValueError:
        return None
    if size_pages < 0 or resident_pages < 0:
        return None
    page = page_size if page_size is not None else _page_size()
    return resident_pages * page, size_pages * page


def read_status(path: Union[str, Path]) -> Dict[str, int]:
    """Selected fields from a ``/proc/self/status`` file.

    Returns ``{"VmRSS": bytes, "VmHWM": bytes, "VmSize": bytes,
    "Threads": count}`` for whichever fields parse; garbled lines are
    skipped individually, so one bad line never hides the rest.
    """
    try:
        text = Path(path).read_text()
    except OSError:
        return {}
    out: Dict[str, int] = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(":")
        if not sep:
            continue
        key = key.strip()
        parts = rest.split()
        if not parts:
            continue
        try:
            value = int(parts[0])
        except ValueError:
            continue
        if value < 0:
            continue
        if key in ("VmRSS", "VmHWM", "VmSize"):
            out[key] = value * 1024  # kB fields
        elif key == "Threads":
            out[key] = value
    return out


def read_io(path: Union[str, Path]) -> Dict[str, int]:
    """``read_bytes`` / ``write_bytes`` from a ``/proc/self/io`` file."""
    try:
        text = Path(path).read_text()
    except OSError:
        return {}
    out: Dict[str, int] = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(":")
        if not sep:
            continue
        key = key.strip()
        if key not in ("read_bytes", "write_bytes"):
            continue
        try:
            value = int(rest.strip())
        except ValueError:
            continue
        if value >= 0:
            out[key] = value
    return out


def count_open_fds(fd_dir: Union[str, Path]) -> Optional[int]:
    """Open descriptors via the ``/proc/self/fd`` directory, or None."""
    try:
        return len(os.listdir(fd_dir))
    except OSError:
        return None


def rusage_snapshot() -> Dict[str, float]:
    """``getrusage(RUSAGE_SELF)`` essentials: the non-Linux fallback.

    ``{"maxrss_bytes", "cpu_seconds"}``; empty when the :mod:`resource`
    module itself is unavailable (Windows).
    """
    if _resource is None:
        return {}
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    return {
        "maxrss_bytes": float(usage.ru_maxrss * _MAXRSS_SCALE),
        "cpu_seconds": float(usage.ru_utime + usage.ru_stime),
    }


def total_memory_bytes(
    meminfo: Union[str, Path] = "/proc/meminfo",
) -> Optional[int]:
    """``MemTotal`` in bytes, or None off-Linux (budget-rule resolution)."""
    try:
        text = Path(meminfo).read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("MemTotal:"):
            parts = line.split()
            if len(parts) >= 2 and parts[1].isdigit():
                return int(parts[1]) * 1024
    return None


class ResourceSampler:
    """Samples process resources into a :class:`MetricsRegistry`.

    Three ways to drive it, freely combined:

    - :meth:`sample_once` -- deterministic single sample (tests, CLI
      one-shots);
    - :meth:`attach` -- register as a :class:`MetricScraper` pre-scrape
      collector, so samples ride the scrape cadence and land in the
      same persisted time-series sample;
    - :meth:`start` / :meth:`stop` -- own daemon thread (processes
      without a scraper).  Both are idempotent.

    ``alloc_top_n > 0`` opts into :mod:`tracemalloc` allocation diffing
    between samples (real overhead -- opt-in only): the top-N growing
    allocation sites since the previous sample are kept on
    :attr:`alloc_top`.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        proc_root: Union[str, Path] = "/proc/self",
        clock=time.monotonic,
        watermark_interval_s: float = 0.02,
        alloc_top_n: int = 0,
    ) -> None:
        self._registry = registry
        self.proc_root = Path(proc_root)
        self.clock = clock
        self.watermark_interval_s = watermark_interval_s
        self.alloc_top_n = alloc_top_n
        self.page_size = _page_size()
        #: True when the proc filesystem yielded a parseable statm at
        #: least once; False means the getrusage-only fallback.
        self.proc_available = (
            read_statm(self.proc_root / "statm", self.page_size) is not None
        )
        self.samples_taken = 0
        #: Top-N growing allocation sites since the previous sample
        #: (``alloc_top_n`` opt-in), newest diff wins.
        self.alloc_top: List[Dict] = []
        self._installed = False
        self._tracing_started_here = False
        self._alloc_snapshot = None
        self._last_cpu: Optional[Tuple[float, float]] = None  # (clock, cpu_s)
        self._last_io: Dict[str, int] = {}
        self._cached_rss: Optional[float] = None
        self._cached_rss_at: float = float("-inf")
        self._gc_pause_started: Optional[float] = None
        self._handles = None
        self._handles_registry = None
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ---- registry plumbing ------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        # Late-bound like the scraper's: observed_command swaps the
        # global registry per run and the sampler must follow.
        return (
            self._registry
            if self._registry is not None
            else global_registry()
        )

    def _metrics(self):
        registry = self.registry
        if self._handles is None or self._handles_registry is not registry:
            self._handles = {
                "rss": registry.gauge(
                    "process_rss_bytes",
                    "resident set size", exist_ok=True),
                "vms": registry.gauge(
                    "process_vms_bytes",
                    "virtual memory size", exist_ok=True),
                "peak": registry.gauge(
                    "process_rss_peak_bytes",
                    "peak resident set size (VmHWM / ru_maxrss)",
                    exist_ok=True),
                "cpu_pct": registry.gauge(
                    "process_cpu_percent",
                    "CPU utilisation between samples (user+sys)",
                    exist_ok=True),
                "cpu_total": registry.counter(
                    "process_cpu_seconds_total",
                    "cumulative user+sys CPU seconds", exist_ok=True),
                "fds": registry.gauge(
                    "process_open_fds",
                    "open file descriptors", exist_ok=True),
                "threads": registry.gauge(
                    "process_threads",
                    "native threads", exist_ok=True),
                "io_read": registry.counter(
                    "process_io_read_bytes_total",
                    "bytes read from storage", exist_ok=True),
                "io_write": registry.counter(
                    "process_io_write_bytes_total",
                    "bytes written to storage", exist_ok=True),
                "gc_total": registry.counter(
                    "process_gc_collections_total",
                    "garbage collections observed via gc callbacks",
                    exist_ok=True),
                "gc_pause": registry.histogram(
                    "process_gc_pause_seconds",
                    "stop-the-world GC pause durations",
                    bounds=GC_PAUSE_BUCKETS, exist_ok=True),
                "gc_gen": registry.labeled_gauge(
                    "process_gc_collections",
                    "lifetime collections per GC generation",
                    label="gen", exist_ok=True),
                "watermarks": registry.labeled_gauge(
                    "rss_peak_bytes",
                    "peak RSS observed at each span's completion",
                    label="stage", exist_ok=True),
            }
            self._handles_registry = registry
        return self._handles

    # ---- sampling ---------------------------------------------------------

    def _read_rss(self) -> Optional[float]:
        statm = read_statm(self.proc_root / "statm", self.page_size)
        if statm is not None:
            return float(statm[0])
        usage = rusage_snapshot()
        maxrss = usage.get("maxrss_bytes")
        return float(maxrss) if maxrss else None

    def current_rss(self) -> Optional[float]:
        """RSS now, throttled: within ``watermark_interval_s`` of the
        last read the cached value is returned (span-exit hot path)."""
        now = self.clock()
        if now - self._cached_rss_at < self.watermark_interval_s:
            return self._cached_rss
        rss = self._read_rss()
        self._cached_rss = rss
        self._cached_rss_at = now
        return rss

    def sample_once(self) -> Dict[str, float]:
        """Take one resource sample; returns the sampled values."""
        with self._lock:
            return self._sample_locked()

    def _sample_locked(self) -> Dict[str, float]:
        handles = self._metrics()
        now = self.clock()
        out: Dict[str, float] = {}

        statm = read_statm(self.proc_root / "statm", self.page_size)
        if statm is not None:
            rss, vms = float(statm[0]), float(statm[1])
            handles["rss"].set(rss)
            handles["vms"].set(vms)
            out["rss_bytes"] = rss
            out["vms_bytes"] = vms
        status = read_status(self.proc_root / "status")
        usage = rusage_snapshot()
        peak = status.get("VmHWM")
        if peak is None:
            peak = usage.get("maxrss_bytes")
        if peak:
            handles["peak"].set(float(peak))
            out["rss_peak_bytes"] = float(peak)
        if statm is None and peak:
            # getrusage-only fallback: the peak is the best available
            # stand-in for current RSS, so budget rules still evaluate.
            handles["rss"].set(float(peak))
            out["rss_bytes"] = float(peak)
        if "Threads" in status:
            handles["threads"].set(status["Threads"])
            out["threads"] = float(status["Threads"])

        cpu_seconds = usage.get("cpu_seconds")
        if cpu_seconds is not None:
            if self._last_cpu is not None:
                last_clock, last_cpu = self._last_cpu
                wall = now - last_clock
                burned = cpu_seconds - last_cpu
                if wall > 0 and burned >= 0:
                    pct = 100.0 * burned / wall
                    handles["cpu_pct"].set(pct)
                    handles["cpu_total"].inc(burned)
                    out["cpu_percent"] = pct
            self._last_cpu = (now, cpu_seconds)

        fds = count_open_fds(self.proc_root / "fd")
        if fds is not None:
            handles["fds"].set(fds)
            out["open_fds"] = float(fds)

        io_now = read_io(self.proc_root / "io")
        for key, handle in (("read_bytes", handles["io_read"]),
                            ("write_bytes", handles["io_write"])):
            if key in io_now:
                delta = io_now[key] - self._last_io.get(key, io_now[key])
                if delta > 0:
                    handle.inc(delta)
                self._last_io[key] = io_now[key]

        for gen, stats in enumerate(gc.get_stats()):
            collections = stats.get("collections")
            if collections is not None:
                handles["gc_gen"].set(gen, collections)

        if self.alloc_top_n > 0:
            self._diff_allocations()

        self.samples_taken += 1
        return out

    def _diff_allocations(self) -> None:
        import tracemalloc

        if not tracemalloc.is_tracing():
            return
        snapshot = tracemalloc.take_snapshot()
        if self._alloc_snapshot is not None:
            diff = snapshot.compare_to(self._alloc_snapshot, "lineno")
            self.alloc_top = [
                {
                    "location": str(stat.traceback),
                    "size_diff_bytes": stat.size_diff,
                    "count_diff": stat.count_diff,
                }
                for stat in diff[: self.alloc_top_n]
            ]
        self._alloc_snapshot = snapshot

    # ---- hooks (span watermarks + gc callbacks) ---------------------------

    def _on_span_exit(self, span) -> None:
        rss = self.current_rss()
        if rss is not None:
            self._metrics()["watermarks"].set_max(span.name, rss)

    def _on_gc(self, phase: str, _info: Dict) -> None:
        if phase == "start":
            self._gc_pause_started = time.perf_counter()
            return
        handles = self._metrics()
        handles["gc_total"].inc()
        started = self._gc_pause_started
        if started is not None:
            handles["gc_pause"].observe(time.perf_counter() - started)
            self._gc_pause_started = None

    def install(self) -> None:
        """Register the span-exit watermark hook + gc callbacks.

        Idempotent; :meth:`uninstall` reverses it exactly once.
        """
        if self._installed:
            return
        add_span_exit_hook(self._on_span_exit)
        gc.callbacks.append(self._on_gc)
        if self.alloc_top_n > 0:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tracing_started_here = True
        self._installed = True
        log_event(
            _LOG, logging.DEBUG, "resources.install",
            proc_available=self.proc_available,
            alloc_top_n=self.alloc_top_n,
        )

    def uninstall(self) -> None:
        if not self._installed:
            return
        remove_span_exit_hook(self._on_span_exit)
        try:
            gc.callbacks.remove(self._on_gc)
        except ValueError:
            pass
        if self._tracing_started_here:
            import tracemalloc

            tracemalloc.stop()
            self._tracing_started_here = False
        self._alloc_snapshot = None
        self._installed = False

    def attach(self, scraper) -> None:
        """Ride a :class:`MetricScraper`: pre-scrape collector + hooks."""
        self.install()
        scraper.add_collector(self.sample_once)

    # ---- standalone thread ------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self, interval_s: float = 1.0) -> None:
        """Sample on a daemon thread every ``interval_s`` (idempotent)."""
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.install()
        if self.running:
            return
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, args=(interval_s,),
            name="cellspot-resource-sampler", daemon=True,
        )
        self._thread.start()

    def _loop(self, interval_s: float) -> None:
        while not self._stop_event.wait(interval_s):
            try:
                self.sample_once()
            except Exception:  # noqa: BLE001 -- telemetry must not die
                continue

    def stop(self) -> None:
        """Stop the thread and unhook (idempotent; final sample taken)."""
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._installed:
            try:
                self.sample_once()
            except Exception:  # noqa: BLE001
                pass
        self.uninstall()

    # ---- views ------------------------------------------------------------

    def watermarks(self) -> Dict[str, float]:
        """Per-stage peak-RSS watermarks recorded so far."""
        return self._metrics()["watermarks"].values()
