"""The ``lookup`` and ``lookup_ingest`` workloads: the serving plane.

Both launch ``cellspot serve-scale`` with 2 workers and drive it from
this process over at most 2 connections.

- ``lookup`` serves one static snapshot generation built in set-up.
  Each of ``ROUNDS`` rounds runs a closed-loop phase of single-query
  requests and one of 32-query requests over a fixed query set
  (``job_s``), then single queries arriving open-loop at a fixed rate
  (latency percentiles, reported).
- ``lookup_ingest`` points the plane's builder at a JSONL beacon log
  written in set-up.  While the builder backfills it, publishing one
  generation per window, 32-query requests arrive open-loop at a fixed
  rate.  ``job_s`` is the whole log's backfill time at the ingest rate
  measured under that load.

Every reply is checked against ``ClassificationIndex.query`` run
in-process on the same snapshot; for ``lookup_ingest`` the final
generation must equal ``RatioTable.from_beacons`` over the log.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import BenchError, log, median, program_env
from plane import (
    CONNECTIONS,
    WORKERS,
    CatalogWatch,
    Client,
    Plane,
    chunked,
    control_stats,
    plane_hwm,
    request_line,
    drive_client,
)

SCALE = 0.005
BATCH = 32
SETUP_LAUNCHES = 3

# lookup: fixed work per closed-loop phase, per --seconds of run time,
# split over rounds.
ROUNDS = 5
SINGLE_QUERIES_PER_S = 1200
BATCH_QUERIES_PER_S = 9600
#: Open-loop single-query offered rate: a quarter to two fifths of the
#: parent's closed-loop single-query q/s on a 2-core host (2900-4800
#: as the host's neighbours come and go).  At half of it, a slow spell
#: of the host pushed the plane into queueing and p50 from 1 to 44 ms.
OPEN_RATE_QPS = 1200.0
#: Requests per window of a closed-loop phase; the phase's cost is
#: the lower quartile of its windows (see ``window_costs``).
WINDOW_REQUESTS = {1: 200, BATCH: 40}
OPEN_SHARE = 0.4
WARMUP_SINGLE = 2000
WARMUP_BATCHES = 300
#: Empty query lines timed for ``scale.wire_us``.
WIRE_PROBES = 2000

# lookup_ingest: the log and the read load beside it.
LOG_HIT_VOLUME = 260_000
LOG_BASE_HITS = 5.0
WINDOW_EVENTS = 10_000
INGEST_RATE_RPS = 150.0
#: Workers rebuild their index on every generation and queue requests
#: meanwhile; the default 0.25 s deadline would shed the ones caught
#: behind a rebuild.  A 2 s deadline keeps them, so the stall shows in
#: ``p99_ms`` instead of as refused queries.
INGEST_DEADLINE_S = 2.0
VERIFY_QUERIES = 4096
BACKFILL_TIMEOUT_S = 100.0
#: Traced runs time the stream layers in-process over this log prefix.
PREFIX_EVENTS = 120_000

#: The generator is invalid (not slow) when its own send delay -- past
#: the later of a request's due time and a free connection -- exceeds
#: this at the 99th percentile.
LATE_LIMIT_MS = 25.0


# ---- set-up: inputs --------------------------------------------------------


def build_snapshot(seed: int, catalog_dir: Path) -> None:
    """One generation: the census ratio table at ``SCALE``."""
    from repro.core.ratios import RatioTable
    from repro.lab import Lab
    from repro.scale.snapshot import SnapshotCatalog

    lab = Lab.create(scale=SCALE, seed=seed)
    table = RatioTable.from_beacons(lab.beacons)
    SnapshotCatalog(catalog_dir).publish(table, meta={"seed": seed})


def write_log(seed: int, path: Path):
    """A seeded JSONL beacon-hit log.

    Returns its event count and ``RatioTable.from_beacons`` over the
    hits written, which the plane's final generation must equal.
    """
    from repro.cdn.beacon import BeaconConfig, BeaconGenerator
    from repro.core.ratios import RatioTable
    from repro.datasets.beacon_dataset import BeaconDataset
    from repro.world.build import WorldParams, build_world

    world = build_world(WorldParams(seed=seed, scale=SCALE))
    config = BeaconConfig(demand_hits=LOG_HIT_VOLUME, base_hits=LOG_BASE_HITS)
    dataset = BeaconDataset(month=config.month)
    count = 0
    with open(path, "w") as stream:
        for hit in BeaconGenerator(world, config).iter_hits():
            stream.write(hit.to_json())
            stream.write("\n")
            dataset.observe_hit(
                subnet=hit.subnet, asn=hit.asn, country=hit.country,
                browser=hit.browser, api_enabled=hit.api_enabled,
                cellular_labeled=hit.is_cellular_labeled,
            )
            count += 1
    return count, RatioTable.from_beacons(dataset)


# ---- checks ----------------------------------------------------------------------


class Oracle:
    """In-process answers from ``ClassificationIndex`` on a snapshot."""

    def __init__(self, catalog_dir: Path) -> None:
        from repro.scale.snapshot import IndexHolder, SnapshotCatalog

        self.holder = IndexHolder(SnapshotCatalog(catalog_dir))
        if not self.holder.refresh():
            raise BenchError(f"no generation in {catalog_dir}")
        self.index = self.holder.current()[2]
        self._cache: Dict[str, Dict] = {}

    @property
    def generation(self) -> int:
        return self.holder.generation

    def answer(self, query: str) -> Dict:
        found = self._cache.get(query)
        if found is None:
            found = self._cache[query] = self.index.query(query).to_dict()
        return found

    def check(self, chunk: Tuple[str, ...], reply: bytes) -> int:
        """Mismatched queries in one reply (all of them if unusable)."""
        try:
            payload = json.loads(reply)
        except ValueError:
            return len(chunk)
        if len(chunk) == 1:
            return 0 if payload == {"ok": True,
                                    "result": self.answer(chunk[0])} else 1
        results = payload.get("results")
        if payload.get("ok") is not True or not isinstance(results, list) \
                or len(results) != len(chunk):
            return len(chunk)
        return sum(1 for query, got in zip(chunk, results)
                   if got != self.answer(query))


def count_bad_replies(replies) -> int:
    """Queries whose reply is an error or shed (answers not compared)."""
    bad = 0
    for chunk, reply in replies:
        try:
            payload = json.loads(reply)
        except ValueError:
            bad += len(chunk)
            continue
        if payload.get("ok") is not True:
            bad += len(chunk)
            continue
        results = payload.get("results", [payload.get("result")])
        bad += sum(1 for result in results
                   if not isinstance(result, dict) or result.get("ok") is not True)
    return bad


# ---- in-process layer timings (traced runs) ----------------------------------------


def _per(total_s: float, count: int, scale: float = 1e6) -> float:
    return total_s / max(count, 1) * scale


def query_layer_metrics(catalog_dir: Path, queries: Sequence[str],
                        wire_s: float) -> Dict:
    """Per-query cost of LPM, query, encode, a worker line and the wire.

    The worker's public calls are wrapped (``layers.Tracer``) and fed
    the same lines the plane's workers answer; the loop also runs
    unwrapped, which gives the tracing overhead.  ``wire_s`` is the
    plane's median round trip for an empty query line (``_wire_probe``);
    the same line's in-process worker cost is taken off it.
    """
    import layers
    from repro.core.classifier import DEFAULT_THRESHOLD
    from repro.scale.snapshot import IndexHolder, SnapshotCatalog
    from repro.scale.worker import QueryWorker

    catalog = SnapshotCatalog(catalog_dir)
    builds = []
    for _ in range(3):
        holder = IndexHolder(catalog)
        started = time.perf_counter()
        holder.refresh()
        builds.append(time.perf_counter() - started)
    worker = QueryWorker(catalog, threshold=DEFAULT_THRESHOLD, min_api_hits=1)
    worker.maybe_refresh(force=True)
    singles = [request_line((query,)) for query in queries]
    batches = [request_line(chunk) for chunk in chunked(queries, BATCH)]

    def loop(lines) -> float:
        started = time.perf_counter()
        for line in lines:
            worker.handle_line(line)
        return time.perf_counter() - started

    loop(singles[:500])  # warm caches
    empty = [request_line(())] * WIRE_PROBES
    empty_line_s = median(loop(empty) for _ in range(3)) / len(empty)
    tracer = layers.Tracer()
    names = ("net.lookup_address", "net.lookup_prefix", "serve.query",
             "serve.to_dict", "scale.handle_line")

    def traced_loop(lines) -> float:
        for name in names:
            tracer.trace(name)
        try:
            return loop(lines)
        finally:
            tracer.remove()

    # Alternate unwrapped and wrapped passes so host noise hits both.
    untraced, traced = [], []
    for _ in range(3):
        untraced.append(loop(singles))
        traced.append(traced_loop(singles))
    untraced_s, traced_single_s = median(untraced), median(traced)
    single_lines = tracer.calls["scale.handle_line"]
    single_line_s = tracer.total_s["scale.handle_line"]
    traced_loop(batches)
    batch_line_s = tracer.total_s["scale.handle_line"] - single_line_s
    batch_lines = tracer.calls["scale.handle_line"] - single_lines
    answered = tracer.calls["serve.query"]
    lpm_s = (tracer.total_s["net.lookup_address"]
             + tracer.total_s["net.lookup_prefix"])

    dicts = [worker.holder.current()[2].query(q).to_dict() for q in queries]
    started = time.perf_counter()
    for payload in dicts:
        json.dumps(payload, separators=(",", ":"))
    json_s = time.perf_counter() - started

    return {
        "net.lpm_us": (_per(lpm_s, answered), "us"),
        "serve.query_us": (_per(tracer.total_s["serve.query"], answered), "us"),
        "serve.encode_us": (
            _per(tracer.total_s["serve.to_dict"], answered)
            + _per(json_s, len(dicts)), "us"),
        "scale.worker_line1_us": (_per(single_line_s, single_lines), "us"),
        "scale.worker_line32_us": (_per(batch_line_s, batch_lines), "us"),
        "scale.index_build_s": (median(builds), "s"),
        "scale.wire_us": ((wire_s - empty_line_s) * 1e6, "us"),
        "trace.overhead": (traced_single_s / untraced_s, "ratio"),
    }


def stream_layer_metrics(log_path: Path, workdir: Path) -> Dict:
    """Decode, fold, ratio_table, publish and refresh, in-process.

    Over the log's first ``PREFIX_EVENTS`` events: the builder runs
    once unwrapped and once with its per-window calls wrapped, which
    gives the tracing overhead.
    """
    import itertools

    import layers
    from repro.scale.builder import builder_main
    from repro.scale.snapshot import IndexHolder, SnapshotCatalog
    from repro.stream.engine import StreamEngine
    from repro.stream.sources import jsonl_events
    from repro.stream.windows import WindowPolicy

    with open(log_path) as stream:
        started = time.perf_counter()
        hits = list(itertools.islice(jsonl_events(stream), PREFIX_EVENTS))
        decode_s = time.perf_counter() - started
    events = len(hits)
    engine = StreamEngine(
        policy=WindowPolicy(window_events=WINDOW_EVENTS, decay=1.0))
    started = time.perf_counter()
    for hit in hits:
        engine.ingest(hit)
    fold_s = time.perf_counter() - started
    del hits, engine

    spec = {"kind": "jsonl", "path": str(log_path)}

    def build(catalog_dir: Path) -> float:
        started = time.perf_counter()
        builder_main(str(catalog_dir), spec, window_events=WINDOW_EVENTS,
                     max_events=PREFIX_EVENTS)
        return time.perf_counter() - started

    untraced_s = build(workdir / "inproc-untraced")
    tracer = layers.Tracer()
    for name in ("stream.ratio_table", "scale.publish"):
        tracer.trace(name)
    try:
        traced_s = build(workdir / "inproc-traced")
    finally:
        tracer.remove()
    refreshes = []
    for _ in range(3):
        holder = IndexHolder(SnapshotCatalog(workdir / "inproc-traced"))
        started = time.perf_counter()
        holder.refresh()
        refreshes.append(time.perf_counter() - started)
    return {
        "stream.decode_eps": (events / decode_s, "1/s"),
        "stream.fold_eps": (events / fold_s, "1/s"),
        "stream.ratio_table_s": (
            _per(tracer.total_s["stream.ratio_table"],
                 tracer.calls["stream.ratio_table"], 1.0), "s"),
        "scale.publish_s": (
            _per(tracer.total_s["scale.publish"],
                 tracer.calls["scale.publish"], 1.0), "s"),
        "scale.refresh_s": (median(refreshes), "s"),
        "trace.overhead": (traced_s / untraced_s, "ratio"),
    }


# ---- the workloads -----------------------------------------------------------------


def _launch_for_setup(workdir: Path, env: Dict[str, str],
                      options: Sequence[str] = ()) -> float:
    """Launch, wait for the ready line, kill; returns launch->ready."""
    plane = Plane(workdir, env, options)
    try:
        return plane.wait_ready()
    finally:
        plane.stop(graceful=False)


def _reset_catalog(workdir: Path) -> None:
    import shutil

    shutil.rmtree(workdir / "snap", ignore_errors=True)


async def _wire_probe(client: Client) -> float:
    """Median round trip of an empty query line on one connection.

    The line goes through the front and a worker like any query but
    calls no query layer, so the front and transport are timed apart
    from worker work: with a single-query line, a slower worker also
    slowed the rest of the round trip on a 2-core VM (an idle vCPU
    wakes more slowly the longer it slept).
    """
    samples = []
    connection = client.connections[0]
    expected = {"ok": True, "results": []}
    for _ in range(WIRE_PROBES):
        started = time.perf_counter()
        reply = await client.request(connection, (), keep=False)
        samples.append(time.perf_counter() - started)
        if reply is None or json.loads(reply) != expected:
            raise BenchError(f"empty query line answered {reply!r}")
    return median(samples)


def _shares(queries: Sequence[str]) -> Dict[str, tuple]:
    misses = sum(1 for query in queries if query.startswith("203.0.113."))
    cidrs = sum(1 for query in queries if "/" in query)
    return {
        "lookup.miss_share": (misses / len(queries), "ratio"),
        "lookup.cidr_share": (cidrs / len(queries), "ratio"),
    }


def window_costs(marks: Sequence[float], chunk_queries: int) -> List[float]:
    """Seconds per query in each window of ``WINDOW_REQUESTS`` replies.

    The host's neighbours only ever slow a window down, so the faster
    windows of a run repeat from run to run where its median does not:
    on a noisy 2-core VM a pure-Python loop's 10 s medians move by 20%.
    A phase's cost is the lower quartile of its windows over all
    rounds (``lower_quartile``), not the fastest one, so a cost that
    lands in more than a quarter of the windows -- a pause, a poll, a
    slow reply -- still counts.
    """
    size = WINDOW_REQUESTS[chunk_queries]
    return [(marks[i + size] - marks[i]) / (size * chunk_queries)
            for i in range(0, len(marks) - size, size)]


def lower_quartile(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=4)[0]


def _open_loop_valid(phase: Dict) -> bool:
    return phase["late_p99_ms"] <= LATE_LIMIT_MS


def run_lookup(seed: int, seconds: int, trace: bool, delay: Optional[str],
               workdir: Path) -> Dict:
    """``ROUNDS`` rounds of closed-loop single, closed-loop batch, open loop.

    Each round answers its own slice of the query mix.  ``job_s`` takes
    each closed-loop phase at the lower quartile of its window costs
    over all rounds (see ``window_costs``); the open-loop percentiles
    are medians over rounds.
    """
    from repro.scale.loadgen import queries_from_catalog

    env = program_env(delay)
    started = time.perf_counter()
    build_snapshot(seed, workdir / "snap")
    round_s = seconds / ROUNDS
    n_single = int(SINGLE_QUERIES_PER_S * round_s)
    n_batch = int(BATCH_QUERIES_PER_S * round_s) // BATCH * BATCH
    n_open = int(OPEN_RATE_QPS * OPEN_SHARE * round_s)
    n_warm = WARMUP_SINGLE + WARMUP_BATCHES * BATCH
    per_round = n_single + n_batch + n_open
    queries = queries_from_catalog(
        workdir / "snap", n_warm + ROUNDS * per_round, seed=seed)
    warm = queries[:n_warm]
    rounds = []
    for index in range(ROUNDS):
        part = queries[n_warm + index * per_round:][:per_round]
        rounds.append((
            [(q,) for q in part[:n_single]],
            chunked(part[n_single:n_single + n_batch], BATCH),
            [(q,) for q in part[n_single + n_batch:]],
        ))
    report: Dict = {"inputs_s": time.perf_counter() - started,
                    "snapshot_scale": SCALE, "workers": WORKERS,
                    "connections": CONNECTIONS, "rounds": ROUNDS,
                    "round_single_queries": n_single,
                    "round_batch_queries": n_batch, "batch": BATCH,
                    "open_rate_qps": OPEN_RATE_QPS,
                    "round_open_queries": n_open}
    setup_samples = []
    if not trace:
        for _ in range(SETUP_LAUNCHES - 1):
            setup_samples.append(_launch_for_setup(workdir, env))
    log(f"lookup: serve-scale over {workdir / 'snap'}")
    plane = Plane(workdir, env)
    client = Client(plane.socket)
    measured: List[Dict] = []
    extra: Dict = {}
    try:
        setup_samples.append(plane.wait_ready())

        async def session() -> None:
            await client.open()
            try:
                await client.closed_loop(
                    [(q,) for q in warm[:WARMUP_SINGLE]]
                    + chunked(warm[WARMUP_SINGLE:], BATCH), keep=False)
                for singles, batches, opened in rounds:
                    single = await client.closed_loop(singles)
                    batch = await client.closed_loop(batches)
                    for attempt in range(1, 4):
                        phase = await client.open_loop(opened, OPEN_RATE_QPS)
                        if _open_loop_valid(phase):
                            break
                    measured.append({"single": single, "batch": batch,
                                     "open": phase,
                                     "open_attempts": attempt})
                if trace:
                    extra["wire_s"] = await _wire_probe(client)
                extra["hwm"] = plane_hwm(plane.pids())
            finally:
                await client.close()

        drive_client(session)
    finally:
        plane.stop()

    oracle = Oracle(workdir / "snap")
    mismatched = sum(oracle.check(chunk, reply) for chunk, reply in client.replies)
    attempted = sum(len(chunk) for chunk, _reply in client.replies) + client.errors
    failed = mismatched + client.errors
    opens = [m["open"] for m in measured]
    valid = all(_open_loop_valid(phase) for phase in opens)
    single_s = median(m["single"][-1] - m["single"][0] for m in measured)
    batch_s = median(m["batch"][-1] - m["batch"][0] for m in measured)
    q1_single = lower_quartile(
        [c for m in measured for c in window_costs(m["single"], 1)])
    q1_batch = lower_quartile(
        [c for m in measured for c in window_costs(m["batch"], BATCH)])
    report.update({
        "qps": n_single / single_s,
        "batch_qps": n_batch / batch_s,
        "window_q1_qps": 1 / q1_single,
        "window_q1_batch_qps": 1 / q1_batch,
        "open_p50_ms": median(phase["p50_ms"] for phase in opens),
        "open_p90_ms": median(phase["p90_ms"] for phase in opens),
        "open_p99_ms": median(phase["p99_ms"] for phase in opens),
        "round_results": [
            {"single_s": m["single"][-1] - m["single"][0],
             "batch_s": m["batch"][-1] - m["batch"][0],
             "open": m["open"], "open_attempts": m["open_attempts"]}
            for m in measured],
        "open_samples_per_round": n_open,
        "generator_valid": valid,
        "mismatched": mismatched,
        "transport_errors": client.errors,
        "error_rate": failed / max(attempted, 1),
    })
    metrics: Dict[str, tuple] = {}
    if trace:
        metrics.update(query_layer_metrics(
            workdir / "snap", [c[0] for c in rounds[0][0]][:4000],
            extra["wire_s"]))
        metrics["loadgen.late_ms"] = (
            max(phase["late_p99_ms"] for phase in opens), "ms")
        metrics["lookup.latency_samples"] = (
            sum(phase["samples"] for phase in opens), "count")
        metrics["load.p50_ms"] = (median(p["p50_ms"] for p in opens), "ms")
        metrics["load.p90_ms"] = (median(p["p90_ms"] for p in opens), "ms")
        metrics["load.p99_ms"] = (median(p["p99_ms"] for p in opens), "ms")
        metrics.update(_shares(queries))
        report["tracing_overhead"] = metrics["trace.overhead"][0]
    else:
        metrics.update({
            "setup_s": (median(setup_samples), "s"),
            "job_s": (n_single * q1_single + n_batch * q1_batch, "s"),
            "peak_rss_mb": (sum(extra["hwm"].values()), "MB"),
        })
        report["setup_samples_s"] = setup_samples
    return {"metrics": metrics, "report": report, "attempted": attempted,
            "failed": failed, "valid": valid}


def run_ingest(seed: int, seconds: int, trace: bool, delay: Optional[str],
               workdir: Path) -> Dict:
    from repro.columnar.mmaptable import open_mmap
    from repro.core.ratios import RatioTable
    from repro.scale.loadgen import heavy_tail_queries

    env = program_env(delay)
    started = time.perf_counter()
    log_path = workdir / "events.jsonl"
    total_events, expected = write_log(seed, log_path)
    queries = heavy_tail_queries(expected.records(), VERIFY_QUERIES * 4, seed=seed)
    load_chunks = chunked(queries[VERIFY_QUERIES:], BATCH)
    verify = queries[:VERIFY_QUERIES]
    report: Dict = {"inputs_s": time.perf_counter() - started,
                    "log_events": total_events, "log_scale": SCALE,
                    "window_events": WINDOW_EVENTS, "workers": WORKERS,
                    "connections": CONNECTIONS, "batch": BATCH,
                    "open_rate_rps": INGEST_RATE_RPS,
                    "verify_queries": VERIFY_QUERIES}
    options = ["--events", str(log_path.resolve()),
               "--window-events", str(WINDOW_EVENTS),
               "--deadline", str(INGEST_DEADLINE_S)]
    setup_samples = []
    if not trace:
        for _ in range(SETUP_LAUNCHES - 1):
            _reset_catalog(workdir)
            setup_samples.append(_launch_for_setup(workdir, env, options))
    _reset_catalog(workdir)
    log(f"lookup_ingest: serve-scale --events {log_path} ({total_events} events)")
    plane = Plane(workdir, env, options)
    watch = CatalogWatch(plane, total_events)
    client = Client(plane.socket)
    phases: Dict = {"swaps": 0}
    try:
        setup_samples.append(plane.wait_ready())

        async def session() -> None:
            await client.open()
            control = await asyncio.open_unix_connection(
                plane.socket, limit=1 << 22)
            try:
                watch.poll()
                if watch.finished:
                    raise BenchError("the builder drained the log before "
                                     "the plane was ready: lengthen it")
                watcher = asyncio.ensure_future(watch.run(BACKFILL_TIMEOUT_S))
                seen: Dict[int, int] = {}

                async def count_swaps() -> None:
                    while not watch.finished:
                        for worker in (await control_stats(control)).get(
                                "workers", []):
                            pid, gen = worker.get("pid"), worker.get("generation")
                            if pid in seen and gen != seen[pid]:
                                phases["swaps"] += 1
                            seen[pid] = gen
                        await asyncio.sleep(0.1)

                poller = asyncio.ensure_future(count_swaps()) if trace else None
                phases["open"] = await client.open_loop(
                    load_chunks, INGEST_RATE_RPS, until=watch.done)
                await watcher
                if poller is not None:
                    await poller
                final = watch.generations[-1]["generation"]
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    workers = (await control_stats(control)).get("workers", [])
                    if len(workers) == WORKERS and all(
                            w.get("generation") == final for w in workers):
                        break
                    await asyncio.sleep(0.05)
                phases["load_replies"] = list(client.replies)
                client.replies.clear()
                await client.closed_loop(chunked(verify, BATCH))
                phases["hwm"] = plane_hwm(plane.pids())
            finally:
                control[1].close()
                await client.close()

        drive_client(session)
    finally:
        plane.stop()

    problems = []
    oracle = Oracle(workdir / "snap")
    final = watch.generations[-1]
    if oracle.generation != final["generation"] or final["events"] != total_events:
        problems.append("the final generation does not hold the whole log")
    table = open_mmap(oracle.holder.current()[0].table_path)
    try:
        table_ok = RatioTable(table.records()) == expected
    finally:
        table.close()
    if not table_ok:
        problems.append("final generation != RatioTable.from_beacons(log)")
    load_replies = phases["load_replies"]
    bad_load = count_bad_replies(load_replies)
    mismatched = sum(oracle.check(c, r) for c, r in client.replies)
    attempted = (sum(len(c) for c, _r in load_replies)
                 + sum(len(c) for c, _r in client.replies)
                 + client.errors + 1)
    failed = bad_load + mismatched + client.errors + (0 if table_ok else 1)

    # The plane is ready only after its first generation exists, and the
    # builder keeps publishing meanwhile, so how much of the log lands
    # before ready varies with set-up speed.  The rate between the first
    # and the final generation published under load does not; job_s is
    # the whole log at that rate.
    ready_wall = plane.ready_wall
    after_ready = [g for g in watch.generations if g["published_wall"] >= ready_wall]
    if len(after_ready) < 2:
        raise BenchError(f"{len(after_ready)} generation(s) published under "
                         "load; the ingest rate needs 2: lengthen the log")
    first = after_ready[0]
    ingest_eps = ((final["events"] - first["events"])
                  / (final["published_wall"] - first["published_wall"]))
    job_s = total_events / ingest_eps
    opened_phase = phases["open"]
    valid = _open_loop_valid(opened_phase)
    hwm = dict(watch.hwm)
    for pid, value in phases["hwm"].items():
        hwm[pid] = max(hwm.get(pid, 0.0), value)
    report.update({
        "ingest_eps": ingest_eps,
        "generations": final["generation"],
        "generations_under_load": len(after_ready),
        "open_loop": opened_phase,
        "generator_valid": valid,
        "bad_load_replies": bad_load,
        "mismatched": mismatched,
        "transport_errors": client.errors,
        "problems": problems,
        "error_rate": failed / max(attempted, 1),
    })
    metrics: Dict[str, tuple] = {}
    if trace:
        metrics.update(stream_layer_metrics(log_path, workdir))
        metrics["ingest.generations"] = (final["generation"], "count")
        metrics["ingest.worker_swaps"] = (phases["swaps"], "count")
        metrics["loadgen.late_ms"] = (opened_phase["late_p99_ms"], "ms")
        metrics["lookup.latency_samples"] = (opened_phase["samples"], "count")
        metrics["load.p50_ms"] = (opened_phase["p50_ms"], "ms")
        metrics["load.p90_ms"] = (opened_phase["p90_ms"], "ms")
        metrics["load.p99_ms"] = (opened_phase["p99_ms"], "ms")
        metrics.update(_shares(queries))
        report["tracing_overhead"] = metrics["trace.overhead"][0]
    else:
        metrics.update({
            "setup_s": (median(setup_samples), "s"),
            "job_s": (job_s, "s"),
            "peak_rss_mb": (sum(hwm.values()), "MB"),
        })
        report["setup_samples_s"] = setup_samples
    return {"metrics": metrics, "report": report, "attempted": attempted,
            "failed": failed, "valid": valid}
