"""One request protocol: every server answers it the same way.

``cellspot serve`` (:class:`CellSpotService`) and ``cellspot
serve-scale`` (the :class:`ServingPlane` front and its
:class:`QueryWorker` processes) share :mod:`repro.serve.protocol`;
these tests hold all three ``handle_line`` entry points to the same
full payloads.  The stale-socket eviction runs against the plane here
and against the service in ``test_serve_resilience.TestSocketProbe``.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.scale.plane import PlaneConfig, ServingPlane
from repro.scale.snapshot import SnapshotCatalog
from repro.scale.worker import QueryWorker
from repro.serve.service import CellSpotService
from repro.stream import StreamEngine, WindowPolicy


def _bad_json_error(text: str) -> str:
    try:
        json.loads(text)
    except ValueError as exc:
        return f"bad JSON: {exc}"
    raise AssertionError(f"{text!r} parses")


MALFORMED = [
    ("", "empty request line"),
    ("{bad", _bad_json_error("{bad")),
    ("[1,2]", "request must be a JSON object"),
    ('{"op": "frobnicate"}', "unknown op 'frobnicate'"),
    ('{"op": "query"}', "query op needs 'q' or 'qs'"),
    ('{"op": "query", "qs": "x"}', "'qs' must be a list"),
]


def _service_answer(tmp_path):
    return CellSpotService(StreamEngine()).handle_line


def _worker_answer(tmp_path):
    worker = QueryWorker(SnapshotCatalog(tmp_path / "cat"), 0.5, 1)
    return lambda line: json.loads(worker.handle_line(line.encode()))


def _plane_answer(tmp_path):
    plane = ServingPlane(
        tmp_path / "cat",
        config=PlaneConfig(workers=1),
        registry=MetricsRegistry(),
    )
    return lambda line: json.loads(
        asyncio.run(plane.handle_line(line.encode()))
    )


SERVERS = {
    "service": _service_answer,
    "worker": _worker_answer,
    "plane": _plane_answer,
}


@pytest.mark.parametrize("server", sorted(SERVERS))
@pytest.mark.parametrize(
    "line,message", MALFORMED, ids=[line or "blank" for line, _ in MALFORMED]
)
def test_malformed_requests_get_the_same_payload(
    tmp_path, server, line, message
):
    answer = SERVERS[server](tmp_path)
    assert answer(line) == {"ok": False, "error": message}


# ---- stale-socket eviction on the plane -----------------------------------


def _corpse(path) -> None:
    """A socket file nobody listens on: what a crashed server leaves."""
    corpse = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    corpse.bind(str(path))
    corpse.close()


def _published_catalog(tmp_path, beacon_hits):
    engine = StreamEngine(policy=WindowPolicy(window_events=4096))
    engine.ingest_many(beacon_hits[:2000])
    catalog = SnapshotCatalog(tmp_path / "cat")
    catalog.publish(engine.ratio_table(1))
    return catalog


def test_plane_evicts_a_stale_socket_and_serves(tmp_path, beacon_hits):
    catalog = _published_catalog(tmp_path, beacon_hits)
    path = tmp_path / "front.sock"
    _corpse(path)
    plane = ServingPlane(
        catalog.root,
        config=PlaneConfig(workers=1, startup_timeout_s=60.0),
        registry=MetricsRegistry(),
    )

    async def scenario() -> dict:
        ready = asyncio.Event()
        server = asyncio.create_task(
            plane.serve(socket_path=path, ready_callback=lambda _p: ready.set())
        )
        await asyncio.wait_for(ready.wait(), 90.0)
        reader, writer = await asyncio.open_unix_connection(str(path))
        writer.write(b'{"op":"shutdown"}\n')
        await writer.drain()
        reply = json.loads(await asyncio.wait_for(reader.readline(), 30.0))
        writer.close()
        await asyncio.wait_for(server, 30.0)
        return reply

    assert asyncio.run(scenario()) == {"ok": True, "shutdown": True}
    assert not path.exists()
    assert not any(handle.process.is_alive() for handle in plane._workers)


def test_plane_refuses_a_live_socket_before_spawning(tmp_path):
    path = tmp_path / "front.sock"
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(path))
    listener.listen(1)
    plane = ServingPlane(
        tmp_path / "cat",
        config=PlaneConfig(workers=1),
        registry=MetricsRegistry(),
    )
    try:
        with pytest.raises(OSError, match="live server"):
            asyncio.run(plane.serve(socket_path=path))
        assert path.exists()  # the live owner keeps its file
        assert plane._workers == []
    finally:
        listener.close()
