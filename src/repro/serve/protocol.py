"""The line-delimited JSON request protocol, shared by every server.

``cellspot serve`` (:class:`~repro.serve.service.CellSpotService`) and
``cellspot serve-scale`` (the :class:`~repro.scale.plane.ServingPlane`
front and its :class:`~repro.scale.worker.QueryWorker` processes)
speak one protocol, and this module is its only definition: request
decoding, the ``query`` op, the ``overloaded`` shed, the reply
encoding, the alert payloads and the stale-socket probe.  Servers
keep only what is their own: transport, admission, drains, fault
sites, and the metrics they pass in.
"""

from __future__ import annotations

import json
import logging
import socket
import time
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.runtime.logging import get_logger, log_event

_LOG = get_logger("serve.protocol")

#: The explicit shed answer (admission control, deadlines, draining).
OVERLOADED = {"ok": False, "error": "overloaded", "overloaded": True}


def encode(payload: Dict) -> bytes:
    """One reply line: compact JSON plus the newline terminator."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


#: :data:`OVERLOADED` as it goes on the wire.
OVERLOADED_LINE = encode(OVERLOADED)


def error(message: str) -> Dict:
    """A refusal payload."""
    return {"ok": False, "error": message}


def unknown_op(op) -> Dict:
    return error(f"unknown op {op!r}")


def decode_request(
    line: Union[str, bytes]
) -> Tuple[Optional[Dict], Optional[Dict]]:
    """``(request, None)`` for a JSON object line, else ``(None, error)``."""
    stripped = line.strip()
    if not stripped:
        return None, error("empty request line")
    try:
        request = json.loads(stripped)
    except ValueError as exc:
        return None, error(f"bad JSON: {exc}")
    if not isinstance(request, dict):
        return None, error("request must be a JSON object")
    return request, None


def query_error(request: Dict) -> Optional[Dict]:
    """The error payload for a malformed ``query`` op, else ``None``."""
    queries = request.get("qs")
    if queries is None and request.get("q") is None:
        return error("query op needs 'q' or 'qs'")
    if queries is not None and not isinstance(queries, list):
        return error("'qs' must be a list")
    return None


def answer_query(
    request: Dict,
    index,
    latency,
    counter,
    errors=None,
    deadline_s: Optional[float] = None,
    shed=None,
) -> Dict:
    """Answer a well-formed ``query`` op (see :func:`query_error`).

    Each lookup is timed into ``latency`` and counted in ``counter``;
    answers carrying a query error also bump ``errors`` when given.
    With ``deadline_s``, batch items reached after the budget are
    answered :data:`OVERLOADED` and counted in ``shed``.
    """
    perf_counter = time.perf_counter

    def answer(text) -> Dict:
        started = perf_counter()
        result = index.query(str(text))
        latency.observe(perf_counter() - started)
        counter.inc()
        if errors is not None and result.error is not None:
            errors.inc()
        return result.to_dict()

    queries = request.get("qs")
    if queries is None:
        return {"ok": True, "result": answer(request.get("q"))}
    if deadline_s is None:
        return {"ok": True, "results": [answer(item) for item in queries]}
    deadline = perf_counter() + deadline_s
    results = []
    for item in queries:
        if perf_counter() > deadline:
            if shed is not None:
                shed.inc()
            results.append(dict(OVERLOADED))
        else:
            results.append(answer(item))
    return {"ok": True, "results": results}


def alerts_payload(alert_engine) -> Dict:
    """The ``alerts`` op: rule states plus recent transitions."""
    if alert_engine is None:
        return {"ok": True, "rules": [], "events": [],
                "note": "no alert engine configured"}
    return {
        "ok": True,
        "rules": alert_engine.snapshot(),
        "events": alert_engine.events[-100:],
        "trace_id": alert_engine.trace_id,
    }


def alert_health(alert_engine) -> Dict:
    """The ``alerts`` (and ``alert_counts``) fields of ``health``."""
    if alert_engine is None:
        return {"alerts": []}
    return {
        "alerts": alert_engine.snapshot(),
        "alert_counts": alert_engine.counts(),
    }


def evict_stale_socket(path: Union[str, Path], timeout_s: float = 0.2) -> None:
    """Remove a crashed server's socket file; refuse a live server's.

    A crashed server leaves its socket file behind (unlink-on-exit
    never ran); connecting to such a corpse fails, which is how a
    stale file is told from a live server that must not be evicted
    (``OSError``).
    """
    path = Path(path)
    if not path.exists():
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(timeout_s)
    try:
        probe.connect(str(path))
    except OSError:
        log_event(
            _LOG, logging.WARNING, "serve.socket.stale_removed", path=path
        )
        path.unlink(missing_ok=True)
        return
    finally:
        probe.close()
    raise OSError(f"socket {path} is in use by a live server")
