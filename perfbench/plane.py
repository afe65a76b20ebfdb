"""The serving plane under load: process tree, catalog watch, client.

:class:`Plane` launches ``cellspot serve-scale`` and reaps its whole
process tree; :class:`CatalogWatch` records each snapshot generation
as it is published; :class:`Client` drives closed- and open-loop load
over at most ``CONNECTIONS`` connections and keeps every reply for
the checks.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import BenchError, descendants, percentile, vm_hwm_mb, wait_gone

WORKERS = 2
CONNECTIONS = 2
READY_TIMEOUT_S = 90.0
CLIENT_NICE_BOOST = 5


# ---- the plane ---------------------------------------------------------------


class Plane:
    """One ``serve-scale`` process tree, from launch to reaped."""

    def __init__(self, workdir: Path, env: Dict[str, str],
                 options: Sequence[str] = ()) -> None:
        self.workdir = workdir
        self.socket = str(workdir / "plane.sock")
        argv = [sys.executable, "-m", "repro.cli", "serve-scale",
                "--snapshot-dir", "snap", "--socket", "plane.sock",
                "--workers", str(WORKERS), *options]
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.stderr: List[str] = []
        self.ready_at: Optional[float] = None
        self.ready_wall: Optional[float] = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for raw in self.process.stderr:
            line = raw.decode(errors="replace")
            if self.ready_at is None and line.startswith("serving-scale:"):
                self.ready_at = time.perf_counter()
                self.ready_wall = time.time()
                self._ready.set()
            self.stderr.append(line)
        self._ready.set()

    def wait_ready(self) -> float:
        """Seconds from launch to the ready line."""
        self._ready.wait(READY_TIMEOUT_S)
        if self.ready_at is None:
            self.stop()
            raise BenchError(
                "serve-scale never became ready: "
                + "".join(self.stderr[-20:])[-2000:]
            )
        return self.ready_at - self.launched

    def pids(self) -> List[int]:
        return descendants(self.process.pid)

    def stop(self, graceful: bool = True) -> None:
        """SIGTERM (graceful drain) or SIGKILL; then reap the whole tree."""
        tree = self.pids()
        if graceful and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                graceful = False
        if not graceful:
            for pid in tree:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.process.wait(timeout=20.0)
        self._reader.join(timeout=10.0)
        left = wait_gone(tree[1:])
        if left:
            raise BenchError(f"serve-scale processes {left} outlived it")


def plane_hwm(pids: Sequence[int]) -> Dict[int, float]:
    return {pid: vm_hwm_mb(pid) or 0.0 for pid in pids}


class CatalogWatch:
    """Polls ``CURRENT``: each generation's events and publish time.

    It runs as a task on the client's event loop (a thread would hold
    the interpreter lock against the generator) and also samples the
    plane's VmHWM at every new generation and every ``HWM_EVERY``
    polls, so the builder's peak is read before it exits.
    """

    POLL_S = 0.01
    HWM_EVERY = 10

    def __init__(self, plane: Plane, final_events: int) -> None:
        self.plane = plane
        self.pointer = plane.workdir / "snap" / "CURRENT"
        self.final_events = final_events
        self.generations: List[Dict] = []
        self.hwm: Dict[int, float] = {}
        self.finished = False
        self._last_mtime: Optional[int] = None

    def done(self) -> bool:
        return self.finished

    def poll(self) -> None:
        try:
            stat = os.stat(self.pointer)
            if stat.st_mtime_ns != self._last_mtime:
                pointer = json.loads(self.pointer.read_text())
                self._last_mtime = stat.st_mtime_ns
                self._record(pointer, stat.st_mtime_ns / 1e9)
        except (OSError, ValueError):
            pass  # not published yet, or mid-swap: next poll

    async def run(self, timeout_s: float) -> None:
        """Poll until the final generation appears; BenchError after
        ``timeout_s``."""
        deadline = time.monotonic() + timeout_s
        polls = 0
        while not self.finished:
            if time.monotonic() > deadline:
                self.finished = True
                raise BenchError(
                    f"the builder did not publish all {self.final_events} "
                    f"events within {timeout_s:g}s")
            self.poll()
            polls += 1
            if polls % self.HWM_EVERY == 0:
                self._sample_hwm()
            await asyncio.sleep(self.POLL_S)

    def _sample_hwm(self) -> None:
        for pid, hwm in plane_hwm(self.plane.pids()).items():
            self.hwm[pid] = max(self.hwm.get(pid, 0.0), hwm)

    def _record(self, pointer: Dict, published_wall: float) -> None:
        events = int(pointer.get("meta", {}).get("events", 0))
        self.generations.append({
            "generation": int(pointer["generation"]),
            "events": events,
            "published_wall": published_wall,
        })
        self._sample_hwm()
        if events >= self.final_events:
            self.finished = True


# ---- the client ----------------------------------------------------------------


def request_line(chunk: Sequence[str]) -> bytes:
    if len(chunk) == 1:
        request = {"op": "query", "q": chunk[0]}
    else:
        request = {"op": "query", "qs": list(chunk)}
    return (json.dumps(request, separators=(",", ":")) + "\n").encode()


class Client:
    """Up to ``CONNECTIONS`` connections; replies kept for checking."""

    def __init__(self, socket_path: str) -> None:
        self.socket_path = socket_path
        self.connections: List[Tuple] = []
        self.errors = 0
        self.replies: List[Tuple[Tuple[str, ...], bytes]] = []

    async def open(self) -> None:
        for _ in range(CONNECTIONS):
            self.connections.append(await asyncio.open_unix_connection(
                self.socket_path, limit=1 << 22))

    async def close(self) -> None:
        for _reader, writer in self.connections:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(self, connection, chunk: Tuple[str, ...],
                      keep: bool = True) -> Optional[bytes]:
        reader, writer = connection
        try:
            writer.write(request_line(chunk))
            await writer.drain()
            reply = await reader.readline()
        except (ConnectionError, OSError):
            reply = b""
        if not reply:
            self.errors += len(chunk)
            return None
        if keep:
            self.replies.append((chunk, reply))
        return reply

    async def closed_loop(self, chunks: Sequence[Tuple[str, ...]],
                          keep: bool = True) -> List[float]:
        """Each connection sends its next request when its reply lands.

        Returns the start time followed by each reply's arrival time.
        """
        position = 0
        marks = [time.perf_counter()]

        async def drive(connection) -> None:
            nonlocal position
            while position < len(chunks):
                chunk = chunks[position]
                position += 1
                await self.request(connection, chunk, keep)
                marks.append(time.perf_counter())

        await asyncio.gather(*(drive(c) for c in self.connections))
        return marks

    async def open_loop(self, chunks: Sequence[Tuple[str, ...]],
                        rate_per_s: float, until=None) -> Dict:
        """Send request i at ``start + i / rate`` (cycling ``chunks``).

        Latency runs from the due time, so a stall charges every
        request that waited behind it.  Stops after one pass over
        ``chunks``, or when ``until()`` turns true.
        """
        pool: asyncio.Queue = asyncio.Queue()
        free_since: Dict[int, float] = {}
        for index, connection in enumerate(self.connections):
            pool.put_nowait((index, connection))
            free_since[index] = 0.0
        latencies: List[float] = []
        late: List[float] = []
        tasks = []
        started = time.perf_counter()

        async def send(index, connection, chunk, due) -> None:
            reply = await self.request(connection, chunk)
            done = time.perf_counter()
            if reply is not None:
                latencies.append(done - due)
            free_since[index] = done
            pool.put_nowait((index, connection))

        sent = 0
        while sent < len(chunks) or until is not None:
            if until is not None and until():
                break
            due = started + sent / rate_per_s
            wait = due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            index, connection = await pool.get()
            now = time.perf_counter()
            late.append(now - max(due, free_since[index]))
            chunk = chunks[sent % len(chunks)]
            tasks.append(asyncio.ensure_future(send(index, connection, chunk, due)))
            sent += 1
        await asyncio.gather(*tasks)
        elapsed = time.perf_counter() - started
        latencies.sort()
        late.sort()
        return {
            "requests": sent,
            "queries": sum(len(chunks[i % len(chunks)]) for i in range(sent)),
            "elapsed_s": elapsed,
            "samples": len(latencies),
            "p50_ms": percentile(latencies, 0.50) * 1000.0,
            "p90_ms": percentile(latencies, 0.90) * 1000.0,
            "p99_ms": percentile(latencies, 0.99) * 1000.0,
            "late_p99_ms": percentile(late, 0.99) * 1000.0,
            "late_max_ms": late[-1] * 1000.0,
        }


def chunked(queries: Sequence[str], size: int) -> List[Tuple[str, ...]]:
    return [tuple(queries[i:i + size]) for i in range(0, len(queries), size)]


def drive_client(session) -> None:
    """Run the client's load session with its own pauses kept out.

    The garbage collector is off: the client keeps every reply for the
    checks, and collecting that growing heap mid-phase would stall the
    event loop.  The client's thread also runs at nice -5 where that is
    permitted: it shares 2 cores with the plane, and a generator left
    waiting for a CPU sends late, which the due-time latency would
    charge to the plane.
    """
    import gc

    nice = os.getpriority(os.PRIO_PROCESS, 0)
    try:
        os.setpriority(os.PRIO_PROCESS, 0, nice - CLIENT_NICE_BOOST)
    except OSError:
        pass  # unprivileged: run at the plane's priority
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        asyncio.run(session())
    finally:
        gc.enable()
        gc.unfreeze()
        os.setpriority(os.PRIO_PROCESS, 0, nice)


async def control_stats(control) -> Dict:
    reader, writer = control
    writer.write(b'{"op":"stats"}\n')
    await writer.drain()
    reply = await reader.readline()
    try:
        return json.loads(reply)
    except ValueError:
        return {}
