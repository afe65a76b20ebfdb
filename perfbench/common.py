"""Shared plumbing: processes, /proc readings, statistics, result line."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
INJECT_DIR = HERE / "inject"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, a child died...)."""


def checkout_root() -> Path:
    """The directory the benchmark runs from; it must hold ``src/repro``."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        raise BenchError(
            f"{root} holds no src/repro: run from the repository root"
        )
    return root


def program_env(delay: Optional[str] = None) -> Dict[str, str]:
    """Environment for the program's processes (``src`` importable).

    With ``delay`` the ``inject`` directory joins the path, and its
    ``sitecustomize`` slows one layer in every process the program
    starts, spawned workers included (see ``layers.DELAY_ENV``).
    """
    from layers import DELAY_ENV

    env = dict(os.environ)
    paths = [str(checkout_root() / "src")]
    env.pop(DELAY_ENV, None)
    if delay:
        paths.insert(0, str(INJECT_DIR))
        env[DELAY_ENV] = delay
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Same string hashes, so the same set and dict orders, every run.
    env["PYTHONHASHSEED"] = "0"
    # The default (auto-detected) kernel backend, whatever the caller set.
    env.pop("CELLSPOT_ARRAY_BACKEND", None)
    return env


def make_workdir(workload: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    path = Path(".perfbench_work") / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def timed_run(argv: Sequence[str], env: Dict[str, str], stdout,
              timeout_s: float) -> Dict:
    """Run ``argv`` to completion; wall, CPU and peak RSS via wait4."""
    started = time.perf_counter()
    process = subprocess.Popen(
        list(argv), stdout=stdout, stderr=subprocess.PIPE, env=env
    )
    try:
        # stderr is small (warnings only); reading it to EOF cannot
        # deadlock against a child that writes stdout to a file.
        stderr = _read_with_deadline(process, timeout_s)
        _pid, status, usage = os.wait4(process.pid, 0)
    except BaseException:
        process.kill()
        process.wait()
        raise
    wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": process.returncode,
        "stderr": stderr,
    }


def _read_with_deadline(process: subprocess.Popen, timeout_s: float) -> str:
    import selectors

    chunks: List[bytes] = []
    deadline = time.monotonic() + timeout_s
    with selectors.DefaultSelector() as selector:
        selector.register(process.stderr, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"{process.args[:4]} exceeded {timeout_s}s")
            if not selector.select(left):
                continue
            chunk = os.read(process.stderr.fileno(), 65536)
            if not chunk:
                break
            chunks.append(chunk)
    process.stderr.close()
    return b"".join(chunks).decode(errors="replace")


# ---- process lifetime ----------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned descendants, so every one of them can be reaped.

    The serving plane's workers and its resource tracker outlive a
    killed front; as a subreaper this process inherits and waits them.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def wait_gone(pids: Iterable[int], timeout_s: float = 15.0) -> List[int]:
    """Reap (or see exit of) each pid; returns those still running."""
    pending = list(pids)
    deadline = time.monotonic() + timeout_s
    while pending and time.monotonic() < deadline:
        still = []
        for pid in pending:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
                if done == 0:
                    still.append(pid)
            except ChildProcessError:
                if _state(pid) not in (None, "Z"):
                    still.append(pid)
        pending = still
        if pending:
            time.sleep(0.02)
    return pending


def _state(pid: int) -> Optional[str]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            raw = handle.read()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()[0]


# ---- /proc readings ------------------------------------------------------


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it."""
    found = [pid]
    index = 0
    while index < len(found):
        current = found[index]
        index += 1
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    found.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
    return found


def vm_hwm_mb(pid: object = "self") -> Optional[float]:
    """Peak resident set (VmHWM) of one process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


# ---- statistics ----------------------------------------------------------


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[rank]


# ---- output --------------------------------------------------------------


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, tuple], names: Sequence[str],
         report: Dict) -> None:
    """Print the report line, then the result line (stdout's last line).

    ``metrics`` maps a name to ``(value, unit)``; only ``names`` (the
    end-to-end or per-layer list of ``BENCHMARK.json``) reach the
    result line, in that order.
    """
    missing = [name for name in names if name not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    print("report " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name][0]), "unit": metrics[name][1]}
            for name in names
        },
    }), flush=True)


def benchmark_spec() -> Dict:
    with open(HERE.parent / "BENCHMARK.json") as handle:
        return json.load(handle)
