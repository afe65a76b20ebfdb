"""numpy stays unloaded until the first columnar kernel call.

numpy is a hard dependency, but importing it costs ~150 ms and ~14 MB
RSS per process.  The CLI entry point and every serving-plane process
(front, workers, builder) import :mod:`repro.columnar` for the mmap
ratio tables without ever running a kernel, so each must come up
without numpy.  Each check runs in a fresh interpreter: the test
process itself has long since imported numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        timeout=120,
    )


@pytest.mark.parametrize(
    "module",
    ["repro.cli", "repro.scale.plane", "repro.scale.worker",
     "repro.scale.builder"],
)
def test_import_does_not_load_numpy(module):
    proc = _run(
        f"import sys, {module}\n"
        "assert 'numpy' not in sys.modules, 'numpy imported eagerly'\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_first_kernel_use_loads_numpy():
    """Control: the same probe does see numpy once a kernel runs."""
    proc = _run(
        "import sys\n"
        "from repro.columnar.batch import BeaconBatch\n"
        "assert 'numpy' not in sys.modules\n"
        "BeaconBatch.from_rows([])\n"
        "assert 'numpy' in sys.modules\n"
    )
    assert proc.returncode == 0, proc.stderr
