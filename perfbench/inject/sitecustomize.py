"""Slow one layer in this process: the self-check's injected fault.

Python imports ``sitecustomize`` at start-up from the path, so with
this directory on ``PYTHONPATH`` and ``PERFBENCH_DELAY=name:seconds``
set, every interpreter the program starts (the CLI, the serving
plane's front, its spawned workers and builder) spins ``seconds``
before each call of the layer ``name``.  See ``perfbench/layers.py``.
"""

import os
import sys

if os.environ.get("PERFBENCH_DELAY"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        import layers

        layers.install_delay(os.environ["PERFBENCH_DELAY"])
    finally:
        del sys.path[0]
