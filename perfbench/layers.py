"""Time (or slow) a layer's public calls from outside the program.

Nothing under ``src/`` knows about this module.  :func:`install`
replaces one public callable -- a module function, a method or a
classmethod, named by :data:`TARGETS` -- with a wrapper, in its home
module and in every loaded ``repro`` module that imported it by name.

Two wrappers exist:

- :class:`Tracer` records a span per call.  Spans nest, so each name
  gets its *self* time (duration minus the spans it caused); the self
  times of one run add up to the traced wall time minus whatever no
  wrapped call covered.
- :func:`delay_wrapper` spins for a fixed time before each call.  It is
  the sensitivity self-check's fault: ``PERFBENCH_DELAY=name:seconds``
  in a process's environment, with ``inject/`` on its path, slows that
  layer in every process the program starts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

DELAY_ENV = "PERFBENCH_DELAY"

#: Layer call name -> (module, attribute path) of the public callable.
TARGETS: Dict[str, Tuple[str, str]] = {
    "world.build": ("repro.world.build", "build_world"),
    "cdn.beacons": ("repro.cdn.beacon", "BeaconGenerator.summarize"),
    "cdn.demand": ("repro.cdn.demand", "DemandGenerator.build_dataset"),
    "core.ratios": ("repro.core.ratios", "RatioTable.from_beacons"),
    "core.classify": ("repro.core.classifier", "SubnetClassifier.classify"),
    "core.as_ident": ("repro.core.asn_classifier", "identify_cellular_ases"),
    "core.operators": ("repro.core.mixed", "operator_profiles"),
    "dns.affinity": ("repro.dns.affinity", "build_affinity"),
    "net.lookup_address": (
        "repro.serve.index", "ClassificationIndex.lookup_address"),
    "net.lookup_prefix": (
        "repro.serve.index", "ClassificationIndex.lookup_prefix"),
    "serve.query": ("repro.serve.index", "ClassificationIndex.query"),
    "serve.to_dict": ("repro.serve.index", "QueryResult.to_dict"),
    "scale.handle_line": ("repro.scale.worker", "QueryWorker.handle_line"),
    "scale.publish": ("repro.scale.snapshot", "SnapshotCatalog.publish"),
    "stream.ratio_table": ("repro.stream.engine", "StreamEngine.ratio_table"),
}


def _resolve(name: str):
    module_name, path = TARGETS[name]
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(name: str, make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Wrap the callable behind ``name`` with ``make(original)``.

    Returns a function that puts the original back everywhere.
    """
    owner, attr = _resolve(name)
    raw = owner.__dict__[attr]
    undo: List[Tuple[object, str, object]] = []
    if isinstance(owner, type):
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        undo.append((owner, attr, raw))
    else:
        replacement = make(raw)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None or not getattr(
                module, "__name__", ""
            ).startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is raw:
                    setattr(module, key, replacement)
                    undo.append((module, key, raw))

    def restore() -> None:
        for target, key, value in undo:
            setattr(target, key, value)

    return restore


def delay_wrapper(seconds: float) -> Callable[[Callable], Callable]:
    """A wrapper factory that busy-waits ``seconds`` before each call.

    Spinning (not sleeping) costs CPU like a slower implementation
    would, and holds sub-millisecond delays exact.
    """

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def delayed(*args, **kwargs):
            until = time.perf_counter() + seconds
            while time.perf_counter() < until:
                pass
            return fn(*args, **kwargs)

        return delayed

    return make


def parse_delay(spec: str) -> Tuple[str, float]:
    """``"dns.affinity:2.0"`` -> ``("dns.affinity", 2.0)``."""
    name, _, seconds = spec.partition(":")
    if name not in TARGETS:
        raise ValueError(f"unknown layer {name!r}; choose from {sorted(TARGETS)}")
    value = float(seconds)
    if value <= 0:
        raise ValueError("a delay must be positive")
    return name, value


def install_delay(spec: Optional[str]) -> Callable[[], None]:
    if not spec:
        return lambda: None
    name, seconds = parse_delay(spec)
    return install(name, delay_wrapper(seconds))


class Tracer:
    """Nested spans around wrapped calls: self time, calls, memory."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.hwm_rise_mb: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._restore: List[Callable[[], None]] = []

    def span_wrapper(self, name: str, on_result=None, memory: bool = False):
        from common import vm_hwm_mb

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = [0.0]
                hwm_before = vm_hwm_mb() if memory else 0.0
                self._stack.append(frame)
                started = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - started
                    self._stack.pop()
                    self.total_s[name] += elapsed
                    self.self_s[name] += elapsed - frame[0]
                    self.calls[name] += 1
                    if self._stack:
                        self._stack[-1][0] += elapsed
                    if memory:
                        self.hwm_rise_mb[name] += vm_hwm_mb() - hwm_before
                if on_result is not None:
                    on_result(result)
                return result

            return traced

        return make

    def trace(self, name: str, on_result=None, memory: bool = False) -> None:
        """Record spans for the layer call ``name`` (see TARGETS)."""
        self._restore.append(
            install(name, self.span_wrapper(name, on_result, memory))
        )

    def wrap_callable(self, name: str, fn: Callable, memory: bool = False):
        """A traced copy of ``fn`` that is not installed anywhere."""
        return self.span_wrapper(name, memory=memory)(fn)

    def remove(self) -> None:
        while self._restore:
            self._restore.pop()()

    def attributed_s(self) -> float:
        return sum(self.self_s.values())
