"""Deterministic fault injection: the chaos plane's control surface.

The census pipeline must survive worker crashes, stragglers, torn
writes, and overload; this module makes those failures *injectable on
demand* so the self-healing paths are exercised by tests and the
``cellspot chaos`` drill instead of waiting for production to find
them.  Design rules:

* **Plans are data.**  A :class:`FaultPlan` is loaded from TOML or
  JSON exactly like the alert rules (:func:`repro.obs.alerts.
  load_rules`): a top-level ``faults`` array of fault tables plus an
  optional ``plan`` table carrying ``name`` and ``seed``.  Unknown
  keys are rejected -- a typoed fault must fail loudly, not silently
  never fire.
* **Deterministic.**  A fault fires at an explicit site index
  (``at``) or via a seeded PRF over ``(seed, name, index)``
  (``probability``); there is no wall-clock or ``random`` state, so
  the same plan over the same workload injects the same faults in
  every process, every run.
* **Fire-once across processes.**  A SIGKILL'd pool worker loses its
  memory, so in-memory counters cannot bound firings.  An activated
  plan claims each bounded firing by exclusively creating a mark file
  in its ``state_dir`` (``O_CREAT | O_EXCL`` -- atomic on POSIX),
  which both bounds ``times`` across every worker process and gives
  the chaos report its ground-truth injected count.  Unbounded faults
  (``times`` omitted) need no claim and write no mark file: they are
  counted in this process's in-memory ledger.
* **One hook.**  ``cellspot all`` / ``serve`` / ``serve-scale
  --fault-plan FILE`` arm a plan for the whole run (with a per-run
  ledger directory); pool workers and the serving plane's builder and
  workers re-arm it on start (:func:`pool_initializer`), so ``times``
  holds across every process of the run.
* **Free when off.**  :func:`fault_point` is a module-global ``None``
  check when no plan is active; per-item paths additionally gate the
  wrapper itself (:func:`armed`, :func:`maybe_chaotic`) so disabled
  injection costs nothing measurable (pinned < 2% by
  ``bench_chaos_overhead``).

Fault kinds and the layer expected to heal (or observe) them:

=============== ==================== ================================
kind            typical site         healed / observed by
=============== ==================== ================================
worker_crash    executor.shard       pool rebuild + shard resubmit
worker_hang     executor.shard       per-shard timeout + retry
slow_shard      executor.shard       straggler hedging (optional)
torn_write      cache.store /        digest verify -> quarantine ->
                stream.snapshot      regenerate / SnapshotError
stall           stream.source /      bounded drain still completes /
                serve.ingest /       admission control sheds load /
                scale.lookup         worker-latency-skew alert
error           serve.refresh /      circuit breaker + stale answers /
                experiment.<id>      guard isolates the experiment
leak            stream.window        rss-growth / memory-budget alerts
release         stream.window        ... which then resolve
=============== ==================== ================================

``scale.lookup`` sits inside a worker's timed lookup and is indexed by
the plane-wide spawn ordinal (slot ``k``'s first incarnation is ``k``,
respawns count on from the worker count), so ``at = 0`` afflicts slot
0 until it is respawned.  ``stream.window`` is indexed by the ordinal
of the window that just closed.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

_VALID_KINDS = (
    "worker_crash", "worker_hang", "slow_shard", "torn_write",
    "stall", "error", "leak", "release",
)

#: Sites wired through the codebase (documented; plans may name any
#: string -- an unmatched site simply never fires, and ``cellspot
#: chaos`` reports it as uninjected).
KNOWN_SITES = (
    "executor.shard",
    "cache.store",
    "stream.snapshot",
    "stream.source",
    "serve.request",
    "serve.ingest",
    "serve.refresh",
    "stream.window",
    "scale.publish",
    "scale.dispatch",
    "scale.worker",
    "scale.lookup",
)

#: Site families: ``experiment.<id>`` is one site per registered
#: experiment, passed inside its guarded call.
SITE_FAMILIES = ("experiment.",)


class FaultPlanError(ValueError):
    """A fault plan file (or fault dict) is malformed."""


class InjectedFault(RuntimeError):
    """An error deliberately raised by an active fault plan."""


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: where, what, when, how often."""

    name: str
    site: str
    kind: str
    #: Fire only when the site's index equals this (None = any index).
    at: Optional[int] = None
    #: Total firings allowed across *all* processes (None = unbounded).
    times: Optional[int] = 1
    #: Sleep length for the delay kinds (hang / slow / stall).
    delay_s: float = 0.05
    #: Seeded firing probability (1.0 = always when site/at match).
    probability: float = 1.0
    #: Page-touched ballast a ``leak`` fault retains per firing.
    size_bytes: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultPlanError("fault needs a non-empty name")
        if not self.site:
            raise FaultPlanError(f"fault {self.name!r}: needs a site")
        if self.kind not in _VALID_KINDS:
            raise FaultPlanError(
                f"fault {self.name!r}: unknown kind {self.kind!r} "
                f"(choose from {', '.join(_VALID_KINDS)})"
            )
        if self.times is not None and self.times < 1:
            raise FaultPlanError(
                f"fault {self.name!r}: times must be >= 1 (or omitted)"
            )
        if self.delay_s < 0:
            raise FaultPlanError(
                f"fault {self.name!r}: delay_s must be >= 0"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"fault {self.name!r}: probability must be in [0, 1]"
            )
        if self.kind == "leak" and self.size_bytes < 1:
            raise FaultPlanError(
                f"fault {self.name!r}: a leak needs size_bytes >= 1"
            )
        if self.kind != "leak" and self.size_bytes:
            raise FaultPlanError(
                f"fault {self.name!r}: size_bytes only applies to leak"
            )

    @classmethod
    def from_dict(cls, raw: Dict) -> "FaultSpec":
        if not isinstance(raw, dict):
            raise FaultPlanError(
                f"fault must be a table/object, got {raw!r}"
            )
        unknown = set(raw) - {spec_field.name for spec_field in fields(cls)}
        if unknown:
            raise FaultPlanError(
                f"fault {raw.get('name', '?')!r}: unknown keys "
                f"{sorted(unknown)}"
            )
        for required in ("name", "site", "kind"):
            if required not in raw:
                raise FaultPlanError(
                    f"fault {raw.get('name', '?')!r}: missing {required!r}"
                )
        try:
            at = None if raw.get("at") is None else int(raw["at"])
            times = None if raw.get("times") is None else int(raw["times"])
            delay_s = float(raw.get("delay_s", 0.05))
            probability = float(raw.get("probability", 1.0))
            size_bytes = int(raw.get("size_bytes", 0))
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(
                f"fault {raw.get('name', '?')!r}: non-numeric field: {exc}"
            ) from None
        return cls(
            name=str(raw["name"]),
            site=str(raw["site"]),
            kind=str(raw["kind"]),
            at=at,
            times=times,
            delay_s=delay_s,
            probability=probability,
            size_bytes=size_bytes,
        )


@dataclass
class FaultPlan:
    """A named, seeded set of fault specs (picklable for pool workers)."""

    name: str = "unnamed"
    seed: int = 0
    faults: List[FaultSpec] = field(default_factory=list)
    #: Cross-process firing ledger; bound at activation time.
    state_dir: Optional[str] = None

    def for_sites(self, prefix: str) -> "FaultPlan":
        """The sub-plan of faults whose site starts with ``prefix``."""
        return FaultPlan(
            name=self.name,
            seed=self.seed,
            faults=[f for f in self.faults if f.site.startswith(prefix)],
            state_dir=self.state_dir,
        )


def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Parse a plan file: ``.toml`` (python >= 3.11) or ``.json``.

    Shared shape: a top-level ``faults`` array plus an optional
    ``plan`` table with ``name`` and ``seed``.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FaultPlanError(
            f"cannot read fault plan {path}: {exc}"
        ) from exc
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover -- py3.10 fallback
            raise FaultPlanError(
                f"{path}: TOML fault plans need python >= 3.11 (tomllib); "
                "use the JSON plan format instead"
            ) from None
        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise FaultPlanError(f"{path}: bad TOML: {exc}") from None
    else:
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise FaultPlanError(f"{path}: bad JSON: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("faults"), list):
        raise FaultPlanError(f"{path}: expected a top-level 'faults' array")
    meta = raw.get("plan", {})
    if not isinstance(meta, dict):
        raise FaultPlanError(f"{path}: 'plan' must be a table/object")
    faults = [FaultSpec.from_dict(entry) for entry in raw["faults"]]
    if not faults:
        raise FaultPlanError(f"{path}: 'faults' array is empty")
    names = [fault.name for fault in faults]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise FaultPlanError(
            f"{path}: duplicate fault names {sorted(duplicates)}"
        )
    try:
        seed = int(meta.get("seed", 0))
    except (TypeError, ValueError):
        raise FaultPlanError(f"{path}: plan seed must be an integer") from None
    return FaultPlan(
        name=str(meta.get("name", path.stem)), seed=seed, faults=faults
    )


def default_fault_plan() -> FaultPlan:
    """The built-in smoke plan: one fault per healed layer.

    Exactly the fault set the differential acceptance names: a worker
    SIGKILL, a hung worker, a slow shard, a torn cache write, a torn
    snapshot, a stream stall, and a serve-side overload stall plus a
    failing index refresh.
    """
    return FaultPlan(
        name="smoke",
        seed=7,
        faults=[
            FaultSpec(name="kill-shard-1", site="executor.shard",
                      kind="worker_crash", at=1, times=1),
            FaultSpec(name="hang-shard-2", site="executor.shard",
                      kind="worker_hang", at=2, times=1, delay_s=30.0),
            FaultSpec(name="slow-shard-0", site="executor.shard",
                      kind="slow_shard", at=0, times=1, delay_s=0.4),
            # Deterministic retries (feeds the shard-retry-storm rule):
            # shard 3 raises twice, then its budget is spent and the
            # third attempt succeeds.
            FaultSpec(name="flake-shard-3", site="executor.shard",
                      kind="error", at=3, times=2),
            FaultSpec(name="tear-cache-shard-0", site="cache.store",
                      kind="torn_write", at=0, times=1),
            FaultSpec(name="tear-snapshot", site="stream.snapshot",
                      kind="torn_write", times=1),
            FaultSpec(name="stall-stream", site="stream.source",
                      kind="stall", at=1000, times=1, delay_s=0.2),
            FaultSpec(name="stall-first-request", site="serve.request",
                      kind="stall", at=0, times=1, delay_s=0.4),
            FaultSpec(name="fail-refresh", site="serve.refresh",
                      kind="error", times=3),
        ],
    )


# ---- activation ----------------------------------------------------------

#: The active plan; ``None`` keeps every fault_point a single global
#: load + compare (the disabled fast path the overhead bench pins).
_ACTIVE: Optional[FaultPlan] = None
#: Firings per fault name in this process (the whole ledger when the
#: plan has no state_dir; the unbounded faults' ledger when it has).
_LOCAL_FIRES: Dict[str, int] = {}
#: Ballast retained by ``leak`` firings until a ``release`` fires.
_BALLAST: List[bytearray] = []
#: True in child processes (worker_crash may SIGKILL only there).
_IS_WORKER = False


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def armed(site: str) -> bool:
    """True when the active plan names ``site``.

    Per-item loops test this once and add their fault point only when
    it holds, so an unarmed run executes no injection code per item.
    """
    plan = _ACTIVE
    return plan is not None and any(spec.site == site for spec in plan.faults)


def activate(
    plan: FaultPlan, state_dir: Optional[Union[str, Path]] = None
) -> FaultPlan:
    """Arm ``plan`` process-wide; returns it with ``state_dir`` bound.

    ``state_dir`` (created if missing) makes firing bounds hold across
    processes; without it the ledger is in-memory and per-process.
    """
    global _ACTIVE
    if state_dir is not None:
        plan.state_dir = str(state_dir)
    if plan.state_dir is not None:
        Path(plan.state_dir).mkdir(parents=True, exist_ok=True)
    _LOCAL_FIRES.clear()
    _ACTIVE = plan
    return plan


def deactivate() -> None:
    """Disarm; drops any leak ballast so a drill cannot outlive it."""
    global _ACTIVE
    _ACTIVE = None
    _LOCAL_FIRES.clear()
    _BALLAST.clear()


@contextmanager
def chaos(
    plan: FaultPlan, state_dir: Optional[Union[str, Path]] = None
) -> Iterator[FaultPlan]:
    """``with chaos(plan): ...`` -- activate for a scope, then disarm."""
    activate(plan, state_dir=state_dir)
    try:
        yield plan
    finally:
        deactivate()


def pool_initializer(plan: Optional[FaultPlan]) -> None:
    """Child-process entry: flag this process as a worker (enables a
    real SIGKILL) and re-arm the parent's plan.  The executor's pool
    initializer, and the first call of the serving plane's builder
    and workers."""
    global _IS_WORKER
    _IS_WORKER = True
    if plan is not None:
        activate(plan)


# ---- firing --------------------------------------------------------------

def _prf(seed: int, name: str, index: Optional[int]) -> float:
    """Seeded PRF in [0, 1): same inputs, same draw, every process."""
    payload = f"{seed}:{name}:{index}".encode("utf-8")
    draw = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
    return draw / 2.0 ** 64


def _claim_fire(plan: FaultPlan, spec: FaultSpec) -> bool:
    """Claim one firing slot and record it; False when ``times`` is spent.

    Bounded faults of a plan with a ``state_dir`` claim a mark file;
    everything else is counted in the in-memory ledger only, so an
    unbounded per-query fault writes nothing per firing.
    """
    fired = _LOCAL_FIRES.get(spec.name, 0)
    if spec.times is not None:
        if plan.state_dir is not None:
            if not _claim_mark(plan.state_dir, spec):
                return False
        elif fired >= spec.times:
            return False
    _LOCAL_FIRES[spec.name] = fired + 1
    return True


def _claim_mark(state_dir: str, spec: FaultSpec) -> bool:
    for slot in range(spec.times):
        mark = Path(state_dir) / f"{spec.name}.fire{slot}"
        try:
            fd = os.open(str(mark), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.write(fd, f"{os.getpid()}\n".encode("utf-8"))
        os.close(fd)
        return True
    return False


def _tear(path: Union[str, Path]) -> None:
    """Simulate a torn write: keep only the first half of the file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return
    path.write_bytes(data[: len(data) // 2])


def _execute(spec: FaultSpec, path: Optional[Union[str, Path]]) -> None:
    if spec.kind == "worker_crash":
        if _IS_WORKER:
            os.kill(os.getpid(), signal.SIGKILL)
        # In the parent (or serial mode) a SIGKILL would take down the
        # whole run -- the thing the chaos plane exists to prevent --
        # so the crash degrades to a retryable raised fault.
        raise InjectedFault(f"{spec.name}: worker_crash (in-process)")
    if spec.kind in ("worker_hang", "slow_shard", "stall"):
        time.sleep(spec.delay_s)
        return
    if spec.kind == "torn_write":
        if path is not None:
            _tear(path)
        return
    if spec.kind == "error":
        raise InjectedFault(spec.name)
    if spec.kind == "leak":
        # A one-byte fill is a memset: every page is resident, not
        # just mapped, so the process RSS really climbs.
        _BALLAST.append(bytearray(b"\x01") * spec.size_bytes)
        return
    if spec.kind == "release":
        _BALLAST.clear()
        return
    raise FaultPlanError(f"fault {spec.name!r}: no handler for {spec.kind!r}")


def fault_point(
    site: str,
    index: Optional[int] = None,
    path: Optional[Union[str, Path]] = None,
) -> None:
    """An injection point; a near-free no-op unless a plan is active.

    ``index`` is the site's deterministic sequence position (shard
    number, event ordinal, request ordinal...); ``path`` is the file a
    ``torn_write`` fault corrupts.
    """
    plan = _ACTIVE
    if plan is None:
        return
    for spec in plan.faults:
        if spec.site != site:
            continue
        if spec.at is not None and index != spec.at:
            continue
        if spec.probability < 1.0 and (
            _prf(plan.seed, spec.name, index) >= spec.probability
        ):
            continue
        if not _claim_fire(plan, spec):
            continue
        _observe_injection(
            spec, site, index, log=_LOCAL_FIRES[spec.name] == 1
        )
        _execute(spec, path)


def _observe_injection(
    spec: FaultSpec, site: str, index: Optional[int], log: bool
) -> None:
    """Count every firing; log only ``log`` ones (a fault's first in
    this process, so a per-query fault logs once, not per query).
    Never raises."""
    try:
        from repro.obs.metrics import instrument

        instrument(
            "counter", "faults_injected_total",
            "deliberate faults fired by the active FaultPlan",
        ).inc()
    except Exception:  # noqa: BLE001 -- injection must not need obs
        pass
    if not log:
        return
    try:
        import logging

        from repro.runtime.logging import get_logger, log_event

        log_event(
            get_logger("runtime.faults"), logging.WARNING, "fault.injected",
            fault=spec.name, kind=spec.kind, site=site, index=index,
        )
    except Exception:  # noqa: BLE001
        pass


def chaotic_events(events: Iterable) -> Iterator:
    """Wrap an event iterable with per-event ``stream.source`` points.

    Only used when a plan is active (see :func:`maybe_chaotic`); the
    index passed to the fault point is the event ordinal, so a plan's
    ``at = 1000`` stalls exactly at the thousandth event everywhere.
    """
    for index, event in enumerate(events):
        fault_point("stream.source", index=index)
        yield event


def maybe_chaotic(events: Iterable) -> Iterable:
    """Per-event injection only when armed; the iterable itself when not.

    This is the zero-overhead contract for hot loops: with no active
    plan the caller gets its original iterable back -- not a wrapper
    generator -- so disabled chaos adds nothing per event.
    """
    return chaotic_events(events) if armed("stream.source") else events


def injected_counts(plan: FaultPlan) -> Dict[str, int]:
    """Ground-truth firings per fault name.

    Bounded faults of a plan with a ``state_dir`` are read from its
    mark files (every process of the run); everything else from this
    process's in-memory ledger.
    """
    counts = {spec.name: 0 for spec in plan.faults}
    for spec in plan.faults:
        if spec.times is None or plan.state_dir is None:
            counts[spec.name] = _LOCAL_FIRES.get(spec.name, 0)
    if plan.state_dir is None:
        return counts
    state = Path(plan.state_dir)
    if not state.is_dir():
        return counts
    for mark in state.iterdir():
        stem, _, suffix = mark.name.rpartition(".fire")
        if stem in counts and suffix.isdigit():
            counts[stem] += 1
    return counts
