"""Benchmark: columnar kernel throughput.

The tentpole claim of the columnar core: the vectorized numpy classify
(``spot``) and group-accumulate kernels clear **2M events/s** --
versus the ~758k events/s ceiling of the per-row loops they replaced
-- and beat the frozen row-wise reference by **>= 3x** on the same
rows.  The equivalence property suite
(``tests/test_columnar_kernels.py``) licenses the speedup: these
numbers only count because the kernels are proven bit-identical.
"""

from __future__ import annotations

import random
import time

from repro.columnar import ops
from repro.columnar.batch import BeaconBatch
from tests import columnar_reference as reference

import pytest

#: Required classify throughput, events/second.
EVENTS_FLOOR = 2_000_000
#: Required advantage of the vectorized kernels over the row-wise
#: reference on identical rows.
SPEEDUP_FLOOR = 3.0
N_ROWS = 262_144
ROUNDS = 5


def _synthetic_rows(n: int):
    """Deterministic beacon rows shaped like the census workload:
    mixed IPv4 /24 + IPv6 /48, ~30% duplicate keys, skewed ASNs."""
    rng = random.Random(20170831)
    rows, keys = [], []
    for i in range(n):
        if keys and rng.random() < 0.3:
            family, value, length = keys[rng.randrange(len(keys))]
        else:
            if rng.random() < 0.25:
                family, length = 6, 48
                value = rng.randrange(0, 2 ** 128) & ~((1 << 80) - 1)
            else:
                family, length = 4, 24
                value = rng.randrange(0, 2 ** 32) & ~0xFF
            keys.append((family, value, length))
        api = rng.randrange(0, 40)
        rows.append(
            (
                i, family, value, length, rng.randrange(1, 70000), "US",
                api + rng.randrange(0, 15), api, rng.randrange(0, api + 1),
            )
        )
    return rows


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def rows():
    return _synthetic_rows(N_ROWS)


def test_classify_kernel_throughput(rows, bench_record):
    batch = BeaconBatch.from_rows(rows)
    best = _best_of(lambda: ops.spot_batch(batch, 3, 0.5))
    events_per_s = len(rows) / best
    print(f"\nspot: {len(rows):,} events in {best * 1000:.0f} ms "
          f"({events_per_s:,.0f} events/s, floor {EVENTS_FLOOR:,})")
    bench_record(
        "spot_events_per_s", events_per_s,
        unit="events/s", higher_is_better=True, threshold=EVENTS_FLOOR,
    )
    assert events_per_s >= EVENTS_FLOOR, (
        f"classify at {events_per_s:,.0f} events/s "
        f"(need >= {EVENTS_FLOOR:,})"
    )


def test_group_accumulate_throughput(rows, bench_record):
    batch = BeaconBatch.from_rows(rows)
    best = _best_of(
        lambda: ops.group_accumulate_beacons(batch, order="canonical")
    )
    events_per_s = len(rows) / best
    print(f"\naccumulate: {events_per_s:,.0f} events/s")
    bench_record(
        "accumulate_events_per_s", events_per_s,
        unit="events/s", higher_is_better=True,
    )


def test_ingest_batch_build_throughput(rows, bench_record):
    """Row -> column conversion (the ingest boundary cost)."""
    best = _best_of(lambda: BeaconBatch.from_rows(rows))
    events_per_s = len(rows) / best
    print(f"\nbatch build: {events_per_s:,.0f} events/s")
    bench_record(
        "batch_build_events_per_s", events_per_s,
        unit="events/s", higher_is_better=True,
    )


def test_vectorized_beats_rowwise_reference(rows, bench_record):
    """The >= 3x claim, measured against the frozen per-row arm."""
    batch = BeaconBatch.from_rows(rows)

    def columnar():
        spot, partial = ops.spot_batch(batch, 3, 0.5)
        ops.group_accumulate_beacons(spot.batch, order="canonical")
        return spot, partial

    def rowwise():
        kept, hits = reference.spot_rows(rows, 3, 0.5)
        reference.accumulate_rows([row[:9] for row in kept])
        return kept, hits

    columnar_s = _best_of(columnar, rounds=3)
    rowwise_s = _best_of(rowwise, rounds=3)
    speedup = rowwise_s / columnar_s
    print(f"\ncolumnar {columnar_s * 1000:.0f} ms vs row-wise "
          f"{rowwise_s * 1000:.0f} ms: {speedup:.1f}x "
          f"(floor {SPEEDUP_FLOOR}x)")
    bench_record(
        "columnar_vs_rowwise_speedup", speedup, unit="ratio",
        higher_is_better=True, threshold=SPEEDUP_FLOOR,
    )
    assert speedup >= SPEEDUP_FLOOR
