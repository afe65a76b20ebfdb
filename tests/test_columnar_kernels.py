"""Equivalence contract of the columnar hot core.

Seeded property suite over randomized record batches: every numpy
kernel and every domain operation must equal the per-row reference
(:mod:`tests.columnar_reference`) bit for bit -- mixed /24 and /48
keys, IPv4 and IPv6, duplicate keys, empty batches, single rows,
counts at the int64 edge.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.columnar import kernels_np as kernels
from repro.columnar import ops
from repro.columnar.batch import BeaconBatch, DemandBatch, SpotBatch
from repro.core.ratios import RatioRecord, RatioTable
from repro.net.prefix import Prefix
from repro.parallel.sharding import stable_shard_index
from repro.parallel.views import DemandMap
from tests import columnar_reference as reference


# ---- batch generators -------------------------------------------------------

def make_beacon_rows(rng, n, dup_frac=0.3, v6_frac=0.5):
    """Compact beacon rows with controlled duplicate-key pressure."""
    rows, keys = [], []
    for i in range(n):
        if keys and rng.random() < dup_frac:
            family, value, length = rng.choice(keys)
        else:
            if rng.random() < v6_frac:
                family, length = 6, 48
                value = rng.randrange(0, 2 ** 128) & ~((1 << 80) - 1)
            else:
                family, length = 4, 24
                value = rng.randrange(0, 2 ** 32) & ~0xFF
            keys.append((family, value, length))
        api = rng.randrange(0, 40)
        rows.append(
            (
                i,
                family,
                value,
                length,
                rng.randrange(1, 70000),
                rng.choice(["US", "DE", "JP", "BR", "IN", ""]),
                api + rng.randrange(0, 15),
                api,
                rng.randrange(0, api + 1),
            )
        )
    return rows


def make_demand_rows(rng, n, dup_frac=0.0):
    rows, keys = [], []
    for i in range(n):
        if keys and rng.random() < dup_frac:
            family, value, length = rng.choice(keys)
        else:
            family, length = (4, 24) if rng.random() < 0.5 else (6, 48)
            mask = ~0xFF if family == 4 else ~((1 << 80) - 1)
            value = rng.randrange(0, 2 ** (32 if family == 4 else 128)) & mask
            keys.append((family, value, length))
        rows.append(
            (
                i, family, value, length, rng.randrange(1, 300), "US",
                rng.random() * 50,
            )
        )
    return rows


BATCH_SHAPES = [(0, 0.0), (1, 0.0), (1, 1.0), (9, 0.5), (400, 0.35)]


# ---- spot and group-accumulate vs the reference ----------------------------

@pytest.mark.parametrize(
    "seed,min_api_hits,threshold", [(100, 3, 0.5), (300, 2, 0.8)]
)
@pytest.mark.parametrize("n,dup", BATCH_SHAPES)
def test_spot_matches_reference(n, dup, seed, min_api_hits, threshold):
    rng = random.Random(seed + n)
    rows = make_beacon_rows(rng, n, dup)
    batch = BeaconBatch.from_rows(rows)
    assert batch.to_rows() == rows  # lossless round-trip, incl. 2**127 values
    spot, (asns, asn_hits) = ops.spot_batch(batch, min_api_hits, threshold)
    ref_rows, ref_hits = reference.spot_rows(rows, min_api_hits, threshold)
    got = [r + (label,) for r, label in zip(spot.batch.to_rows(), spot.label)]
    assert got == ref_rows
    assert dict(zip(asns, asn_hits)) == ref_hits
    assert list(asns) == sorted(ref_hits)


@pytest.mark.parametrize("seed", [200, 300])
@pytest.mark.parametrize("n,dup", BATCH_SHAPES)
def test_group_accumulate_matches_reference(n, dup, seed):
    rng = random.Random(seed + n)
    rows = make_beacon_rows(rng, n, dup)
    batch = BeaconBatch.from_rows(rows)
    for order in ("canonical", "first_seen"):
        grouped = ops.group_accumulate_beacons(batch, order=order)
        assert grouped.to_rows() == reference.accumulate_rows(rows, order=order)


# ---- shard hashing ----------------------------------------------------------

@pytest.mark.parametrize("shards", [1, 2, 5, 8, 64])
def test_shard_index_matches_scalar_hash(shards):
    rng = random.Random(41)
    rows = make_beacon_rows(rng, 250, 0.2)
    # Edge keys: all-zero, all-ones 128-bit, int64-boundary values.
    edges = [
        (4, 0, 24), (6, 2 ** 128 - 1, 48), (6, 2 ** 127, 48),
        (4, 2 ** 32 - 256, 24), (6, (2 ** 64 - 1) << 64, 48),
        (6, 2 ** 64 - 1 - 0xFFFF, 48),
    ]
    keys = [(r[1], r[2], r[3]) for r in rows] + edges
    got = kernels.shard_index(
        kernels.index_col([key[0] for key in keys]),
        kernels.u64_col([key[1] >> 64 for key in keys]),
        kernels.u64_col([key[1] & (2 ** 64 - 1) for key in keys]),
        kernels.index_col([key[2] for key in keys]),
        shards,
    )
    expected = [
        stable_shard_index(family, value, length, shards)
        for family, value, length in keys
    ]
    assert [int(v) for v in got] == expected


def test_partition_batch_matches_rowwise_partition():
    from repro.parallel.sharding import partition_rows

    rng = random.Random(55)
    rows = make_beacon_rows(rng, 300, 0.25)
    batch = BeaconBatch.from_rows(rows)
    for shards in (1, 3, 7):
        parts = ops.partition_batch(batch, shards)
        assert [part.to_rows() for part in parts] == partition_rows(
            rows, shards
        )


# ---- merges and ordering ----------------------------------------------------

def test_sort_by_idx_restores_dataset_order():
    rng = random.Random(60)
    rows = make_beacon_rows(rng, 120, 0.0)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    batch = BeaconBatch.from_rows(shuffled)
    assert ops.sort_by_idx(batch).to_rows() == rows


def test_spot_concat_argsort_merge_equals_serial():
    """The zero-copy shard merge: concat columns + one idx argsort."""
    rng = random.Random(61)
    rows = make_beacon_rows(rng, 200, 0.0)
    batch = BeaconBatch.from_rows(rows)
    serial_spot, serial_partial = ops.spot_batch(batch, 2, 0.5)
    spots, partials = [], []
    for part in ops.partition_batch(batch, 5):
        spot, partial = ops.spot_batch(part, 2, 0.5)
        spots.append(spot)
        partials.append(partial)
    merged = ops.sort_spot_by_idx(SpotBatch.concat(spots))
    assert merged.batch.to_rows() == serial_spot.batch.to_rows()
    assert merged.label == serial_spot.label
    assert ops.merge_asn_partials(partials) == dict(
        zip(*serial_partial)
    )


def test_metadata_conflict_raises_like_rowwise():
    rng = random.Random(62)
    rows = make_beacon_rows(rng, 40, 0.0)
    first = rows[0]
    rows.append((len(rows),) + first[1:4] + (first[4] + 1, first[5])
                + first[6:9])
    with pytest.raises(ValueError) as ref_err:
        reference.accumulate_rows(rows, check_meta=True)
    batch = BeaconBatch.from_rows(rows)
    with pytest.raises(ValueError) as got_err:
        ops.group_accumulate_beacons(batch, check_meta=True)
    assert str(got_err.value) == str(ref_err.value)
    assert "conflicting metadata for" in str(got_err.value)


def test_duplicate_key_detection_matches_seen_set():
    rng = random.Random(63)
    rows = make_demand_rows(rng, 80, dup_frac=0.3)
    batch = DemandBatch.from_rows(rows)
    expected = reference.duplicate_key((r[1], r[2], r[3]) for r in rows)
    assert ops.find_duplicate_key(batch) == expected
    clean = DemandBatch.from_rows(make_demand_rows(rng, 50))
    assert ops.find_duplicate_key(clean) is None


# ---- integer boundaries (regression: counts must never wrap) ----------------

def test_counts_at_int64_boundary_promote_not_wrap():
    """Sums past 2**63 promote to exact Python ints."""
    near = 2 ** 63 - 5
    rows = [
        (0, 4, 0x0A000000, 24, 1, "US", near, near - 2, 2 ** 62),
        (1, 4, 0x0A000000, 24, 1, "US", near, near - 2, 2 ** 62),
        (2, 4, 0x0A000100, 24, 2, "DE", 2 ** 31, 2 ** 31 - 1, 2 ** 31 - 2),
        (3, 4, 0x0A000100, 24, 2, "DE", 2 ** 31, 2 ** 31 - 1, 2 ** 31 - 2),
    ]
    batch = BeaconBatch.from_rows(rows)
    grouped = ops.group_accumulate_beacons(batch, order="canonical")
    assert grouped.to_rows() == reference.accumulate_rows(rows)
    merged = grouped.to_rows()
    assert merged[0][6] == 2 * near  # > int64 max, exact
    assert merged[1][6] == 2 ** 32  # crosses 2**31 cleanly


def test_column_overflow_promotes_to_exact_ints():
    col = kernels.int_col([2 ** 64, -(2 ** 70), 3])
    assert kernels.to_list(col) == [2 ** 64, -(2 ** 70), 3]
    perm = kernels.lex_argsort([kernels.index_col([0, 0, 0])])
    starts = kernels.group_bounds([kernels.index_col([0, 0, 0])], perm)
    assert kernels.segment_sum_int(col, perm, starts) == [2 ** 64 - 2 ** 70 + 3]


def test_ratio_division_past_float53_uses_exact_path():
    """cell/api past 2**53 takes correctly-rounded big-int division,
    matching the serial classifier's Python ``/``."""
    api = 2 ** 53 + 2
    cell = 2 ** 52 + 1
    rows = [(0, 4, 0x01000000, 24, 1, "US", api + 1, api, cell)]
    batch = BeaconBatch.from_rows(rows)
    threshold = cell / api
    spot, _ = ops.spot_batch(batch, 1, threshold)
    ref_rows, _ = reference.spot_rows(rows, 1, threshold)
    assert spot.label == [ref_rows[0][-1]]


# ---- float summation order (regression: merged == serial bits) --------------

def test_sharded_demand_sums_equal_serial_bits():
    """Per-AS demand sums after shard interleave equal the serial
    per-key accumulation exactly -- not approximately."""
    rng = random.Random(64)
    rows = make_demand_rows(rng, 500)
    serial = reference.group_sum_float_ordered((r[4], r[6]) for r in rows)
    batch = DemandBatch.from_rows(rows)
    parts = ops.partition_batch(batch, 6)
    restored = ops.sort_by_idx(DemandBatch.concat(parts))
    assert ops.demand_du_by_asn(restored) == serial  # == on floats: exact


def test_segment_sum_float_is_sequential_not_pairwise():
    """The float kernel must accumulate left-to-right; pairwise or
    fsum-style reductions produce different bits on this input."""
    rng = random.Random(65)
    values = [rng.random() * 10 ** rng.randrange(-8, 9) for _ in range(4000)]
    col = kernels.float_col(values)
    perm = kernels.index_col(range(len(values)))
    starts = kernels.index_col([0])
    sequential = 0.0
    for value in values:
        sequential += value
    assert kernels.segment_sum_float_ordered(col, perm, starts) == [sequential]


# ---- domain-level equivalence ----------------------------------------------

def _table(rng, n, base=0):
    records = []
    seen = set()
    while len(records) < n:
        prefix = Prefix.make(4, rng.randrange(0, 2 ** 32), 24)
        if prefix in seen:
            continue
        seen.add(prefix)
        api = rng.randrange(1, 50)
        records.append(
            RatioRecord(
                prefix, base + rng.randrange(1, 500), "US", api,
                rng.randrange(0, api + 1), api + 2,
            )
        )
    return records


def test_ratio_table_merge_equals_rowwise():
    rng = random.Random(70)
    shared = _table(rng, 12)
    tables = [
        RatioTable(shared[:8]),
        RatioTable(shared[4:]),
        RatioTable(_table(rng, 5)),
    ]
    # Overlapping subnets must agree on metadata to be mergeable.
    assert RatioTable.merge(tables) == reference.merge_rowwise(tables)
    assert RatioTable.merge([]) == reference.merge_rowwise([])
    # Canonical output order, pinned.
    merged = RatioTable.merge(tables)
    keys = [
        (r.subnet.family, r.subnet.value, r.subnet.length) for r in merged
    ]
    assert keys == sorted(keys)


def test_ratio_table_merge_conflict_message_matches():
    prefix = Prefix.make(4, 0x0A000000, 24)
    a = RatioTable([RatioRecord(prefix, 1, "US", 5, 1, 6)])
    b = RatioTable([RatioRecord(prefix, 2, "US", 5, 1, 6)])
    with pytest.raises(ValueError) as rowwise_err:
        reference.merge_rowwise([a, b])
    with pytest.raises(ValueError) as columnar_err:
        RatioTable.merge([a, b])
    assert str(columnar_err.value) == str(rowwise_err.value)


def test_from_hits_equals_rowwise(beacon_hits):
    from repro.datasets.beacon_dataset import BeaconDataset

    month = beacon_hits[0].month
    # Tiny batch size forces many chunk folds over real generator hits.
    columnar = BeaconDataset.from_hits(month, beacon_hits, batch_rows=997)
    rowwise = reference.from_hits_rowwise(month, beacon_hits)
    assert list(columnar._by_subnet) == list(rowwise._by_subnet)
    assert columnar._by_subnet == rowwise._by_subnet
    assert columnar.browser_counts == rowwise.browser_counts
    assert list(columnar.browser_counts) == list(rowwise.browser_counts)


def test_from_hits_rejects_foreign_months_and_bad_labels():
    from repro.datasets.beacon_dataset import BeaconDataset
    from repro.cdn.logs import BeaconHit
    from repro.cdn.netinfo import ConnectionType
    from repro.world.population import Browser

    subnet = Prefix.make(4, 0x0A000000, 24)
    hit = BeaconHit(
        month="2017-02", family=4, address=0x0A000001, subnet=subnet,
        asn=1, country="US", browser=Browser.CHROME_MOBILE,
        api_enabled=True, connection_type=ConnectionType.CELLULAR,
    )
    with pytest.raises(ValueError, match="2017-02 in a 2017-01 collection"):
        BeaconDataset.from_hits("2017-01", [hit])


def test_demand_map_from_batch_equals_from_rows():
    rng = random.Random(71)
    rows = make_demand_rows(rng, 150)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    batch = DemandBatch.from_rows(shuffled)
    from_batch = DemandMap.from_batch(batch)
    from_rows = DemandMap.from_rows(shuffled)
    assert list(from_batch) == list(from_rows)
    for row in rows:
        prefix = Prefix(row[1], row[2], row[3])
        assert from_batch.du_of(prefix) == from_rows.du_of(prefix)
    duplicated = shuffled + [shuffled[0]]
    renumbered = [
        (i,) + row[1:] for i, row in enumerate(duplicated)
    ]
    with pytest.raises(ValueError) as rows_err:
        DemandMap.from_rows(renumbered)
    with pytest.raises(ValueError) as batch_err:
        DemandMap.from_batch(DemandBatch.from_rows(renumbered))
    assert str(batch_err.value) == str(rows_err.value)


# ---- mmap ratio snapshots ---------------------------------------------------

def test_mmap_table_round_trip_and_lookups(tmp_path):
    rng = random.Random(80)
    records = _table(rng, 60) + [
        RatioRecord(Prefix.make(6, rng.randrange(0, 2 ** 128), 48),
                    7, "JP", 9, 4, 11),
    ]
    table = RatioTable(records)
    path = table.save_mmap(tmp_path / "ratios.mm")
    mapped = RatioTable.open_mmap(path)
    try:
        assert mapped == table
        assert len(mapped) == len(table)
        for record in records:
            assert mapped.get(record.subnet) == record
            assert record.subnet in mapped
        absent = Prefix.make(4, 0xDEADBEEF, 24)
        if table.get(absent) is None:
            assert mapped.get(absent) is None
        keys = [
            (r.subnet.family, r.subnet.value, r.subnet.length)
            for r in mapped
        ]
        assert keys == sorted(keys)
        assert mapped.ratio_cdf(4).quantile(0.5) == (
            table.ratio_cdf(4).quantile(0.5)
        )
    finally:
        mapped.close()


def test_mmap_table_pickles_by_path(tmp_path):
    rng = random.Random(81)
    table = RatioTable(_table(rng, 400))
    mapped = RatioTable.open_mmap(table.save_mmap(tmp_path / "r.mm"))
    try:
        blob = pickle.dumps(mapped)
        # Pickling by path: bytes stay O(path), not O(records).
        assert len(blob) < 400
        clone = pickle.loads(blob)
        try:
            assert clone == table
        finally:
            clone.close()
    finally:
        mapped.close()


def test_mmap_snapshot_rejects_corruption(tmp_path):
    from repro.columnar.mmaptable import open_mmap

    table = RatioTable(_table(random.Random(82), 10))
    path = table.save_mmap(tmp_path / "r.mm")
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="bad magic"):
        open_mmap(path)
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="truncated"):
        open_mmap(path)
    good = table.save_mmap(tmp_path / "r2.mm")
    truncated = good.read_bytes()[:-8]
    good.write_bytes(truncated)
    with pytest.raises(ValueError, match="size mismatch"):
        open_mmap(good)


def test_mmap_snapshot_refuses_unsnapshotable_counts(tmp_path):
    big = RatioTable(
        [RatioRecord(Prefix.make(4, 0, 24), 1, "US", 2 ** 63, 5, 2 ** 63 + 1)]
    )
    with pytest.raises(ValueError, match="int64"):
        big.save_mmap(tmp_path / "big.mm")
