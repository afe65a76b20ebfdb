"""Domain operations over record batches.

Everything here composes the primitive kernels (``lex_argsort`` /
``group_bounds`` / ``segment_*`` / ``spot`` / ``shard_index``) into
the operations the pipeline actually runs: classify a batch, merge
per-AS partials, group-accumulate subnet counts, partition by shard
hash, restore dataset order.  Each operation imports
:mod:`repro.columnar.kernels_np` when called, so importing this
module does not load numpy.

Ordering contracts (the bit-identity currency of this codebase):

* ``order="canonical"`` groups come back sorted by
  ``(family, value, length)`` -- the order ``RatioTable.merge`` and
  the dataset ``merge`` monoids pin.
* ``order="first_seen"`` groups come back in first-occurrence order --
  the insertion order the serial per-row accumulators produce, which
  downstream dict iteration (and therefore golden CSV bytes) depends
  on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.columnar.batch import BeaconBatch, DemandBatch, SpotBatch, _join_value


def spot_batch(
    batch: BeaconBatch, min_api_hits: int, threshold: float
) -> Tuple[SpotBatch, Tuple[List[int], List[int]]]:
    """Classify one beacon batch: kept rows + labels + per-AS hits.

    The columnar kernel behind the ``_spot_shard`` pool worker
    (replacing its old per-row loop, frozen as ``spot_rows`` in the
    test suite's row-wise reference); returns the kept rows
    (``api >= min_api_hits``, batch order) with their labels, plus the
    batch's ``(asns, hit_sums)`` partial (ascending ASN, *all* rows
    counted).
    """
    from repro.columnar import kernels_np as k

    keep, labels, uniq_asns, asn_hits = k.spot(
        batch.asn, batch.hits, batch.api, batch.cell,
        min_api_hits, threshold,
    )
    return SpotBatch(batch=batch.take(keep), label=labels), (uniq_asns, asn_hits)


def merge_asn_partials(
    partials: Sequence[Tuple[List[int], List[int]]]
) -> Dict[int, int]:
    """Sum per-shard ``(asns, hits)`` partials into one dict.

    Ascending-ASN output order; integer sums are order-independent so
    any shard interleave reduces to the same dict.
    """
    from repro.columnar import kernels_np as k

    asns = k.int_col([a for asns_part, _ in partials for a in asns_part])
    hits = k.int_col([h for _, hits_part in partials for h in hits_part])
    perm = k.lex_argsort([asns])
    starts = k.group_bounds([asns], perm)
    uniq = k.segment_first(asns, perm, starts)
    sums = k.segment_sum_int(hits, perm, starts)
    return {int(a): int(s) for a, s in zip(uniq, sums)}


def sort_by_idx(batch):
    """Restore original dataset order (after any shard interleave)."""
    from repro.columnar import kernels_np as k

    return batch.take(k.lex_argsort([batch.idx]))


def sort_spot_by_idx(spot: SpotBatch) -> SpotBatch:
    """Restore a concatenated spot batch to dataset order, labels too."""
    from repro.columnar import kernels_np as k

    return spot.take(k.lex_argsort([spot.batch.idx]))


def _group_order(k, perm, starts, order: str):
    """Group traversal order: positions into ``starts``."""
    if order == "canonical":
        return range(len(starts))
    if order == "first_seen":
        # Stable sort => perm[start] is the group's smallest original
        # row; sorting groups by it recovers first-occurrence order.
        first_rows = k.index_col([perm[s] for s in starts])
        return k.to_list(k.lex_argsort([first_rows]))
    raise ValueError(f"unknown group order {order!r}")


def group_accumulate_beacons(
    batch: BeaconBatch,
    order: str = "canonical",
    check_meta: bool = False,
) -> BeaconBatch:
    """Group by subnet, summing ``hits``/``api``/``cell``.

    Metadata (``asn``/``country``) is taken from each group's first
    row; with ``check_meta`` a disagreement inside any group raises
    the same ``conflicting metadata for <subnet>`` error the row-wise
    merges raise.  ``idx`` carries each group's first row index.
    """
    from repro.columnar import kernels_np as k

    keys = batch.key_columns
    perm = k.lex_argsort(list(keys))
    starts = k.group_bounds(list(keys), perm)

    if check_meta:
        candidates = [
            row
            for row in (
                k.segment_check_equal(batch.asn, perm, starts),
                _first_country_conflict(batch.country, perm, starts),
            )
            if row is not None
        ]
        if candidates:
            # Raise for the earliest conflicting row in dataset order,
            # like the row-wise accumulators that notice mid-iteration.
            raise ValueError(
                f"conflicting metadata for {batch.prefix_at(min(candidates))}"
            )

    hit_sums = k.segment_sum_int(batch.hits, perm, starts)
    api_sums = k.segment_sum_int(batch.api, perm, starts)
    cell_sums = k.segment_sum_int(batch.cell, perm, starts)
    rep_rows = [int(perm[s]) for s in starts]

    positions = _group_order(k, perm, starts, order)
    rep = [rep_rows[g] for g in positions]
    rep_col = k.index_col(rep)
    return BeaconBatch(
        idx=k.take(batch.idx, rep_col),
        family=k.take(batch.family, rep_col),
        value_hi=k.take(batch.value_hi, rep_col),
        value_lo=k.take(batch.value_lo, rep_col),
        length=k.take(batch.length, rep_col),
        asn=k.take(batch.asn, rep_col),
        country=[batch.country[r] for r in rep],
        hits=k.int_col([hit_sums[g] for g in positions]),
        api=k.int_col([api_sums[g] for g in positions]),
        cell=k.int_col([cell_sums[g] for g in positions]),
    )


def _first_country_conflict(
    country: List[str], perm, starts
) -> Optional[int]:
    """Smallest original row whose country disagrees with its group
    head (Python strings never enter the array kernels)."""
    n = len(perm)
    starts_list = [int(s) for s in starts]
    first: Optional[int] = None
    for g, start in enumerate(starts_list):
        stop = starts_list[g + 1] if g + 1 < len(starts_list) else n
        head = country[int(perm[start])]
        for position in range(start + 1, stop):
            if country[int(perm[position])] != head:
                row = int(perm[position])
                if first is None or row < first:
                    first = row
                break
    return first


def find_duplicate_key(batch) -> Optional[Tuple[int, int, int]]:
    """First repeated subnet key ``(family, value, length)``, if any.

    "First" in row order: the key whose *second* occurrence has the
    smallest row position -- the repeat a row-wise ``seen``-set loop
    notices first.
    """
    from repro.columnar import kernels_np as k

    keys = list(batch.key_columns)
    perm = k.lex_argsort(keys)
    starts = k.group_bounds(keys, perm)
    n = len(perm)
    if len(starts) == n:
        return None
    starts_list = [int(s) for s in starts]
    best_row: Optional[int] = None
    for g, start in enumerate(starts_list):
        stop = starts_list[g + 1] if g + 1 < len(starts_list) else n
        if stop - start > 1:
            # Stable sort: perm runs ascending within the group, so
            # perm[start + 1] is the group's second occurrence.
            row = int(perm[start + 1])
            if best_row is None or row < best_row:
                best_row = row
    if best_row is None:
        return None
    return (
        int(batch.family[best_row]),
        _join_value(
            int(batch.value_hi[best_row]), int(batch.value_lo[best_row])
        ),
        int(batch.length[best_row]),
    )


def partition_batch(batch, shards: int) -> list:
    """Split a batch into prefix-hash partitions (original row order
    preserved inside each shard, like the row-wise partitioner)."""
    from repro.columnar import kernels_np as k

    if shards == 1:
        return [batch]
    sidx = k.shard_index(
        batch.family, batch.value_hi, batch.value_lo, batch.length, shards
    )
    perm = k.lex_argsort([sidx])
    starts = k.group_bounds([sidx], perm)
    present = [int(s) for s in k.segment_first(sidx, perm, starts)]
    starts_list = [int(s) for s in starts]
    n = len(perm)
    empty = batch.take(k.index_col([]))
    parts = [empty] * shards
    for g, shard in enumerate(present):
        start = starts_list[g]
        stop = starts_list[g + 1] if g + 1 < len(starts_list) else n
        parts[shard] = batch.take(k.take(perm, k.index_col(range(start, stop))))
    return parts


def demand_du_by_asn(batch: DemandBatch) -> Dict[int, float]:
    """Per-AS demand sums, bit-identical to the serial accumulators.

    Stable grouping + sequential within-group accumulation reproduce
    the per-key ``+=`` order of ``DemandDataset.du_by_asn`` exactly;
    output dict is in ascending-ASN order.
    """
    from repro.columnar import kernels_np as k

    perm = k.lex_argsort([batch.asn])
    starts = k.group_bounds([batch.asn], perm)
    uniq = k.segment_first(batch.asn, perm, starts)
    sums = k.segment_sum_float_ordered(batch.du, perm, starts)
    return {int(a): float(s) for a, s in zip(uniq, sums)}
