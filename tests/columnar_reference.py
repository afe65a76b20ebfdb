"""Row-at-a-time reference implementations of the columnar kernels.

The equivalence contract of the columnar core is::

    repro.columnar (numpy kernels)  ==  reference (this module)

This module is the frozen *row-wise* semantics the kernels must
reproduce -- dict-accumulation loops written the way the pre-columnar
pipeline wrote them (the old per-row ``_spot_shard`` worker, the
``RatioTable.merge`` totals dict, the per-hit ``observe_hit`` ingest,
the per-key ``+=`` demand sums).  Nothing in the package calls it; it
exists so the property suite can check the vectorized kernels against
an implementation too simple to be wrong in the same way twice.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.ratios import RatioRecord, RatioTable
from repro.datasets.beacon_dataset import BeaconDataset
from repro.net.prefix import Prefix

#: Compact beacon row: (idx, family, value, length, asn, country,
#: hits, api, cell) -- the tuple shape of repro.parallel.sharding.
BeaconRow = Tuple[int, int, int, int, int, str, int, int, int]


def spot_rows(
    rows: Iterable[BeaconRow], min_api_hits: int, threshold: float
) -> Tuple[List[tuple], Dict[int, int]]:
    """Per-row ratio + label stage, exactly as the pre-columnar
    ``_spot_shard`` worker ran it.

    Returns kept rows with the label appended, plus the per-AS
    beacon-hit totals over *all* rows (insertion order = first seen).
    """
    out: List[tuple] = []
    hits_by_asn: Dict[int, int] = {}
    for idx, family, value, length, asn, country, hits, api, cell in rows:
        hits_by_asn[asn] = hits_by_asn.get(asn, 0) + hits
        if api >= min_api_hits:
            out.append(
                (
                    idx,
                    family,
                    value,
                    length,
                    asn,
                    country,
                    hits,
                    api,
                    cell,
                    cell / api >= threshold,
                )
            )
    return out, hits_by_asn


def accumulate_rows(
    rows: Iterable[BeaconRow],
    order: str = "canonical",
    check_meta: bool = False,
) -> List[BeaconRow]:
    """Dict-based group accumulation by subnet key.

    First-seen metadata and ``idx``; ``hits``/``api``/``cell`` summed
    as exact Python ints.  ``order="first_seen"`` keeps dict insertion
    order; ``order="canonical"`` sorts by ``(family, value, length)``.
    """
    groups: Dict[Tuple[int, int, int], list] = {}
    for idx, family, value, length, asn, country, hits, api, cell in rows:
        key = (family, value, length)
        current = groups.get(key)
        if current is None:
            groups[key] = [idx, family, value, length, asn, country,
                           hits, api, cell]
            continue
        if check_meta and (current[4], current[5]) != (asn, country):
            raise ValueError(
                f"conflicting metadata for {Prefix(family, value, length)}"
            )
        current[6] += hits
        current[7] += api
        current[8] += cell
    merged = [tuple(g) for g in groups.values()]
    if order == "canonical":
        merged.sort(key=lambda r: (r[1], r[2], r[3]))
    elif order != "first_seen":
        raise ValueError(f"unknown group order {order!r}")
    return merged


def group_sum_float_ordered(
    pairs: Iterable[Tuple[int, float]]
) -> Dict[int, float]:
    """``{key: float sum}`` accumulated per key in encounter order --
    the exact bits of the serial ``du_by_asn`` style loops."""
    totals: Dict[int, float] = {}
    for key, value in pairs:
        totals[key] = totals.get(key, 0.0) + value
    return totals


def duplicate_key(
    keys: Iterable[Tuple[int, int, int]]
) -> Optional[Tuple[int, int, int]]:
    """Key at the first repeat in iteration order (seen-set loop)."""
    seen = set()
    for key in keys:
        if key in seen:
            return key
        seen.add(key)
    return None


def merge_rowwise(tables: Iterable[RatioTable]) -> RatioTable:
    """Row-at-a-time ``RatioTable.merge``: the dict-accumulation loop
    the columnar merge replaced."""
    totals: Dict[Prefix, RatioRecord] = {}
    for table in tables:
        for record in table:
            current = totals.get(record.subnet)
            if current is None:
                totals[record.subnet] = record
                continue
            if (current.asn, current.country) != (
                record.asn,
                record.country,
            ):
                raise ValueError(f"conflicting metadata for {record.subnet}")
            totals[record.subnet] = RatioRecord(
                subnet=record.subnet,
                asn=record.asn,
                country=record.country,
                api_hits=current.api_hits + record.api_hits,
                cellular_hits=current.cellular_hits + record.cellular_hits,
                hits=current.hits + record.hits,
            )
    ordered = sorted(
        totals.values(),
        key=lambda r: (r.subnet.family, r.subnet.value, r.subnet.length),
    )
    return RatioTable(ordered)


def from_hits_rowwise(month: str, hits) -> BeaconDataset:
    """Per-hit ``BeaconDataset.from_hits``: the ``observe_hit`` loop the
    columnar ingest replaced."""
    dataset = BeaconDataset(month=month)
    for hit in hits:
        if hit.month != month:
            raise ValueError(f"hit from {hit.month} in a {month} collection")
        dataset.observe_hit(
            subnet=hit.subnet,
            asn=hit.asn,
            country=hit.country,
            browser=hit.browser,
            api_enabled=hit.api_enabled,
            cellular_labeled=hit.is_cellular_labeled,
        )
    return dataset
