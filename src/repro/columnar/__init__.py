"""Columnar hot core: vectorized record-batch kernels.

The census hot path (ingest -> ratio accumulation -> demand
aggregation) used to walk Python tuples one row at a time; this
package replaces those loops with batch-at-a-time columnar kernels:

:mod:`repro.columnar.kernels_np`
    numpy record-batch kernels -- lexsort grouping, ``reduceat``
    segment sums, vectorized FNV-1a shard hashing.

:mod:`repro.columnar.ops`
    the domain operations (classify, group-accumulate, partition,
    order restore) composed from those kernels.

numpy is a hard dependency but is loaded on first kernel use, not at
import: the batch and ops modules import :mod:`~repro.columnar.kernels_np`
inside the functions that call it, so ``import repro.cli`` and the
serving plane (which only needs :mod:`repro.columnar.mmaptable`) never
pay for it.  Every kernel is property-tested bit-identical to a frozen
per-row reference implementation kept with the test suite -- the test
harness, not the benchmark, is what licenses the speedup.
:mod:`repro.columnar.mmaptable` adds an mmap-backed
:class:`~repro.core.ratios.RatioTable` snapshot so pool workers share
read-only pages instead of pickling tables.
"""

from repro.columnar.batch import BeaconBatch, DemandBatch, SpotBatch
from repro.columnar.mmaptable import MmapRatioTable, open_mmap, save_mmap

__all__ = [
    "MmapRatioTable",
    "open_mmap",
    "save_mmap",
    "BeaconBatch",
    "DemandBatch",
    "SpotBatch",
]
