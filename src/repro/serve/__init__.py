"""The online serving layer: queryable classification as a service.

The paper's census answers point questions -- *is this address
cellular?* -- and this package turns the streaming engine
(:mod:`repro.stream`) into a long-running answerer:

- :mod:`repro.serve.index` -- the LPM query engine: per-family radix
  tries over compiled classification state (ratio, threshold label,
  confidence tier, AS verdict, demand share);
- :mod:`repro.serve.service` -- the serving front end: line-delimited
  JSON request/response over stdin/stdout or an AF_UNIX socket, with
  periodic atomic snapshots for crash-resume, and
  :func:`~repro.serve.service.service_metrics`, the serving metric set
  (built from the :mod:`repro.obs.metrics` primitives) behind the
  ``stats`` op and the SIGUSR1 dump.

``cellspot serve`` and ``cellspot query`` (:mod:`repro.cli`) are thin
wrappers over :class:`~repro.serve.service.CellSpotService`.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.index import ClassificationIndex, IndexEntry, QueryResult
from repro.serve.service import (
    CellSpotService,
    ServiceConfig,
    install_sigusr1_stats,
    service_metrics,
)

__all__ = [
    "CellSpotService",
    "ClassificationIndex",
    "Counter",
    "Gauge",
    "Histogram",
    "IndexEntry",
    "MetricsRegistry",
    "QueryResult",
    "ServiceConfig",
    "install_sigusr1_stats",
    "service_metrics",
]
