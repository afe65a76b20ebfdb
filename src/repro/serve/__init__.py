"""The online serving layer: queryable classification as a service.

The paper's census answers point questions -- *is this address
cellular?* -- and this package turns the streaming engine
(:mod:`repro.stream`) into a long-running answerer:

- :mod:`repro.serve.index` -- the LPM query engine: per-family radix
  tries over compiled classification state (ratio, threshold label,
  confidence tier, AS verdict, demand share);
- :mod:`repro.serve.protocol` -- the line-delimited JSON request
  protocol, shared with the horizontal serving plane
  (:mod:`repro.scale`);
- :mod:`repro.serve.service` -- the serving front end: the protocol
  over stdin/stdout or an AF_UNIX socket, with
  periodic atomic snapshots for crash-resume, and
  :func:`~repro.serve.service.service_metrics`, the serving metric set
  (built from the :mod:`repro.obs.metrics` primitives) behind the
  ``stats`` op and the SIGUSR1 dump.

``cellspot serve`` and ``cellspot query`` (:mod:`repro.cli`) are thin
wrappers over :class:`~repro.serve.service.CellSpotService`.
"""

from repro.serve.index import ClassificationIndex, IndexEntry, QueryResult
from repro.serve.service import (
    CellSpotService,
    ServiceConfig,
    service_metrics,
)

__all__ = [
    "CellSpotService",
    "ClassificationIndex",
    "IndexEntry",
    "QueryResult",
    "ServiceConfig",
    "service_metrics",
]
