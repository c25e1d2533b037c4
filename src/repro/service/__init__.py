"""Multi-tenant trace-analysis service (ROADMAP item 1).

The session layer (:mod:`repro.session`) is process-local: one
analyst, one process, one trace.  A production deployment serves many
concurrent viewers over the same hot traces, so this package stands up
a long-lived JSON-over-HTTP server — stdlib only, no new hard deps —
in four layers:

* :mod:`~repro.service.pool` — :class:`MappedCachePool`, the shared
  heart: N clients get zero-copy views of **one** ``.ostc`` mapping
  per trace (LRU-evicted, per-trace ``RLock``, stat-stamp
  invalidation) instead of N parses;
* :mod:`~repro.service.api` — :class:`TraceService`, the
  transport-independent request handlers (``open`` / ``navigate`` /
  ``render`` / ``stats`` / ``diff`` / ``sweep-status``) over the same
  :class:`~repro.session.AnalysisSession` API the CLI drives;
* :mod:`~repro.service.server` — the ``ThreadingHTTPServer``
  transport (``POST /api/<endpoint>`` with JSON bodies);
* :mod:`~repro.service.client` — the thin stdlib client behind
  ``aftermath_cli --remote`` and the docs' examples.

Endpoint request/response shapes, pool semantics and error codes are
specified (and doctested) in ``docs/service-api.md``.
"""

from .api import ServiceError, TraceService
from .client import ServiceClient
from .pool import MappedCachePool, PoolEntry
from .server import TraceServiceServer, create_server, start_server

__all__ = [
    "ServiceError", "TraceService", "ServiceClient",
    "MappedCachePool", "PoolEntry",
    "TraceServiceServer", "create_server", "start_server",
]
