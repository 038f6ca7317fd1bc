"""The service's response type.

Requests are :class:`~repro.datasets.requests.ServiceRequest`, the one
request type that a trace line, a wire body and a served request share: a
static MaxRS query (served from the dataset-bound
:class:`~repro.engine.QueryEngine`), a hotspot read against the live stream
monitor, or an update batch that mutates the monitor.  A
:class:`ServiceResponse` pairs the answer with the per-request serving
metrics -- how long the request waited for its batch, how big the batch
was, which path served it -- that
:class:`~repro.service.metrics.ServiceStats` aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.result import MaxRSResult
from ..datasets.requests import ServiceRequest
from ..engine.planner import Query

__all__ = ["ServiceResponse"]


@dataclass
class ServiceResponse:
    """The answer to one request, plus its per-request serving metrics.

    Attributes
    ----------
    request:
        The request this answers.
    result:
        The MaxRS answer (``None`` for update requests).
    served_query:
        For static queries: the *concrete* query the solver actually ran --
        the request's query with ``backend="auto"`` resolved for the batch.
        Under ``routing="direct"`` (the default), re-issuing ``served_query``
        through a direct solver call reproduces ``result`` bit-for-bit (the
        serving differential guarantee).  Answers produced through the
        sharded engine (``routing="sharded"``, or a quadratic-cost query
        under ``routing="auto"``) keep the same optimum *value* but may
        report a different, equally optimal placement.
    served_from:
        ``"solver"`` (fresh engine/solver call), ``"monitor"`` (fresh
        monitor pass), ``"cache"`` (TTL cache hit), ``"coalesced"``
        (piggybacked on an identical request in the same flush), or
        ``"update"`` (applied update batch).  (On the wire,
        :mod:`repro.net` also answers ``"error"`` for a request that never
        reached a flush.)
    batch_size:
        Number of requests served in the same flush.
    queue_wait:
        Seconds between the :meth:`~repro.service.MaxRSService.serve` call
        and the start of its flush (the wait for a concurrent call's flush).
    latency:
        Seconds between submission and the response being ready.
    batch_id:
        Monotone id of the flush that served the request.
    error:
        The exception that failed the request, if any (``result`` is then
        ``None``).
    """

    request: ServiceRequest
    result: Optional[MaxRSResult] = None
    served_query: Optional[Query] = None
    served_from: str = "solver"
    batch_size: int = 1
    queue_wait: float = 0.0
    latency: float = 0.0
    batch_id: int = 0
    error: Optional[Exception] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """Whether the request was served without an error."""
        return self.error is None
