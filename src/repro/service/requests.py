"""The service's request / response vocabulary.

A :class:`ServiceRequest` is what clients hand the front end: a static MaxRS
query (served from the dataset-bound :class:`~repro.engine.QueryEngine`), a
hotspot read against the live stream monitor, or an update batch that
mutates the monitor.  A :class:`ServiceResponse` pairs the answer with the
per-request serving metrics -- how long the request waited for its batch,
how big the batch was, which path served it -- that
:class:`~repro.service.metrics.ServiceStats` aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..core.result import MaxRSResult
from ..datasets.requests import RequestEvent
from ..datasets.streams import UpdateEvent
from ..engine.planner import Query

__all__ = ["ServiceRequest", "ServiceResponse"]


@dataclass(frozen=True)
class ServiceRequest:
    """One request to the serving front end.

    Use the named constructors: :meth:`static` for dataset queries,
    :meth:`read` for live-monitor hotspot reads, :meth:`update` for stream
    update batches.  Requests are frozen so identical static queries compare
    equal -- which is what lets the batcher coalesce them in flight.
    """

    kind: str
    query: Optional[Query] = None
    name: Optional[str] = None
    events: Tuple[UpdateEvent, ...] = ()

    def __post_init__(self):
        if self.kind not in ("query", "monitor", "update"):
            raise ValueError("request kind must be 'query', 'monitor' or 'update'")
        if self.kind == "query" and self.query is None:
            raise ValueError("static query requests need a query")
        if self.kind == "update" and not self.events:
            raise ValueError("update requests need at least one stream event")

    @staticmethod
    def static(query: Query) -> "ServiceRequest":
        """A static MaxRS query against the service's fixed dataset."""
        return ServiceRequest(kind="query", query=query)

    @staticmethod
    def read(name: Optional[str] = None) -> "ServiceRequest":
        """A hotspot read against the live monitor (``name`` selects one
        standing query of a multi-query monitor)."""
        return ServiceRequest(kind="monitor", name=name)

    @staticmethod
    def update(events) -> "ServiceRequest":
        """An update batch: stream events applied to the live monitor."""
        return ServiceRequest(kind="update", events=tuple(events))

    @staticmethod
    def from_trace(event: RequestEvent) -> "ServiceRequest":
        """Convert one :class:`~repro.datasets.requests.RequestEvent`."""
        return ServiceRequest(kind=event.kind, query=event.query,
                              name=event.name, events=event.events)

    @property
    def coalesce_key(self):
        """Requests with equal keys are satisfied by one answer (``None``
        means the request is never coalesced -- updates mutate state)."""
        if self.kind == "query":
            return ("q", self.query)
        if self.kind == "monitor":
            return ("m", self.name)
        return None


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
