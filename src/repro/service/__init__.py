"""Query-serving core for MaxRS workloads.

Everything below :mod:`repro.service` answers *one* query at a time: the
solver functions are one-shot calls, the engine serves one batch it is
handed, the monitors answer one ``current()`` pass.  This package is the
layer that faces *traffic* -- many clients issuing heterogeneous MaxRS
requests concurrently against shared state -- and turns the machinery
underneath into a serving system:

* :class:`ServiceRequest` -- the one request type, defined in
  :mod:`repro.datasets.requests` so that a trace line, a wire body and a
  served request are the same object: a static dataset query, a
  live-monitor hotspot read, or a monitor update batch;
* :mod:`repro.service.requests` -- :class:`ServiceResponse`, the answer
  plus its per-request serving metrics;
* :mod:`repro.service.batcher` -- micro-batch formation: flush windows are
  split into ordered serve / update groups (updates are barriers) and
  identical in-flight requests are coalesced onto one backend call;
* :mod:`repro.service.cache` -- :class:`TTLCache`, the TTL'd LRU result
  cache whose monitor-side keys embed the monitor's ``generation`` token so
  update batches implicitly invalidate stale answers;
* :mod:`repro.service.metrics` -- per-request metrics (queue wait, flush
  size, latency) and their aggregation (:class:`ServiceStats`,
  :func:`percentile`);
* :mod:`repro.service.server` -- :class:`MaxRSService`, the synchronous
  serving core: :meth:`~MaxRSService.serve` answers one window of requests,
  :meth:`~MaxRSService.serve_trace` replays a trace in windows, and
  :class:`repro.net.MaxRSServer` puts it on a socket.

Serving preserves the layers' guarantees: with the default
``routing="direct"`` every served answer is **bit-identical** to the direct
solver call for the concrete query recorded on the response, and monitor
reads are bit-identical to querying the monitor yourself at the same stream
position (the ``service`` bench suite enforces both differentially).

Quickstart
----------
>>> from repro.engine import Query
>>> from repro.service import MaxRSService, ServiceRequest
>>> service = MaxRSService([(0.0, 0.0), (0.5, 0.5), (5.0, 5.0)])
>>> batch = [ServiceRequest.static(Query.disk(1.0))] * 3
>>> [r.value for r in (resp.result for resp in service.serve(batch))]
[2.0, 2.0, 2.0]
"""

from ..datasets.requests import ServiceRequest
from .batcher import Group, coalesce, form_groups
from .cache import MISSING, TTLCache
from .metrics import ServiceStats, percentile
from .requests import ServiceResponse
from .server import MaxRSService, TraceReport

__all__ = [
    "MaxRSService",
    "TraceReport",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceStats",
    "TTLCache",
    "MISSING",
    "Group",
    "form_groups",
    "coalesce",
    "percentile",
]
