"""Per-request service metrics and their aggregation.

Every :class:`~repro.service.requests.ServiceResponse` carries its own
timings (queue wait, end-to-end latency) and batching facts (flush size, how
it was served).  :class:`ServiceStats` folds a stream of responses into the
aggregate view operators actually watch: request counts by kind and serving
path, coalescing and cache-hit rates, mean flush size, and p50/p95 latency
percentiles.

The percentile machinery lives in :mod:`repro.obs.metrics` --
:func:`repro.obs.metrics.percentile` (re-exported here for compatibility)
and the bounded-reservoir :class:`repro.obs.Histogram` that backs the
queue-wait and latency distributions.  ``ServiceStats`` is the service's
view over those shared primitives; its ``snapshot()`` schema is unchanged.
"""

from __future__ import annotations

from typing import Dict

from ..obs.metrics import Histogram, percentile

__all__ = ["percentile", "ServiceStats"]

#: How many recent observations the percentile reservoirs keep.  A
#: long-running service must not grow per-request state without bound, so
#: latency/queue-wait percentiles are computed over a sliding window of the
#: most recent requests (counts and means stay exact over the full history).
RESERVOIR_SIZE = 4096


class ServiceStats:
    """Aggregates response metrics into the service's observable counters.

    Counts and means are exact over the whole service lifetime; the latency
    and queue-wait percentiles come from bounded
    :class:`repro.obs.Histogram` reservoirs over the most recent
    :data:`RESERVOIR_SIZE` requests, so a long-running service
    holds O(1) metrics state.
    """

    def __init__(self):
        self.requests = 0
        self.by_kind: Dict[str, int] = {"query": 0, "monitor": 0, "update": 0}
        self.served_from: Dict[str, int] = {}
        self.stream_events = 0
        self.flushes = 0
        self.solver_calls = 0
        self.monitor_passes = 0
        self.planned_shard_tasks = 0
        self._batch_size_sum = 0
        self._queue_waits = Histogram("service.queue_wait",
                                      reservoir=RESERVOIR_SIZE)
        self._latencies = Histogram("service.latency",
                                    reservoir=RESERVOIR_SIZE)

    def record(self, response) -> None:
        """Fold one :class:`~repro.service.requests.ServiceResponse` in."""
        self.requests += 1
        self.by_kind[response.request.kind] = (
            self.by_kind.get(response.request.kind, 0) + 1)
        self.served_from[response.served_from] = (
            self.served_from.get(response.served_from, 0) + 1)
        self.stream_events += len(response.request.events)
        self._batch_size_sum += response.batch_size
        self._queue_waits.observe(response.queue_wait)
        self._latencies.observe(response.latency)

    def record_flush(self, solver_calls: int = 0, monitor_passes: int = 0) -> None:
        """Count one batch flush and the backend work it actually submitted."""
        self.flushes += 1
        self.solver_calls += solver_calls
        self.monitor_passes += monitor_passes

    @property
    def coalesced(self) -> int:
        """Requests that piggybacked on an identical in-flight request."""
        return self.served_from.get("coalesced", 0)

    @property
    def cache_hits(self) -> int:
        """Requests answered from the TTL'd result cache."""
        return self.served_from.get("cache", 0)

    def mean_batch_size(self) -> float:
        """Average flush size over all served requests (``nan`` when idle)."""
        if not self.requests:
            return float("nan")
        return self._batch_size_sum / self.requests

    def snapshot(self) -> Dict[str, object]:
        """One JSON-serialisable dict of every aggregate the service reports."""
        return {
            "requests": self.requests,
            "by_kind": dict(self.by_kind),
            "served_from": dict(self.served_from),
            "stream_events": self.stream_events,
            "flushes": self.flushes,
            "solver_calls": self.solver_calls,
            "monitor_passes": self.monitor_passes,
            "planned_shard_tasks": self.planned_shard_tasks,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "mean_batch_size": self.mean_batch_size(),
            "queue_wait_p50": self._queue_waits.percentile(50.0),
            "queue_wait_p95": self._queue_waits.percentile(95.0),
            "latency_p50": self._latencies.percentile(50.0),
            "latency_p95": self._latencies.percentile(95.0),
        }
