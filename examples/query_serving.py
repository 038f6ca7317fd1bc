"""Query serving: a mixed request stream through the serving core.

Mirrors ``examples/sharded_engine.py`` for the serving layer
(:mod:`repro.service`).  A :class:`~repro.service.MaxRSService` fronts a
clustered static dataset *and* a live dirty-shard hotspot monitor, and a
synthetic open-loop trace (Zipf-popular queries, flash-crowd arrival bursts,
interleaved monitor update batches) is replayed through it.  The script
shows:

* one flush window serving a mixed batch -- duplicates coalesced, a monitor
  read and an update batch interleaved with the ordering barrier honoured;
* the TTL'd cache serving re-issued queries without touching a solver, and
  an update batch invalidating the monitor-derived entries (the monitor's
  ``generation`` token changes, so stale answers become unreachable);
* a 2000-request trace replay with the serving metrics -- throughput,
  coalescing and cache-hit counts, mean flush size, p50/p95 latency;
* the differential guarantee: a served answer equals the direct solver call
  for the concrete query recorded on the response, bit for bit.

Run with:  python examples/query_serving.py
"""

from repro.datasets import clustered_points, request_trace, trace_counts
from repro.datasets.streams import UpdateEvent
from repro.engine import Query
from repro.engine.planner import solve_query
from repro.service import MaxRSService, ServiceRequest
from repro.streaming import ShardedMaxRSMonitor

N_POINTS = 800
N_REQUESTS = 2000
WINDOW = 64


def main() -> None:
    points = clustered_points(N_POINTS, dim=2, extent=10.0, clusters=4, seed=17)
    monitor = ShardedMaxRSMonitor(radius=0.5)
    print("Serving %d static points plus a live radius-0.5 hotspot monitor"
          % len(points))

    with MaxRSService(points, monitor=monitor, cache_ttl=300.0) as service:
        # ------------------------------------------------------------- #
        # One flush window, mixed kinds, with an update barrier.
        # ------------------------------------------------------------- #
        disk = ServiceRequest.static(Query.disk(1.0))
        batch = [
            disk,
            ServiceRequest.static(Query.rectangle(2.0, 2.0)),
            disk,                                     # coalesced onto the first
            ServiceRequest.update([
                UpdateEvent(kind="insert", point=(5.0, 5.0)),
                UpdateEvent(kind="insert", point=(5.2, 5.1)),
            ]),
            ServiceRequest.read(),                    # sees both inserts
        ]
        print("\nOne flush window of %d requests:" % len(batch))
        for response in service.serve(batch):
            label = (response.request.kind if response.request.query is None
                     else response.request.query.describe())
            value = "-" if response.result is None else "%g" % response.result.value
            print("  %-28s -> %-9s served_from=%s" % (label, value,
                                                      response.served_from))

        # ------------------------------------------------------------- #
        # Cache hits and generation-keyed invalidation.
        # ------------------------------------------------------------- #
        again = service.serve([disk, ServiceRequest.read()])
        print("\nRe-issued disk query: served_from=%s" % again[0].served_from)
        print("Re-issued monitor read: served_from=%s" % again[1].served_from)
        service.serve([ServiceRequest.update(
            [UpdateEvent(kind="insert", point=(5.1, 5.2))])])
        after = service.serve([disk, ServiceRequest.read()])
        print("After an update batch:  static=%s, monitor=%s (invalidated)"
              % (after[0].served_from, after[1].served_from))

        # ------------------------------------------------------------- #
        # A full open-loop trace replay.
        # ------------------------------------------------------------- #
        trace = request_trace(N_REQUESTS, seed=3, update_every=100,
                              update_batch=8)
        report = service.serve_trace(trace, window=WINDOW)
        snapshot = service.snapshot()
        counts = trace_counts(trace)
        print("\nReplayed %d requests (%d query / %d monitor / %d update):"
              % (report.requests, counts["query"], counts["monitor"],
                 counts["update"]))
        print("  throughput   %8.0f requests/sec" % report.throughput)
        print("  flushes      %8d (mean batch %.1f)"
              % (snapshot["flushes"], snapshot["mean_batch_size"]))
        print("  coalesced    %8d" % snapshot["coalesced"])
        print("  cache hits   %8d" % snapshot["cache_hits"])
        print("  solver calls %8d" % snapshot["solver_calls"])
        print("  latency      p50=%.2fms p95=%.2fms"
              % (1e3 * snapshot["latency_p50"], 1e3 * snapshot["latency_p95"]))

        # ------------------------------------------------------------- #
        # The differential guarantee, demonstrated on one response.
        # ------------------------------------------------------------- #
        sample = next(r for r in report.responses if r.request.kind == "query")
        reference = solve_query(sample.served_query, list(points), None, None)
        assert (reference.value, reference.center) == (sample.result.value,
                                                       sample.result.center)
        print("\nDifferential check: served %s == direct solver call (value %g)"
              % (sample.served_query.describe(), reference.value))


if __name__ == "__main__":
    main()
