"""Tests for the concurrent query-serving front end (repro.service).

Covers the serving pipeline layer by layer -- TTL cache, micro-batch
formation, coalescing, metrics -- and the front end end-to-end: the
bit-identical differential guarantee of direct routing, update barriers and
monitor-generation cache invalidation, trace replay, and concurrent clients
of the socket server that puts the synchronous service on the wire.
"""

import http.client
import json
import threading
import time

import pytest

from repro.datasets import (
    clustered_points,
    load_trace,
    request_to_dict,
    request_trace,
    save_trace,
    trace_counts,
)
from repro.datasets.streams import UpdateEvent
from repro.engine import Query, QueryEngine
from repro.engine.planner import solve_query
from repro.net import MaxRSServer, encode_request, run_loadgen
from repro.service import (
    MISSING,
    MaxRSService,
    ServiceRequest,
    ServiceStats,
    TTLCache,
    coalesce,
    form_groups,
    percentile,
)
from repro.streaming import MultiQueryMonitor, ShardedMaxRSMonitor

POINTS = clustered_points(180, dim=2, extent=8.0, seed=3)
COLORS = [index % 7 for index in range(len(POINTS))]


def insert(x, y, weight=1.0):
    return UpdateEvent(kind="insert", point=(x, y), weight=weight)


# --------------------------------------------------------------------------- #
# TTL cache
# --------------------------------------------------------------------------- #

class TestTTLCache:
    def test_hit_before_expiry_miss_after(self):
        cache = TTLCache(maxsize=4, ttl=10.0)
        cache.put("k", 42, now=0.0)
        assert cache.get("k", now=5.0) == 42
        assert cache.get("k", now=10.0) is MISSING  # expired exactly at deadline
        assert cache.stats["expirations"] == 1

    def test_lru_eviction(self):
        cache = TTLCache(maxsize=2, ttl=100.0)
        cache.put("a", 1, now=0.0)
        cache.put("b", 2, now=0.0)
        assert cache.get("a", now=1.0) == 1  # refresh "a"
        cache.put("c", 3, now=1.0)           # evicts "b"
        assert cache.get("b", now=1.0) is MISSING
        assert cache.get("a", now=1.0) == 1 and cache.get("c", now=1.0) == 3

    def test_purge_drops_only_expired(self):
        cache = TTLCache(maxsize=8, ttl=5.0)
        cache.put("old", 1, now=0.0)
        cache.put("new", 2, now=3.0)
        assert cache.purge(now=6.0) == 1
        assert len(cache) == 1 and cache.get("new", now=6.0) == 2

    def test_full_cache_expired_entry_insert_keeps_live_answers(self):
        # Regression: at capacity, put() used to evict the LRU *live* entry
        # while an expired entry still occupied a slot.
        cache = TTLCache(maxsize=3, ttl=5.0)
        cache.put("stale", 0, now=0.0)    # expires at 5.0
        cache.put("live-a", 1, now=4.0)
        cache.put("live-b", 2, now=4.0)
        cache.put("new", 3, now=6.0)      # full, but "stale" is already dead
        assert len(cache) == 3
        assert cache.get("live-a", now=6.0) == 1
        assert cache.get("live-b", now=6.0) == 2
        assert cache.get("new", now=6.0) == 3
        assert cache.stats["expirations"] == 1

    def test_put_at_capacity_all_live_falls_back_to_lru(self):
        cache = TTLCache(maxsize=2, ttl=100.0)
        cache.put("a", 1, now=0.0)
        cache.put("b", 2, now=1.0)
        cache.put("c", 3, now=2.0)        # nothing expired: evict LRU "a"
        assert cache.get("a", now=2.0) is MISSING
        assert cache.get("b", now=2.0) == 2 and cache.get("c", now=2.0) == 3
        assert cache.stats["expirations"] == 0

    def test_zero_size_disables(self):
        cache = TTLCache(maxsize=0, ttl=5.0)
        cache.put("k", 1, now=0.0)
        assert cache.get("k", now=0.0) is MISSING

    def test_cached_none_is_a_hit_not_a_miss(self):
        # Regression: get() used to return None for both "miss" and "cached
        # None answer", so a legitimately-None cached value could never hit.
        cache = TTLCache(maxsize=4, ttl=10.0)
        cache.put("k", None, now=0.0)
        value = cache.get("k", now=1.0)
        assert value is None and value is not MISSING
        assert cache.stats["hits"] == 1 and cache.stats["misses"] == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TTLCache(maxsize=-1)
        with pytest.raises(ValueError):
            TTLCache(ttl=0.0)


# --------------------------------------------------------------------------- #
# micro-batch formation
# --------------------------------------------------------------------------- #

class TestBatcher:
    def test_updates_are_barriers(self):
        q = ServiceRequest.static(Query.disk(1.0))
        u = ServiceRequest.update([insert(0.0, 0.0)])
        m = ServiceRequest.read()
        groups = form_groups([q, q, u, u, q, m, u, m])
        assert [(g.kind, len(g)) for g in groups] == [
            ("serve", 2), ("update", 2), ("serve", 2), ("update", 1), ("serve", 1)]
        # positions preserve submission order
        assert [g.positions for g in groups] == [[0, 1], [2, 3], [4, 5], [6], [7]]

    def test_coalesce_identical_queries(self):
        a = ServiceRequest.static(Query.disk(1.0))
        b = ServiceRequest.static(Query.rectangle(1.0, 2.0))
        group = form_groups([a, b, a, a])[0]
        order, waiters = coalesce(group)
        assert order == [a.coalesce_key, b.coalesce_key]
        assert waiters[a.coalesce_key] == [0, 2, 3]
        assert waiters[b.coalesce_key] == [1]

    def test_monitor_reads_coalesce_by_name(self):
        r1, r2 = ServiceRequest.read(), ServiceRequest.read("ops")
        order, waiters = coalesce(form_groups([r1, r2, r1])[0])
        assert len(order) == 2
        assert waiters[r1.coalesce_key] == [0, 2]

    def test_update_groups_refuse_to_coalesce(self):
        group = form_groups([ServiceRequest.update([insert(0.0, 0.0)])])[0]
        with pytest.raises(ValueError):
            coalesce(group)


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #

class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50.0) == 20.0
        assert percentile(values, 95.0) == 40.0
        assert percentile([], 50.0) != percentile([], 50.0)  # nan
        with pytest.raises(ValueError):
            percentile(values, 101.0)

    def test_stats_snapshot_counts(self):
        with MaxRSService(POINTS) as service:
            batch = [ServiceRequest.static(Query.disk(1.0))] * 3
            service.serve(batch)
            snapshot = service.snapshot()
        assert snapshot["requests"] == 3
        assert snapshot["served_from"] == {"solver": 1, "coalesced": 2}
        assert snapshot["coalesced"] == 2
        assert snapshot["flushes"] == 1
        assert snapshot["solver_calls"] == 1
        assert snapshot["mean_batch_size"] == 3.0
        assert isinstance(ServiceStats().snapshot()["latency_p95"], float)

    def test_percentile_reservoirs_are_bounded(self):
        """Counts and means stay exact forever; the percentile reservoirs cap
        at RESERVOIR_SIZE entries (long-running services hold O(1) state)."""
        from repro.service.metrics import RESERVOIR_SIZE
        from repro.service.requests import ServiceResponse

        stats = ServiceStats()
        total = RESERVOIR_SIZE + 50
        for index in range(total):
            stats.record(ServiceResponse(request=ServiceRequest.read(),
                                         served_from="cache", batch_size=2,
                                         queue_wait=0.0, latency=float(index)))
        assert stats.requests == total
        assert stats.mean_batch_size() == 2.0
        assert len(stats._latencies) == RESERVOIR_SIZE
        # the reservoir holds the most recent observations
        assert stats.snapshot()["latency_p50"] >= 50.0


# --------------------------------------------------------------------------- #
# request validation
# --------------------------------------------------------------------------- #

class TestServiceRequest:
    def test_rejects_malformed_requests(self):
        with pytest.raises(ValueError):
            ServiceRequest(kind="nope")
        with pytest.raises(ValueError):
            ServiceRequest(kind="query")
        with pytest.raises(ValueError):
            ServiceRequest(kind="update")

    def test_trace_conversion(self):
        # A trace line is served as it is, and its arrival time does not
        # keep it from coalescing with the same query.
        event = ServiceRequest(kind="query", query=Query.disk(1.0), arrival=2.5)
        static = ServiceRequest.static(Query.disk(1.0))
        assert event != static
        assert event.coalesce_key == static.coalesce_key
        with MaxRSService(POINTS) as service:
            report = service.serve_trace([event, static])
        first, second = report.responses
        assert first.request is event and first.ok
        assert second.request is static and second.ok
        assert second.served_from == "coalesced"
        assert second.result is first.result

    def test_request_schema_is_pinned(self):
        # The trace-line and wire-body schema: perfbench request records
        # and recorded .jsonl traces depend on it byte for byte.
        rectangle = Query.rectangle(1.5, 2.0, backend="numpy")
        assert request_to_dict(ServiceRequest.static(rectangle)) == {
            "kind": "query", "arrival": 0.0,
            "query": {"shape": "rectangle", "exact": True, "colored": False,
                      "width": 1.5, "height": 2.0, "backend": "numpy",
                      "family": "single"}}
        assert request_to_dict(ServiceRequest.read()) == {
            "kind": "monitor", "arrival": 0.0}
        assert request_to_dict(ServiceRequest.read("ops")) == {
            "kind": "monitor", "arrival": 0.0, "name": "ops"}
        assert request_to_dict(ServiceRequest.update([
            UpdateEvent(kind="insert", point=(0.5, 0.25), weight=2.0),
            UpdateEvent(kind="delete", target=0)])) == {
            "kind": "update", "arrival": 0.0,
            "events": [{"kind": "insert", "point": (0.5, 0.25), "weight": 2.0},
                       {"kind": "delete", "weight": 1.0, "target": 0}]}
        assert request_to_dict(ServiceRequest(kind="monitor", arrival=2.5)) == {
            "kind": "monitor", "arrival": 2.5}


# --------------------------------------------------------------------------- #
# the serving core
# --------------------------------------------------------------------------- #

class TestStaticServing:
    def test_direct_routing_is_bit_identical(self):
        queries = [Query.disk(1.0), Query.rectangle(2.0, 2.0),
                   Query.disk_approx(1.0, epsilon=0.4, seed=7),
                   Query.colored_disk(0.75)]
        with MaxRSService(POINTS, colors=COLORS) as service:
            responses = service.serve([ServiceRequest.static(q) for q in queries])
        for response in responses:
            assert response.ok
            reference = solve_query(response.served_query, list(POINTS), None,
                                    COLORS if response.served_query.colored else None)
            assert (reference.value, reference.center, reference.exact) == (
                response.result.value, response.result.center, response.result.exact)

    def test_sharded_routing_matches_values(self):
        queries = [Query.disk(1.0), Query.rectangle(2.0, 2.0)]
        with MaxRSService(POINTS, routing="sharded") as sharded, \
                MaxRSService(POINTS) as direct:
            for query in queries:
                a = sharded.request(ServiceRequest.static(query))
                b = direct.request(ServiceRequest.static(query))
                assert a.result.value == b.result.value

    def test_auto_routing_shards_only_quadratic_queries(self):
        """routing='auto' shards only the quadratic-cost queries -- colored
        rectangles and colored 3-d boxes -- and plans nothing else: exact
        disks (whose sweeps prune with a neighbour grid) and rectangles stay
        on the bit-identical direct path without building a shard plan."""
        from repro.datasets import trajectory_colored_points

        disk, rect = Query.disk(1.0), Query.rectangle(2.0, 2.0)
        colored_rect = Query.colored_rectangle(2.0, 2.0)
        with MaxRSService(POINTS, colors=COLORS, routing="auto") as service:
            responses = service.serve([ServiceRequest.static(disk),
                                       ServiceRequest.static(rect)])
            # nothing went through solve_batch (solve_direct does not count)
            # and nothing was planned
            assert service.engine.stats["queries"] == 0
            assert service.snapshot()["planned_shard_tasks"] == 0
            colored = service.request(ServiceRequest.static(colored_rect))
            assert service.engine.stats["queries"] == 1
            assert service.snapshot()["planned_shard_tasks"] > 0
        assert all(r.ok for r in responses)
        # the direct-routed disk and rectangle keep the bit-identical guarantee
        for response in responses:
            reference = solve_query(response.served_query, list(POINTS), None, None)
            assert (reference.value, reference.center) == (
                response.result.value, response.result.center)
        # the sharded colored rectangle still reports the exact optimum value
        assert colored.result.meta["sharded"]
        assert colored.result.value == solve_query(
            colored.served_query, list(POINTS), None, COLORS).value

        points, colors = trajectory_colored_points(6, samples_per_entity=10,
                                                   dim=3, extent=5.0, seed=4)
        box = Query.colored_box3d(1.5, 1.5, 1.5)
        with MaxRSService(points, colors=colors, routing="auto") as service:
            response = service.request(ServiceRequest.static(box))
            assert service.engine.stats["queries"] == 1
        assert response.result.meta["sharded"]
        assert response.result.value == solve_query(box, points, None, colors).value

    def test_small_dataset_misses_resolve_by_kernel_threshold(self, monkeypatch):
        """A static miss resolves ``auto`` against its sweep's measured
        threshold, not the default 512: on 100 points a rectangle and a
        disk run on the NumPy kernels, with the direct answer."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        points = POINTS[:100]
        with MaxRSService(points) as service:
            for query in (Query.rectangle(2.0, 2.0), Query.disk(1.0)):
                response = service.request(ServiceRequest.static(query))
                assert response.served_query.backend == "numpy"
                reference = solve_query(response.served_query, list(points),
                                        None, None)
                assert response.result.value == reference.value

    def test_coalescing_and_caching(self):
        query = ServiceRequest.static(Query.disk(1.0))
        with MaxRSService(POINTS) as service:
            first = service.serve([query, query, query])
            second = service.serve([query])
        assert [r.served_from for r in first] == ["solver", "coalesced", "coalesced"]
        assert all(r.result.value == first[0].result.value for r in first)
        assert second[0].served_from == "cache"
        assert second[0].result.value == first[0].result.value

    def test_ttl_expiry_forces_resolve(self):
        clock = [0.0]
        query = ServiceRequest.static(Query.disk(1.0))
        with MaxRSService(POINTS, cache_ttl=10.0, clock=lambda: clock[0]) as service:
            assert service.serve([query])[0].served_from == "solver"
            clock[0] = 5.0
            assert service.serve([query])[0].served_from == "cache"
            clock[0] = 20.0
            assert service.serve([query])[0].served_from == "solver"

    def test_error_is_per_request_not_per_flush(self):
        good = ServiceRequest.static(Query.disk(1.0))
        bad = ServiceRequest.static(Query.colored_disk(1.0))  # no colors
        with MaxRSService(POINTS) as service:
            responses = service.serve([good, bad, good])
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok
        assert isinstance(responses[1].error, ValueError)
        with MaxRSService(POINTS) as service:
            with pytest.raises(ValueError):
                service.request(bad)

    @pytest.mark.parametrize("routing", ["sharded", "auto"])
    def test_failed_sharded_flush_degrades_to_per_request_errors(self, routing):
        # Regression: solve_batch ran unguarded, so one malformed query that
        # passed batch_plan (an unknown kernel backend) raised out of serve()
        # and failed the whole flush instead of just its own response.
        good = ServiceRequest.static(Query.disk(1.0))
        bad = ServiceRequest.static(Query.rectangle(1.0, 1.0, backend="bogus"))
        with MaxRSService(POINTS, routing=routing) as service:
            responses = service.serve([good, bad, good])
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok
        assert isinstance(responses[1].error, ValueError)
        assert "bogus" in str(responses[1].error)

    def test_monitor_only_service_rejects_static_queries(self):
        with MaxRSService(monitor=ShardedMaxRSMonitor(radius=1.0)) as service:
            response = service.serve([ServiceRequest.static(Query.disk(1.0))])[0]
        assert not response.ok and "without a dataset" in str(response.error)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MaxRSService()
        with pytest.raises(ValueError):
            MaxRSService(POINTS, routing="psychic")
        with pytest.raises(ValueError):
            MaxRSService(POINTS, engine=QueryEngine(POINTS))
        # the window size belongs to whoever forms windows
        with MaxRSService(POINTS) as service:
            with pytest.raises(ValueError):
                service.serve_trace([ServiceRequest.static(Query.disk(1.0))],
                                    window=0)
            with pytest.raises(ValueError):
                MaxRSServer(service, max_batch=0)


class TestMonitorServing:
    def test_updates_then_reads_see_new_state(self):
        monitor = ShardedMaxRSMonitor(radius=1.0)
        with MaxRSService(monitor=monitor) as service:
            responses = service.serve([
                ServiceRequest.update([insert(0.0, 0.0), insert(0.2, 0.0)]),
                ServiceRequest.read(),
                ServiceRequest.update([insert(0.1, 0.1)]),
                ServiceRequest.read(),
            ])
        assert responses[1].result.value == 2.0
        assert responses[3].result.value == 3.0

    def test_update_barrier_inside_one_window(self):
        """A read submitted after an update in the same flush must observe it."""
        monitor = ShardedMaxRSMonitor(radius=1.0)
        with MaxRSService(monitor=monitor) as service:
            read = ServiceRequest.read()
            responses = service.serve([
                read,
                ServiceRequest.update([insert(1.0, 1.0)]),
                read,
            ])
        assert responses[0].result.value == 0.0
        assert responses[2].result.value == 1.0

    def test_generation_invalidates_monitor_cache(self):
        monitor = ShardedMaxRSMonitor(radius=1.0)
        with MaxRSService(monitor=monitor) as service:
            read = ServiceRequest.read()
            assert service.serve([read])[0].served_from == "monitor"
            assert service.serve([read])[0].served_from == "cache"
            service.serve([ServiceRequest.update([insert(0.0, 0.0)])])
            after = service.serve([read])[0]
        assert after.served_from == "monitor"  # generation changed -> miss
        assert after.result.value == 1.0

    def test_delete_targets_resolve_across_batches(self):
        """Stream positions keep advancing across update requests, so delete
        targets recorded at trace-generation time stay valid."""
        monitor = ShardedMaxRSMonitor(radius=1.0)
        with MaxRSService(monitor=monitor) as service:
            service.serve([ServiceRequest.update([insert(0.0, 0.0),
                                                  insert(0.1, 0.1)])])
            service.serve([ServiceRequest.update(
                [UpdateEvent(kind="delete", target=0)])])
            response = service.serve([ServiceRequest.read()])[0]
        assert response.result.value == 1.0
        assert len(monitor) == 1

    def test_failed_update_batch_does_not_poison_later_batches(self):
        """A mid-batch failure must not desync stream offsets: the group's
        offsets are consumed whole, so later batches get fresh handles."""
        monitor = ShardedMaxRSMonitor(radius=1.0)
        with MaxRSService(monitor=monitor) as service:
            bad = ServiceRequest.update([
                insert(0.0, 0.0),
                UpdateEvent(kind="delete", target=99),  # unknown target
                insert(1.0, 1.0),
            ])
            failed = service.serve([bad])[0]
            assert not failed.ok and isinstance(failed.error, KeyError)
            recovered = service.serve([ServiceRequest.update([insert(2.0, 2.0)]),
                                       ServiceRequest.read()])
        assert all(r.ok for r in recovered)
        assert recovered[1].result.value >= 1.0

    def test_negative_weight_update_is_rejected_whole(self):
        """An update carrying a negative weight -- which the exact disk sweep
        cannot solve -- fails as a whole and leaves the live set as it was."""
        monitor = ShardedMaxRSMonitor(radius=0.5)
        with MaxRSService(monitor=monitor) as service:
            service.serve([ServiceRequest.update([insert(10.0, 10.0),
                                                  insert(10.2, 10.0)])])
            failed = service.serve([ServiceRequest.update(
                [insert(20.0, 20.0), insert(0.0, 0.0, weight=-1.0)])])[0]
            assert not failed.ok and isinstance(failed.error, ValueError)
            assert len(monitor) == 2
            read = service.serve([ServiceRequest.read()])[0]
        assert read.ok and read.result.value == 2.0

    def test_multi_query_monitor_reads_by_name(self):
        monitor = MultiQueryMonitor({"ops": Query.disk(1.0),
                                     "planning": Query.rectangle(2.0, 2.0)})
        with MaxRSService(monitor=monitor) as service:
            service.serve([ServiceRequest.update([insert(0.0, 0.0),
                                                  insert(0.3, 0.3)])])
            responses = service.serve([ServiceRequest.read("ops"),
                                       ServiceRequest.read("planning"),
                                       ServiceRequest.read("nope")])
        assert responses[0].result.value == 2.0
        assert responses[1].result.value == 2.0
        assert not responses[2].ok and isinstance(responses[2].error, KeyError)
        # one shared pass answered both valid reads
        assert responses[0].served_from == "monitor"
        assert responses[1].served_from in ("monitor", "cache")

    def test_read_without_monitor_fails_cleanly(self):
        with MaxRSService(POINTS) as service:
            responses = service.serve([ServiceRequest.read(),
                                       ServiceRequest.update([insert(0.0, 0.0)])])
        assert not responses[0].ok and not responses[1].ok

    def test_cached_none_monitor_answer_hits_the_cache(self):
        # Regression: a monitor whose legitimate current() answer is None was
        # recomputed on every read -- the old cache API returned None for
        # both "miss" and "cached None", so the hit path was unreachable.
        class NoneAnswerMonitor:
            generation = 0

            def __init__(self):
                self.passes = 0

            def current(self):
                self.passes += 1
                return None

            def apply_batch(self, events, start_index=0):
                pass

        monitor = NoneAnswerMonitor()
        with MaxRSService(monitor=monitor) as service:
            read = ServiceRequest.read()
            first = service.serve([read])[0]
            second = service.serve([read])[0]
        assert first.ok and first.result is None
        assert first.served_from == "monitor"
        assert second.ok and second.result is None
        assert second.served_from == "cache"
        assert monitor.passes == 1


class TestTraceReplay:
    def test_trace_replay_matches_serial_baseline(self):
        trace = request_trace(160, seed=21, update_every=25, update_batch=6)
        monitor = ShardedMaxRSMonitor(radius=1.0)
        with MaxRSService(POINTS, monitor=monitor) as service:
            report = service.serve_trace(trace, window=32)
        assert report.requests == len(trace)
        assert all(r.ok for r in report.responses)

        baseline_monitor = ShardedMaxRSMonitor(radius=1.0)
        position = 0
        for event, response in zip(trace, report.responses):
            if event.kind == "query":
                reference = solve_query(response.served_query, list(POINTS),
                                        None, None)
                assert reference.value == response.result.value
                assert reference.center == response.result.center
            elif event.kind == "monitor":
                baseline = baseline_monitor.current()
                assert (baseline.value, baseline.center) == (
                    response.result.value, response.result.center)
            else:
                for update in event.events:
                    baseline_monitor.apply(update, position)
                    position += 1

    def test_trace_roundtrips_through_jsonl(self, tmp_path):
        trace = request_trace(60, seed=4, monitor_fraction=0.3)
        path = str(tmp_path / "trace.jsonl")
        save_trace(path, trace)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        assert trace_counts(loaded) == trace_counts(trace)
        for a, b in zip(trace, loaded):
            assert (a.kind, a.query, a.name, a.events) == (
                b.kind, b.query, b.name, b.events)
            assert a.arrival == pytest.approx(b.arrival)

    def test_wire_body_is_the_saved_trace_line(self, tmp_path):
        trace = request_trace(40, seed=4, monitor_fraction=0.3, update_every=10)
        path = tmp_path / "trace.jsonl"
        save_trace(str(path), trace)
        assert path.read_bytes().splitlines() == [
            encode_request(request) for request in trace]

    def test_trace_generator_validation(self):
        with pytest.raises(ValueError):
            request_trace(0)
        with pytest.raises(ValueError):
            request_trace(10, catalog=[])
        with pytest.raises(ValueError):
            request_trace(10, monitor_fraction=1.5)

    def test_arrivals_are_nondecreasing_and_hotspots_compress(self):
        trace = request_trace(400, seed=9, rate=100.0, hotspot_every=200,
                              hotspot_length=100, hotspot_boost=10.0,
                              update_every=0)
        arrivals = [r.arrival for r in trace]
        assert arrivals == sorted(arrivals)
        hot = arrivals[99] - arrivals[0]      # inside the boosted window
        cold = arrivals[199] - arrivals[100]  # outside it
        assert hot < cold


def _query_body(query):
    return encode_request(ServiceRequest.static(query))


def _post(server, body):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request("POST", "/v1/request", body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


def _admitted(server):
    counter = server.snapshot()["server"]["metrics"].get("net.admitted")
    return counter["value"] if counter else 0


class _GatedServe:
    """Stands in for ``service.serve``: every call blocks until ``release``
    is set, then serves normally."""

    def __init__(self, service):
        self._serve = service.serve
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, requests):
        self.entered.set()
        assert self.release.wait(30.0)
        return self._serve(requests)


class _ParkingLock:
    """Wraps a lock; the first acquire from ``thread`` parks until
    ``resume`` is set, so a test can run other code while that acquire
    is pending."""

    def __init__(self, inner):
        self._inner = inner
        self.thread = None
        self.parked = threading.Event()
        self.resume = threading.Event()

    def __enter__(self):
        if threading.current_thread() is self.thread and not self.parked.is_set():
            self.parked.set()
            assert self.resume.wait(30.0)
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


class TestThreadedFrontEnd:
    """Concurrency lives in :class:`repro.net.MaxRSServer`: its admission
    queue is the only place a request waits, and its serving thread calls
    the synchronous :meth:`MaxRSService.serve`.  These pin the behaviours
    the service's former dispatcher thread had, over real sockets."""

    def test_concurrent_submitters_get_identical_answers(self):
        query = Query.disk(1.0)
        with MaxRSService(POINTS) as service:
            reference = service.request(ServiceRequest.static(query)).result
            server = MaxRSServer(service, max_pending=32).start_in_thread()
            results, errors = [], []

            def client():
                try:
                    results.append(_post(server, _query_body(query)))
                except Exception as exc:  # pragma: no cover - surfaced by assert
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(12)]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
            finally:
                server.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 12
        assert all(status == 200 and payload["ok"] for status, payload in results)
        assert all(payload["result"]["value"] == reference.value
                   and tuple(payload["result"]["center"]) == reference.center
                   for _, payload in results)
        assert all(payload["served_from"] in ("cache", "coalesced", "solver")
                   for _, payload in results)

    def test_close_serves_already_queued_requests(self):
        # stop() answers every admitted request: four requests wait in the
        # admission queue behind a blocked window when stop() is called.
        with MaxRSService(POINTS) as service:
            server = MaxRSServer(service, max_pending=8, max_batch=1)
            gate = service.serve = _GatedServe(service)
            server.start_in_thread()
            results = []
            clients = [threading.Thread(target=lambda: results.append(_post(
                server, _query_body(Query.rectangle(1.0, 1.0)))))
                for _ in range(5)]
            for thread in clients:
                thread.start()
            _wait_for(lambda: _admitted(server) == 5)
            assert gate.entered.wait(10.0)
            # the first window is blocked in serve(); the rest are queued
            assert server.snapshot()["server"]["max_queue_depth"] >= 4
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            gate.release.set()
            stopper.join(30.0)
            for thread in clients:
                thread.join(30.0)
        assert not stopper.is_alive()
        assert not any(thread.is_alive() for thread in clients)
        assert len(results) == 5
        assert all(status == 200 and payload["ok"] for status, payload in results)

    def test_pending_result_times_out(self):
        # A client deadline fires while serve() is blocked, and the load
        # generator's run still returns (recording a transport error).
        with MaxRSService(POINTS) as service:
            server = MaxRSServer(service, max_pending=8)
            gate = service.serve = _GatedServe(service)
            server.start_in_thread()
            event = ServiceRequest.static(Query.disk(1.0))
            try:
                started = time.monotonic()
                report = run_loadgen(server.host, server.port, [event],
                                     clients=1, timeout=0.2)
                elapsed = time.monotonic() - started
            finally:
                gate.release.set()
                server.stop()
        assert gate.entered.is_set()
        assert elapsed < 10.0
        assert report.errors == 1 and report.served == 0
        assert report.records[0].status == 0

    def test_dispatcher_survives_serving_core_failure(self):
        # An exception escaping serve() fails only its own window (500);
        # the server's dispatcher lives on and serves the next request.
        with MaxRSService(POINTS) as service:
            server = MaxRSServer(service, max_pending=8)
            real_serve = service.serve
            calls = []

            def exploding_once(requests):
                calls.append(len(requests))
                if len(calls) == 1:
                    raise RuntimeError("injected serving-core bug")
                return real_serve(requests)

            service.serve = exploding_once
            server.start_in_thread()
            try:
                failed = _post(server, _query_body(Query.disk(1.0)))
                recovered = _post(server, _query_body(Query.disk(1.0)))
            finally:
                server.stop()
        assert failed[0] == 500
        assert failed[1]["error"] == {"type": "RuntimeError",
                                      "message": "injected serving-core bug"}
        assert recovered[0] == 200 and recovered[1]["ok"]
        assert calls == [1, 1]

    def test_sharded_flush_failure_keeps_dispatcher_alive(self):
        # A request that decodes but fails the sharded flush gets its own
        # per-response error, and the next request is served.
        with MaxRSService(POINTS, routing="sharded") as service:
            server = MaxRSServer(service, max_pending=8).start_in_thread()
            try:
                bad = _post(server, _query_body(
                    Query.rectangle(1.0, 1.0, backend="bogus")))
                good = _post(server, _query_body(Query.disk(1.0)))
            finally:
                server.stop()
        assert bad[0] == 200
        assert not bad[1]["ok"] and bad[1]["error"]["type"] == "ValueError"
        assert "bogus" in bad[1]["error"]["message"]
        assert good[0] == 200 and good[1]["ok"]

    def test_post_close_submit_and_serve_raise(self):
        service = MaxRSService(POINTS)
        server = MaxRSServer(service, max_pending=8).start_in_thread()
        try:
            service.close()
            assert service.closed
            status, payload = _post(server, _query_body(Query.disk(1.0)))
        finally:
            server.stop()
        assert status == 500 and payload["error"]["type"] == "RuntimeError"
        with pytest.raises(RuntimeError):
            service.serve([ServiceRequest.static(Query.disk(1.0))])
        with pytest.raises(RuntimeError):
            service.request(ServiceRequest.static(Query.disk(1.0)))
        service.close()  # idempotent

    def test_serve_waiting_on_the_lock_across_close_raises(self):
        # Regression: serve() checked `closed` before taking the serving
        # lock, so a call that passed the check while close() ran was then
        # served on the closed engine (and respawned its worker pool).
        service = MaxRSService(POINTS, routing="sharded",
                               executor="shared-process", workers=2)
        lock = service._lock = _ParkingLock(service._lock)
        outcome = {}

        def call():
            try:
                outcome["responses"] = service.serve(
                    [ServiceRequest.static(Query.disk(1.0))])
            except RuntimeError as exc:
                outcome["error"] = exc

        lock.thread = thread = threading.Thread(target=call)
        thread.start()
        try:
            assert lock.parked.wait(10.0)
            service.close()
        finally:
            lock.resume.set()
            thread.join(30.0)
        assert not thread.is_alive()
        assert "responses" not in outcome
        assert isinstance(outcome.get("error"), RuntimeError)
        assert service.engine._executor._pool is None
