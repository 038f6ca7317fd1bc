"""End-to-end observability tests: tracing threaded through the stack.

The contract under test, layer by layer:

* the acceptance criterion -- a single ``repro solve --engine sharded
  --executor shared-process --trace-out trace.jsonl`` run yields a span
  tree whose per-shard solve spans (tagged with shard id, backend and
  point count, captured inside worker processes) sum, together with the
  plan / queue / merge spans, to within 10% of the request's wall time;
* every shard task appears exactly once per request on each executor
  (serial / shared-process), on a caller-made pool and on a warm one;
* tracing disabled leaves answers bit-for-bit identical and adds
  negligible overhead (the no-op span path is budgeted against a real
  solve);
* the service and streaming layers root their own traces and nest the
  engine subtree underneath.
"""

import os

import pytest

import repro.obs as obs
from repro.cli import main as cli_main
from repro.datasets import clustered_points
from repro.engine import Query, QueryEngine
from repro.parallel import SharedMemoryProcessExecutor
from repro.service import MaxRSService, ServiceRequest
from repro.streaming import ShardedMaxRSMonitor
from repro.datasets.streams import UpdateEvent


def _insert(x, y):
    return UpdateEvent(kind="insert", point=(float(x), float(y)))


@pytest.fixture(autouse=True)
def _reset_tracing():
    obs.set_enabled(None)
    yield
    obs.set_enabled(None)


@pytest.fixture()
def collect():
    sink = obs.ListSink()
    obs.add_sink(sink)
    yield sink
    obs.remove_sink(sink)


def _points(n=400, seed=3):
    return clustered_points(n, dim=2, extent=10.0, seed=seed)


def _span_index(records):
    by_name = {}
    for record in records:
        by_name.setdefault(record.name, []).append(record)
    return by_name


# --------------------------------------------------------------------------- #
# the acceptance criterion
# --------------------------------------------------------------------------- #

class TestTraceAccounting:
    def test_shared_process_trace_accounts_for_wall_time(self, tmp_path):
        """One CLI run; the span tree's plan + queue + merge + per-shard
        solve durations must reconstruct the batch wall time within 10%."""
        csv_path = str(tmp_path / "pts.csv")
        trace_path = str(tmp_path / "trace.jsonl")
        assert cli_main(["generate", "clustered", "--output", csv_path,
                         "--n", "2500", "--seed", "7"]) == 0
        assert cli_main(["solve", "disk", "--input", csv_path,
                         "--radius", "0.8", "--engine", "sharded",
                         "--executor", "shared-process",
                         "--trace-out", trace_path]) == 0

        records = obs.load_trace_jsonl(trace_path)
        by_name = _span_index(records)
        assert len(by_name["engine.solve_batch"]) == 1
        root = by_name["engine.solve_batch"][0]

        shard_spans = by_name["shard.solve"]
        assert len(shard_spans) >= 2
        # every shard span carries its attribution tags, and was captured
        # inside a worker process (not the CLI's own pid)
        for span in shard_spans:
            assert isinstance(span.tags["shard"], int)
            assert span.tags["backend"] in ("python", "numpy")
            assert span.tags["points"] >= 0
        assert {span.pid for span in shard_spans} != {os.getpid()}

        accounted = sum(span.duration for span in shard_spans)
        for name in ("engine.plan", "engine.queue", "engine.merge"):
            accounted += sum(span.duration for span in by_name[name])
        assert accounted == pytest.approx(root.duration, rel=0.10), (
            "span tree accounts for %.1f%% of the %.3fs batch wall time"
            % (100.0 * accounted / root.duration, root.duration))

    def test_trace_file_renders_with_stats(self, tmp_path, capsys):
        csv_path = str(tmp_path / "pts.csv")
        trace_path = str(tmp_path / "trace.jsonl")
        cli_main(["generate", "clustered", "--output", csv_path,
                  "--n", "400", "--seed", "1"])
        cli_main(["solve", "disk", "--input", csv_path, "--radius", "1.0",
                  "--engine", "sharded", "--trace-out", trace_path])
        capsys.readouterr()

        assert cli_main(["stats", "--trace", trace_path]) == 0
        summary = capsys.readouterr().out
        assert "engine.solve_batch" in summary and "shard.solve" in summary

        assert cli_main(["stats", "--trace", trace_path,
                         "--format", "tree"]) == 0
        tree = capsys.readouterr().out
        assert tree.startswith("cli.solve")
        # the tree nests: engine under cli, shards under execute
        assert "\n  engine.solve_batch" in tree
        assert "shard.solve" in tree

        assert cli_main(["stats", "--trace", trace_path,
                         "--format", "prometheus"]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_span_shard_solve_seconds summary" in prom
        assert "repro_span_engine_solve_batch_total 1" in prom

    def test_stats_usage_errors(self, tmp_path, capsys):
        assert cli_main(["stats", "--trace",
                         str(tmp_path / "missing.jsonl")]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli_main(["stats", "--trace", str(empty)]) == 1
        capsys.readouterr()


# --------------------------------------------------------------------------- #
# every shard task appears exactly once per request, on every executor
# --------------------------------------------------------------------------- #

EXECUTORS = ["serial", "shared-process"]


class TestShardSpanCompleteness:
    # ``thread`` and ``process`` keep their ids: ``thread`` hands the engine
    # a caller-made pool, ``process`` traces a batch on a pool an untraced
    # batch already started.
    @pytest.mark.parametrize("executor", EXECUTORS + [
        pytest.param("caller-made", id="thread"),
        pytest.param("warm-pool", id="process"),
    ])
    def test_every_shard_task_spans_exactly_once(self, executor, collect):
        obs.set_enabled(True)
        points = _points(400)
        spec = executor
        if executor == "caller-made":
            spec = SharedMemoryProcessExecutor(workers=2)
        elif executor == "warm-pool":
            spec = "shared-process"
        with QueryEngine(points, executor=spec, workers=2,
                         target_shards=4) as engine:
            if executor == "warm-pool":
                obs.set_enabled(False)
                engine.solve(Query.rectangle(1.0, 1.0))
                obs.set_enabled(True)
                assert engine._executor._pool is not None
            engine.solve(Query.disk(1.0))
        assert len(collect.traces) == 1
        by_name = _span_index(collect.traces[0])
        planned = by_name["engine.plan"][0].tags["shards"]
        executed = by_name["engine.execute"][0].tags["tasks"]
        shard_spans = by_name["shard.solve"]
        assert planned == executed == len(shard_spans)
        ordinals = sorted(span.tags["shard"] for span in shard_spans)
        assert ordinals == list(range(planned))
        # each shard span wraps exactly one kernel dispatch
        kernel_parents = [record.parent_id
                          for record in by_name["kernel.solve"]
                          if record.parent_id in {s.span_id for s in shard_spans}]
        assert sorted(kernel_parents) == sorted(s.span_id for s in shard_spans)

    def test_repeat_query_is_cache_served_and_spans_no_shards(self, collect):
        # The service's TTL cache answers the repeat: its flush spans no
        # engine work at all.
        obs.set_enabled(True)
        request = ServiceRequest.static(Query.disk(1.0))
        with MaxRSService(_points(200), routing="sharded",
                          executor="serial") as service:
            first = service.request(request)
            second = service.request(request)
        assert (first.served_from, second.served_from) == ("solver", "cache")
        flushes = [trace for trace in collect.traces
                   if trace[-1].name == "service.flush"]
        assert len(flushes) == 2
        assert "shard.solve" in _span_index(flushes[0])
        repeat = _span_index(flushes[1])
        assert "shard.solve" not in repeat
        assert "engine.solve_batch" not in repeat
        assert repeat["service.flush"][0].tags["solver_calls"] == 0


# --------------------------------------------------------------------------- #
# disabled tracing: identical answers, negligible overhead
# --------------------------------------------------------------------------- #

def _assert_bit_identical_with_and_without_tracing(points, queries):
    """Solve ``queries`` with tracing off, then on; the answers must match
    bit for bit."""
    obs.set_enabled(False)
    with QueryEngine(points, executor="serial", target_shards=4) as engine:
        baseline = engine.solve_batch(queries)

    obs.set_enabled(True)
    sink = obs.ListSink()
    obs.add_sink(sink)
    try:
        with QueryEngine(points, executor="serial", target_shards=4) as engine:
            traced = engine.solve_batch(queries)
    finally:
        obs.remove_sink(sink)
    assert sink.spans()  # tracing really was on

    for before, after in zip(baseline, traced):
        assert before.value == after.value
        assert before.center == after.center
        assert before.exact == after.exact
        assert before.meta == after.meta


class TestDisabledPath:
    def test_answers_bit_identical_with_and_without_tracing(self):
        # All three query families, at a size where the approximate disk
        # solve takes about a second; the slow twin below runs 500 points.
        _assert_bit_identical_with_and_without_tracing(
            _points(150, seed=11),
            [Query.disk(1.0), Query.rectangle(1.5, 1.0),
             Query.disk_approx(1.0, epsilon=0.45, seed=2)])

    @pytest.mark.slow
    def test_answers_bit_identical_with_and_without_tracing_full_size(self):
        _assert_bit_identical_with_and_without_tracing(
            _points(500, seed=11),
            [Query.disk(1.0), Query.rectangle(1.5, 1.0),
             Query.disk_approx(1.0, epsilon=0.3, seed=2)])

    def test_noop_span_overhead_is_under_five_percent(self):
        """Budget check: the per-call cost of a disabled span, multiplied
        by every span site a tier-1-sized request touches, must stay under
        5% of that request's measured solve time."""
        import time

        obs.set_enabled(False)
        points = _points(1200, seed=5)
        query = Query.disk(1.0)
        with QueryEngine(points, executor="serial") as engine:
            started = time.perf_counter()
            engine.solve(query)
            solve_seconds = time.perf_counter() - started
            shards = len(engine.shard_plan(query))

        calls = 20000
        started = time.perf_counter()
        for _ in range(calls):
            with obs.span("kernel.solve", shape="disk", backend="auto",
                          exact=True, colored=False, n=1200):
                pass
        per_span = (time.perf_counter() - started) / calls

        # span sites on one solve_batch: root + plan + execute + merge +
        # queue + one kernel.solve per shard (shard.solve captures only
        # exist when tracing is on)
        span_sites = 5 + shards
        assert span_sites * per_span < 0.05 * solve_seconds, (
            "no-op tracing would cost %.2f%% of a %.3fs solve"
            % (100.0 * span_sites * per_span / solve_seconds, solve_seconds))


# --------------------------------------------------------------------------- #
# service and streaming layers
# --------------------------------------------------------------------------- #

class TestServiceTracing:
    def test_flush_roots_one_trace_with_engine_subtree(self, collect):
        obs.set_enabled(True)
        monitor = ShardedMaxRSMonitor(radius=1.0)
        with MaxRSService(_points(300), monitor=monitor,
                          routing="sharded") as service:
            responses = service.serve([
                ServiceRequest.update([_insert(1.0, 1.0)]),
                ServiceRequest.static(Query.disk(1.0)),
                ServiceRequest.read(),
            ])
        assert all(response.ok for response in responses)
        flush_traces = [trace for trace in collect.traces
                        if trace[-1].name == "service.flush"]
        assert len(flush_traces) == 1
        by_name = _span_index(flush_traces[0])
        flush = by_name["service.flush"][0]
        assert flush.parent_id is None
        assert flush.tags["requests"] == 3
        # the three serving phases nest directly under the flush root
        for name in ("service.update", "service.static", "service.monitor"):
            assert by_name[name][0].parent_id == flush.span_id, name
        # the engine's batch subtree hangs below service.static
        batch = by_name["engine.solve_batch"][0]
        assert batch.parent_id == by_name["service.static"][0].span_id
        assert by_name["shard.solve"]
        # the monitor read nests its query under service.monitor
        assert (by_name["monitor.query"][0].parent_id
                == by_name["service.monitor"][0].span_id)

    def test_stats_reservoirs_still_aggregate(self):
        monitor = ShardedMaxRSMonitor(radius=1.0)
        with MaxRSService(_points(200), monitor=monitor) as service:
            service.serve([ServiceRequest.static(Query.disk(1.0))])
            snapshot = service.snapshot()
        assert snapshot["requests"] == 1
        assert snapshot["latency_p50"] >= 0.0


class TestMonitorTracing:
    def test_monitor_query_grafts_worker_shard_spans(self, collect):
        obs.set_enabled(True)
        monitor = ShardedMaxRSMonitor(radius=1.0, executor="shared-process",
                                      workers=2)
        try:
            events = [_insert(i % 9, i // 9) for i in range(60)]
            monitor.apply_batch(events, start_index=0)
            monitor.current()
        finally:
            monitor.close()
        query_traces = [trace for trace in collect.traces
                        if trace[-1].name == "monitor.query"]
        assert len(query_traces) == 1
        by_name = _span_index(query_traces[0])
        root = by_name["monitor.query"][0]
        assert root.tags["dirty"] >= 2
        # one span per solve group (one group per worker), each counting
        # the dirty shards it solved in one segmented sweep
        shard_spans = by_name["shard.solve"]
        assert len(shard_spans) == 2
        assert sum(span.tags["shards"] for span in shard_spans) == root.tags["dirty"]
        assert all(span.parent_id == root.span_id for span in shard_spans)
        assert by_name["monitor.merge"][0].parent_id == root.span_id
