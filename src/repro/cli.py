"""Command-line interface: ``python -m repro <command>``.

Seven subcommands cover the day-to-day uses of the library without
writing Python:

* ``generate`` -- synthesise the workloads the experiments use (uniform,
  clustered, hotspot, trajectory) and write them to CSV;
* ``solve`` -- run a MaxRS solver over a CSV point file: exact interval,
  rectangle and disk placement, the paper's approximate d-ball solver, and
  the colored disk / box solvers.  ``--engine sharded`` routes the query
  through the sharded parallel execution engine (:mod:`repro.engine`) with
  ``--workers N`` workers on the ``--executor`` backend; ``--backend``
  selects the kernel backend for the sweep inner loops
  (:mod:`repro.kernels`: pure-Python reference or vectorised NumPy);
* ``monitor`` -- replay a synthetic update stream through one of the
  streaming hotspot monitors (:mod:`repro.streaming`), ingesting in batches
  of ``--batch-size`` events, with ``--backend`` / ``--executor`` control
  over the dirty-shard re-solves and optional ``--window`` /
  ``--time-window`` sliding windows; reports the final hotspot and the
  sustained events/sec;
* ``serve`` -- replay a mixed request trace (static queries, live-monitor
  hotspot reads, update batches) through the concurrent serving front end
  (:mod:`repro.service`) with up to ``--concurrency`` requests in flight
  together, a ``--cache-ttl``-second result cache, and ``--replay`` to
  re-run a recorded JSONL trace; reports throughput, coalescing / cache-hit
  rates and latency percentiles;
* ``stats`` -- render a span-trace JSONL file recorded with ``--trace-out``
  (available on ``solve``, ``monitor`` and ``serve``) as a per-span-name
  summary table, the full span tree, or Prometheus-style text exposition
  (:mod:`repro.obs`; ``docs/observability.md``);
* ``bench`` -- the unified benchmark harness (``docs/benchmarks.md``):
  ``bench list`` names the declarative workload x size x backend x executor
  suites, among them ``paper`` with the reproduction experiments E1-E15,
  ``bench grid`` runs them (``--suite``, ``--quick``, ``--set
  key=value`` overrides, ``--output`` artifact, ``--history`` trajectory
  append, ``--no-spans``) and writes one versioned ``repro-bench-grid/1``
  JSON artifact, ``bench compare`` regresses a ``--current`` artifact
  against the committed ``PERF_HISTORY.jsonl`` within a relative ``--noise``
  band (``--self-test`` proves the comparator catches an injected
  regression).

``repro --version`` prints the installed package version.  Every command
prints a short human-readable summary to stdout and exits with status 0 on
success, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import obs

from .datasets import (
    UpdateStream,
    adversarial_churn_stream,
    burst_stream,
    clustered_points,
    drift_stream,
    hotspot_monitoring_stream,
    sliding_window_stream,
    trajectory_colored_points,
    uniform_weighted_points,
    weighted_hotspot_points,
)
from .datasets.io import read_points_csv, write_points_csv
from .engine import Query, QueryEngine, solve_query

__all__ = ["build_parser", "main"]


# --------------------------------------------------------------------------- #
# command implementations
# --------------------------------------------------------------------------- #

@contextlib.contextmanager
def _trace_sink(path: Optional[str]) -> Iterator[None]:
    """Force-enable tracing and stream every finished trace to a JSONL file
    for the duration of one command (``--trace-out``); no-op when ``path``
    is ``None``."""
    if path is None:
        yield
        return
    sink = obs.JsonlSink(path)
    obs.add_sink(sink)
    previous = obs.set_enabled(True)
    try:
        yield
    finally:
        obs.set_enabled(previous)
        obs.remove_sink(sink)
        sink.close()
        print("trace:     wrote %d spans to %s" % (sink.spans_written, path))


def _cmd_generate(args: argparse.Namespace) -> int:
    colors = None
    weights = None
    if args.kind == "uniform":
        points, weights = uniform_weighted_points(args.n, dim=args.dim, extent=args.extent,
                                                  seed=args.seed)
    elif args.kind == "clustered":
        points = clustered_points(args.n, dim=args.dim, extent=args.extent,
                                  clusters=args.clusters, seed=args.seed)
    elif args.kind == "hotspot":
        points, weights = weighted_hotspot_points(args.n, dim=args.dim, extent=args.extent,
                                                  seed=args.seed)
    elif args.kind == "trajectory":
        samples = max(1, args.n // max(1, args.entities))
        points, colors = trajectory_colored_points(args.entities, samples_per_entity=samples,
                                                   dim=args.dim, extent=args.extent,
                                                   seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        print("unknown workload kind %r" % args.kind, file=sys.stderr)
        return 2
    write_points_csv(args.output, points, weights=weights, colors=colors)
    print("wrote %d points (dim=%d) to %s" % (len(points), args.dim, args.output))
    return 0


def _parse_lengths(raw: Optional[str]) -> Optional[List[float]]:
    """Parse ``--lengths 0.5,1.0,2.0`` into a list of floats."""
    if raw is None:
        return None
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ValueError("--lengths expects comma-separated numbers, got %r" % raw)


def _parse_sizes(raw: Optional[str]) -> Optional[List]:
    """Parse ``--sizes 1x1,2x1.5`` into a list of ``(width, height)`` pairs."""
    if raw is None:
        return None
    sizes = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        width, separator, height = part.partition("x")
        if not separator:
            raise ValueError("--sizes expects comma-separated WxH pairs, got %r" % raw)
        try:
            sizes.append((float(width), float(height)))
        except ValueError:
            raise ValueError("--sizes expects comma-separated WxH pairs, got %r" % raw)
    return sizes


def _zoo_query_from_args(args: argparse.Namespace, has_colors: bool) -> Optional[Query]:
    """Build the long-tail family queries (``solve --family``); raises
    :class:`ValueError` on family/shape combinations with no solver."""
    backend = args.backend
    if args.family == "topk":
        if args.shape == "disk":
            return Query.topk_disk(args.radius, args.k, backend=backend)
        if args.shape == "rectangle":
            return Query.topk_rectangle(args.width, args.height, args.k, backend=backend)
        raise ValueError("--family topk supports shapes 'rectangle' and 'disk'")
    if args.family == "batched":
        if args.shape == "interval":
            lengths = _parse_lengths(args.lengths) or [args.length]
            return Query.batched_intervals(lengths, backend=backend)
        if args.shape == "rectangle":
            sizes = _parse_sizes(args.sizes) or [(args.width, args.height)]
            return Query.batched_rectangles(sizes, backend=backend)
        raise ValueError("--family batched supports shapes 'interval' and 'rectangle'")
    if args.family == "decayed":
        if args.shape == "disk":
            return Query.decayed_disk(args.radius, args.gamma, as_of=args.as_of,
                                      backend=backend)
        if args.shape == "rectangle":
            return Query.decayed_rectangle(args.width, args.height, args.gamma,
                                           as_of=args.as_of, backend=backend)
        if args.shape == "interval":
            return Query.decayed_interval(args.length, args.gamma, as_of=args.as_of,
                                          backend=backend)
        raise ValueError("--family decayed supports shapes 'interval', 'rectangle' "
                         "and 'disk'")
    # colored-box3d: the box is --width x --height x --depth; the positional
    # shape is ignored (there is exactly one box-family solver).
    if not has_colors:
        return None
    return Query.colored_box3d(args.width, args.height, args.depth)


def _query_from_args(args: argparse.Namespace, has_colors: bool) -> Optional[Query]:
    """Translate ``solve`` arguments into an engine :class:`Query` (or ``None``
    when the shape needs a color column that is missing)."""
    backend = args.backend
    if args.family != "single":
        return _zoo_query_from_args(args, has_colors)
    if args.shape == "interval":
        return Query.interval(args.length, backend=backend)
    if args.shape == "rectangle":
        return Query.rectangle(args.width, args.height, backend=backend)
    if args.shape == "disk":
        return Query.disk(args.radius, backend=backend)
    if args.shape == "ball-approx":
        return Query.disk_approx(args.radius, epsilon=args.epsilon, seed=args.seed,
                                 backend=backend)
    if not has_colors:
        return None
    if args.shape == "colored-disk":
        if args.exact:
            return Query.colored_disk(args.radius, backend=backend)
        return Query.colored_disk_approx(args.radius, epsilon=args.epsilon, seed=args.seed,
                                         backend=backend)
    return Query.colored_rectangle_approx(args.width, args.height, epsilon=args.epsilon,
                                          seed=args.seed)


def _print_result(result) -> None:
    placement = "none" if result.center is None else ", ".join("%.4f" % c for c in result.center)
    print("shape:     %s" % result.shape)
    print("value:     %g" % result.value)
    print("placement: (%s)" % placement)
    print("exact:     %s" % result.exact)
    if result.meta:
        interesting = {k: v for k, v in result.meta.items() if k not in ("io",)}
        print("meta:      %s" % interesting)


def _cmd_solve(args: argparse.Namespace) -> int:
    table = read_points_csv(args.input)
    if not table.points:
        print("input file %s contains no points" % args.input, file=sys.stderr)
        return 2
    with _trace_sink(args.trace_out):
        with obs.trace("cli.solve", shape=args.shape, engine=args.engine,
                       points=len(table.points)):
            return _solve_table(args, table)


def _solve_table(args: argparse.Namespace, table) -> int:
    """Route one ``solve`` invocation (direct or engine-backed) over a
    parsed point table.

    The direct path is the one dispatch point the engine and the service
    share (``engine.solve_query``), so ``solve`` answers are bit-identical
    to what ``routing="direct"`` serves.
    """
    try:
        query = _query_from_args(args, table.colors is not None)
        if query is None:
            print("colored solvers need a 'color' column in the input CSV",
                  file=sys.stderr)
            return 2
        if args.engine == "sharded":
            # No --executor: --workers > 1 implies the shared-memory worker
            # pool, otherwise the default executor (REPRO_EXECUTOR if set,
            # serial below that).
            executor = args.executor or ("shared-process" if args.workers > 1
                                         else None)
            with QueryEngine(table.points, weights=table.weights,
                             colors=table.colors, executor=executor,
                             workers=args.workers) as engine:
                result = engine.solve(query)
        else:
            result = solve_query(query, table.points, table.weights, table.colors)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    _print_result(result)
    if args.engine == "sharded":
        print("engine:    sharded (%s, workers=%d, shards=%s)"
              % (result.meta.get("executor", "serial"), args.workers,
                 result.meta.get("shards", 1)))
    return 0


def _build_stream(args: argparse.Namespace):
    """Synthesise the update stream the ``monitor`` command replays."""
    if args.stream == "hotspot":
        return hotspot_monitoring_stream(args.events, extent=args.extent, seed=args.seed)
    if args.stream == "sliding":
        window = args.window or max(1, args.events // 4)
        stream = sliding_window_stream(args.events, window=window, extent=args.extent,
                                       seed=args.seed)
        # sliding_window_stream counts *insertions*; cut at --events total
        # events (prefixes stay replayable) so every --stream value replays
        # the same number of events.
        return UpdateStream(list(stream)[:args.events])
    if args.stream == "drift":
        return drift_stream(args.events, extent=args.extent, seed=args.seed)
    if args.stream == "burst":
        return burst_stream(args.events, extent=args.extent, seed=args.seed)
    return adversarial_churn_stream(args.events, radius=args.radius, seed=args.seed)


def _build_monitor(args: argparse.Namespace):
    """Construct the monitor the ``monitor`` command drives.

    Returns ``(monitor, executor_label)`` so the summary line reports the
    executor that was actually constructed.
    """
    from .engine import Query
    from .streaming import (
        ApproximateMaxRSMonitor,
        ExactRecomputeMonitor,
        MultiQueryMonitor,
        ShardedMaxRSMonitor,
    )

    if args.monitor == "exact":
        return ExactRecomputeMonitor(radius=args.radius, backend=args.backend), "inline"
    if args.monitor == "approx":
        epsilon = 0.25 if args.epsilon is None else args.epsilon
        return ApproximateMaxRSMonitor(dim=2, radius=args.radius, epsilon=epsilon,
                                       seed=args.seed), "inline"
    # --workers alone means "parallelise": default to the worker pool,
    # matching `solve --workers` (otherwise workers would be silently dropped).
    executor = args.executor
    if executor is None and args.workers is not None:
        executor = "shared-process"
    label = executor or "inline"
    if args.monitor == "multi":
        radii = [float(r) for r in (args.radii or "0.5,1.0").split(",") if r]
        width = 1.0 if args.width is None else args.width
        height = 1.0 if args.height is None else args.height
        queries = {"disk-r%g" % r: Query.disk(r, backend=args.backend) for r in radii}
        queries["rect-%gx%g" % (width, height)] = Query.rectangle(
            width, height, backend=args.backend)
        return MultiQueryMonitor(queries, executor=executor,
                                 workers=args.workers), label
    return ShardedMaxRSMonitor(radius=args.radius, backend=args.backend,
                               executor=executor, workers=args.workers,
                               window=args.window,
                               time_window=args.time_window), label


def _monitor_args_error(args: argparse.Namespace) -> Optional[str]:
    """Reject flag combinations the chosen monitor would silently ignore."""
    if args.monitor != "sharded" and args.time_window is not None:
        return ("--time-window applies to --monitor sharded only "
                "(got --monitor %s)" % args.monitor)
    if (args.monitor != "sharded" and args.stream != "sliding"
            and args.window is not None):
        # --window parameterizes the 'sliding' stream itself; otherwise it is
        # the sharded monitor's count window.
        return ("--window applies to --monitor sharded (count window) or "
                "--stream sliding (stream expiry) only")
    if args.monitor in ("exact", "approx") and (args.executor is not None
                                                or args.workers is not None):
        return ("--executor/--workers apply to the sharded monitors only "
                "(got --monitor %s)" % args.monitor)
    if args.monitor == "approx" and args.backend != "auto":
        return "--backend does not affect --monitor approx (the dynamic structure)"
    if args.monitor != "multi" and (args.radii is not None or args.width is not None
                                    or args.height is not None):
        return ("--radii/--width/--height configure the standing queries of "
                "--monitor multi only (got --monitor %s)" % args.monitor)
    if args.monitor != "approx" and args.epsilon is not None:
        return ("--epsilon applies to --monitor approx only "
                "(got --monitor %s)" % args.monitor)
    if args.query_every is not None and args.query_every < 1:
        return "--query-every must be >= 1"
    if args.batch_size < 1:
        return "--batch-size must be >= 1"
    if args.events < 1:
        return "--events must be >= 1"
    return None


def _cmd_monitor(args: argparse.Namespace) -> int:
    from .streaming import MultiQuerySnapshot

    usage_error = _monitor_args_error(args)
    if usage_error is not None:
        print(usage_error, file=sys.stderr)
        return 2
    try:
        stream = _build_stream(args)
        monitor, executor_label = _build_monitor(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    query_every = (args.query_every if args.query_every is not None
                   else max(1, len(stream) // 10))
    started = time.perf_counter()
    try:
        with _trace_sink(args.trace_out):
            with obs.trace("cli.monitor", monitor=args.monitor,
                           stream=args.stream, events=len(stream)):
                snapshots = monitor.apply_stream(stream, chunk_size=args.batch_size,
                                                 query_every=query_every)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    finally:
        if hasattr(monitor, "close"):
            monitor.close()
    elapsed = time.perf_counter() - started

    print("stream:     %s (%d events, seed=%d)" % (args.stream, len(stream), args.seed))
    print("monitor:    %s (batch=%d, backend=%s, executor=%s)"
          % (args.monitor, args.batch_size, args.backend, executor_label))
    print("queries:    every %d events -> %d snapshots" % (query_every, len(snapshots)))
    print("throughput: %.0f events/sec (%.3fs total)"
          % (len(stream) / elapsed if elapsed > 0 else float("inf"), elapsed))
    if not snapshots:
        return 0
    last = snapshots[-1]
    if isinstance(last, MultiQuerySnapshot):
        print("final live set: %d points" % last.live_points)
        for name, result in sorted(last.results.items()):
            placement = ("none" if result.center is None
                         else ", ".join("%.4f" % c for c in result.center))
            print("  %-16s value=%-8g placement=(%s)" % (name, result.value, placement))
    else:
        placement = ("none" if last.center is None
                     else ", ".join("%.4f" % c for c in last.center))
        print("final hotspot:  value=%g placement=(%s) live=%d"
              % (last.value, placement, last.live_points))
    if hasattr(monitor, "total_recomputes"):
        print("shard recomputes: %d over %d queries"
              % (monitor.total_recomputes, len(snapshots)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .datasets.requests import (
        default_query_catalog,
        load_trace,
        request_trace,
        save_trace,
        trace_counts,
    )
    from .service import MaxRSService
    from .streaming import ShardedMaxRSMonitor

    if args.concurrency < 1:
        print("--concurrency must be >= 1", file=sys.stderr)
        return 2
    if args.input:
        table = read_points_csv(args.input)
        if not table.points:
            print("input file %s contains no points" % args.input, file=sys.stderr)
            return 2
        points, weights, colors = table.points, table.weights, table.colors
    else:
        points = clustered_points(args.n, dim=2, extent=args.extent, seed=args.seed)
        weights = colors = None

    if args.replay:
        try:
            trace = load_trace(args.replay)
        except (OSError, ValueError, KeyError, TypeError) as error:
            print("cannot load trace %s: %s" % (args.replay, error), file=sys.stderr)
            return 2
    else:
        families = ([part.strip() for part in args.families.split(",") if part.strip()]
                    if args.families else None)
        catalog = default_query_catalog(colored=colors is not None,
                                        backend=args.backend)
        try:
            trace = request_trace(args.requests, catalog=catalog, seed=args.seed,
                                  extent=args.extent, families=families,
                                  families_backend=args.backend)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
    if args.save_trace:
        save_trace(args.save_trace, trace)
        print("wrote %d requests to %s" % (len(trace), args.save_trace))

    if args.listen:
        return _serve_listen(args, points, weights, colors)

    monitor = ShardedMaxRSMonitor(radius=args.radius, backend=args.backend)
    try:
        # Each serving flush roots its own service.flush trace, so the
        # JSONL file carries one span tree per flush rather than one
        # replay-sized blob.
        with _trace_sink(args.trace_out):
            with MaxRSService(points, weights=weights, colors=colors, monitor=monitor,
                              routing=args.routing, cache_ttl=args.cache_ttl,
                              cache_size=args.cache_size,
                              executor=args.executor, workers=args.workers) as service:
                report = service.serve_trace(trace, window=args.concurrency)
                snapshot = service.snapshot()
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    counts = trace_counts(trace)
    errors = [r for r in report.responses if not r.ok]
    print("trace:       %d requests (%d query / %d monitor / %d update, %d stream events)"
          % (len(trace), counts["query"], counts["monitor"], counts["update"],
             counts["stream_events"]))
    print("service:     routing=%s, concurrency=%d, cache_ttl=%gs"
          % (args.routing, args.concurrency, args.cache_ttl))
    print("throughput:  %.0f requests/sec (%.3fs total)"
          % (report.throughput, report.elapsed))
    print("batching:    %d flushes, mean batch %.1f"
          % (snapshot["flushes"], snapshot["mean_batch_size"]))
    print("coalescing:  %d coalesced, %d cache hits, %d solver calls, %d monitor passes"
          % (snapshot["coalesced"], snapshot["cache_hits"],
             snapshot["solver_calls"], snapshot["monitor_passes"]))
    print("latency:     p50=%.2gms p95=%.2gms (queue wait p95=%.2gms)"
          % (1e3 * snapshot["latency_p50"], 1e3 * snapshot["latency_p95"],
             1e3 * snapshot["queue_wait_p95"]))
    if errors:
        print("errors:      %d requests failed (first: %s)"
              % (len(errors), errors[0].error), file=sys.stderr)
        return 1
    return 0


def _parse_hostport(value: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` CLI address; raises ``ValueError`` on junk."""
    host, separator, raw_port = value.rpartition(":")
    if not separator or not host or not raw_port.isdigit():
        raise ValueError("expected HOST:PORT, got %r" % value)
    port = int(raw_port)
    if port > 65535:
        raise ValueError("port %d out of range" % port)
    return host, port


def _serve_listen(args: argparse.Namespace, points, weights, colors) -> int:
    """The ``repro serve --listen`` path: socket front end over the service."""
    import time as _time

    from .net import MaxRSServer
    from .service import MaxRSService
    from .streaming import ShardedMaxRSMonitor

    try:
        host, port = _parse_hostport(args.listen)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.max_pending < 1:
        print("--max-pending must be >= 1", file=sys.stderr)
        return 2
    monitor = ShardedMaxRSMonitor(radius=args.radius, backend=args.backend)
    try:
        with _trace_sink(args.trace_out):
            with MaxRSService(points, weights=weights, colors=colors,
                              monitor=monitor, routing=args.routing,
                              cache_ttl=args.cache_ttl, cache_size=args.cache_size,
                              executor=args.executor,
                              workers=args.workers) as service:
                server = MaxRSServer(service, host, port,
                                     max_pending=args.max_pending,
                                     max_batch=args.concurrency)
                server.start_in_thread()
                print("listening on http://%s:%d/ (POST /v1/request, "
                      "GET /v1/stats, GET /v1/healthz)" % server.address)
                print("serving %d points, routing=%s, max_pending=%d, "
                      "window=%d" % (len(points), args.routing,
                                     args.max_pending, args.concurrency))
                try:
                    if args.duration is not None:
                        _time.sleep(args.duration)
                    else:
                        while True:
                            _time.sleep(3600.0)
                except KeyboardInterrupt:
                    pass
                finally:
                    server.stop()
                stats = server.snapshot()["server"]
                counters = stats["metrics"]

                def count(name: str) -> int:
                    return int((counters.get(name) or {}).get("value", 0))

                print("served:      %d requests (%d shed, %d decode errors, "
                      "max queue depth %d)"
                      % (count("net.requests"), count("net.shed"),
                         count("net.decode_errors"),
                         stats["max_queue_depth"]))
    except (OSError, RuntimeError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .datasets.requests import default_query_catalog, load_trace, request_trace
    from .net import run_loadgen

    try:
        host, port = _parse_hostport(args.connect)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.replay:
        try:
            trace = load_trace(args.replay)
        except (OSError, ValueError, KeyError, TypeError) as error:
            print("cannot load trace %s: %s" % (args.replay, error),
                  file=sys.stderr)
            return 2
    else:
        catalog = default_query_catalog(backend=args.backend)
        trace = request_trace(args.requests, catalog=catalog,
                              monitor_fraction=0.0, update_every=0,
                              rate=args.rate, seed=args.seed,
                              extent=args.extent)
    try:
        report = run_loadgen(host, port, trace, speedup=args.speedup,
                             clients=args.clients, timeout=args.timeout)
    except (OSError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    summary = report.summary()
    latency = summary["latency"]
    print("replayed:    %d requests in %.3fs against %s:%d (speedup x%g, "
          "%d-connection pool)" % (report.requests, report.elapsed, host,
                                   port, report.speedup, report.clients))
    print("rates:       offered %.1f/s, achieved %.1f/s"
          % (report.offered_rate, report.achieved_rate))
    print("outcomes:    %d served, %d shed (%.1f%%), %d errors"
          % (report.served, report.shed, 100.0 * report.shed_rate,
             report.errors))
    if report.served:
        print("latency:     p50=%.2fms p95=%.2fms p99=%.2fms (from the "
              "scheduled send)" % (1e3 * latency["p50"], 1e3 * latency["p95"],
                                   1e3 * latency["p99"]))
    if args.output:
        import json

        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote summary to %s" % args.output)
    if report.errors:
        first = next(record for record in report.records
                     if not record.ok and not record.shed)
        print("errors:      first failure: request %d (status %d)"
              % (first.index, first.status), file=sys.stderr)
        return 1
    return 0


def _parse_overrides(pairs: Optional[Sequence[str]]) -> Optional[Dict[str, object]]:
    """Parse ``--set key=value`` pairs; values are JSON when they parse as
    JSON (numbers, booleans, lists), strings otherwise."""
    import json

    if not pairs:
        return None
    overrides: Dict[str, object] = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ValueError("--set expects key=value, got %r" % pair)
        try:
            overrides[key] = json.loads(raw)
        except ValueError:
            overrides[key] = raw
    return overrides


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.compare import run_compare
    from .bench.grid import ConfigError, run_grid
    from .bench.suites import SUITES

    if args.action == "list":
        for name in sorted(SUITES):
            suite = SUITES[name]()
            print("%-10s %s" % (name, suite.description))
        return 0
    if args.action == "compare":
        try:
            return run_compare(args.current, args.history, noise=args.noise,
                               run_self_test=args.self_test)
        except (OSError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2
    # grid
    unknown = [name for name in (args.suite or []) if name not in SUITES]
    if unknown:
        print("unknown bench suites: %s" % ", ".join(unknown), file=sys.stderr)
        print("known suites: %s" % ", ".join(sorted(SUITES)), file=sys.stderr)
        return 2
    try:
        overrides = _parse_overrides(args.set)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        return run_grid(names=args.suite or None, quick=args.quick,
                        output=args.output, history=args.history,
                        overrides=overrides, spans=not args.no_spans)
    except ConfigError as error:
        print(str(error), file=sys.stderr)
        return 2


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        records = obs.load_trace_jsonl(args.trace)
    except OSError as error:
        print("cannot read trace %s: %s" % (args.trace, error), file=sys.stderr)
        return 2
    except (ValueError, KeyError) as error:
        print("malformed trace %s: %s" % (args.trace, error), file=sys.stderr)
        return 2
    if not records:
        print("trace %s contains no spans" % args.trace, file=sys.stderr)
        return 1
    if args.format == "tree":
        print(obs.render_tree(records))
    elif args.format == "prometheus":
        print(obs.render_prometheus(obs.registry_from_spans(records)), end="")
    else:
        traces = len({record.trace_id for record in records})
        print("trace file: %s (%d spans, %d traces)"
              % (args.trace, len(records), traces))
        print(obs.render_summary(records, top=args.top))
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #

#: The engine executors ``--executor`` accepts on solve, monitor and serve.
_EXECUTORS = ["serial", "shared-process"]


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Maximum range sum (MaxRS) reproduction toolkit (PODS 2025).",
    )
    parser.add_argument("--version", action="version",
                        version="%(prog)s " + __version__,
                        help="print the package version and exit")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="synthesise a workload and write it to CSV")
    generate.add_argument("kind", choices=["uniform", "clustered", "hotspot", "trajectory"])
    generate.add_argument("--output", required=True, help="destination CSV path")
    generate.add_argument("--n", type=int, default=200, help="number of points")
    generate.add_argument("--dim", type=int, default=2, help="dimension")
    generate.add_argument("--extent", type=float, default=10.0, help="side of the bounding cube")
    generate.add_argument("--clusters", type=int, default=3, help="clusters (clustered only)")
    generate.add_argument("--entities", type=int, default=10, help="entities (trajectory only)")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    solve = subparsers.add_parser("solve", help="run a MaxRS solver over a CSV point file")
    solve.add_argument("shape", choices=["interval", "rectangle", "disk", "ball-approx",
                                         "colored-disk", "colored-box"])
    solve.add_argument("--input", required=True, help="CSV file of points")
    solve.add_argument("--radius", type=float, default=1.0)
    solve.add_argument("--width", type=float, default=1.0)
    solve.add_argument("--height", type=float, default=1.0)
    solve.add_argument("--length", type=float, default=1.0)
    solve.add_argument("--epsilon", type=float, default=0.25)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--exact", action="store_true",
                       help="use the exact solver where both exist (colored-disk)")
    solve.add_argument("--family",
                       choices=["single", "topk", "batched", "decayed", "colored-box3d"],
                       default="single",
                       help="query family: 'single' is the plain one-placement "
                            "solver for the positional shape; 'topk' peels --k "
                            "disjoint placements (shapes rectangle/disk); "
                            "'batched' answers every --lengths / --sizes member "
                            "in one query (shapes interval/rectangle); 'decayed' "
                            "weights point i by gamma^(horizon - i) (shapes "
                            "interval/rectangle/disk; always routed direct -- "
                            "weights depend on global arrival order); "
                            "'colored-box3d' places a --width x --height x "
                            "--depth box maximising distinct colors (the "
                            "positional shape is ignored)")
    solve.add_argument("--k", type=int, default=3,
                       help="placements to peel for --family topk")
    solve.add_argument("--gamma", type=float, default=0.9,
                       help="decay factor in (0, 1) for --family decayed")
    solve.add_argument("--as-of", type=int, default=None, dest="as_of",
                       help="evaluate --family decayed as of this arrival index "
                            "(default: the last point)")
    solve.add_argument("--depth", type=float, default=1.0,
                       help="z-side length for --family colored-box3d")
    solve.add_argument("--lengths", default=None,
                       help="comma-separated interval lengths for --family "
                            "batched with shape interval, e.g. 0.5,1.0,2.0 "
                            "(default: one member of --length)")
    solve.add_argument("--sizes", default=None,
                       help="comma-separated WxH rectangle sizes for --family "
                            "batched with shape rectangle, e.g. 1x1,2x1.5 "
                            "(default: one member of --width x --height)")
    solve.add_argument("--backend", choices=["auto", "python", "numpy"], default="auto",
                       help="kernel backend for the sweep inner loops (repro.kernels): "
                            "'python' is the reference loop, 'numpy' the vectorised "
                            "kernels, 'auto' picks by input size (and honours the "
                            "REPRO_BACKEND environment variable)")
    solve.add_argument("--engine", choices=["direct", "sharded"], default="direct",
                       help="'direct' calls the solver once; 'sharded' routes through "
                            "the parallel execution engine (repro.engine)")
    solve.add_argument("--workers", type=int, default=1,
                       help="worker count for the sharded engine's executor")
    solve.add_argument("--executor",
                       choices=_EXECUTORS,
                       default=None,
                       help="sharded engine backend (default: shared-process "
                            "when --workers > 1, else REPRO_EXECUTOR or "
                            "serial); "
                            "'shared-process' publishes the dataset to OS "
                            "shared memory and sends workers only shard "
                            "index descriptors (repro.parallel)")
    solve.add_argument("--trace-out", default=None,
                       help="record the solve's span trace (repro.obs) to this "
                            "JSONL file; inspect it with 'repro stats'")
    solve.set_defaults(func=_cmd_solve)

    monitor = subparsers.add_parser(
        "monitor", help="replay an update stream through a streaming hotspot monitor")
    monitor.add_argument("--stream", choices=["hotspot", "sliding", "drift", "burst", "churn"],
                         default="hotspot", help="synthetic stream scenario to replay")
    monitor.add_argument("--events", type=int, default=2000, help="stream length")
    monitor.add_argument("--monitor", choices=["sharded", "exact", "approx", "multi"],
                         default="sharded",
                         help="'sharded' = dirty-shard exact monitor, 'exact' = "
                              "from-scratch recompute baseline, 'approx' = the paper's "
                              "dynamic (1/2 - eps) structure, 'multi' = several standing "
                              "queries over one shared shard pass")
    monitor.add_argument("--batch-size", type=int, default=256,
                         help="events ingested per batch (chunked apply_stream)")
    monitor.add_argument("--backend", choices=["auto", "python", "numpy"], default="auto",
                         help="kernel backend for the per-shard sweeps; 'auto' resolves "
                              "per shard like the batch engine")
    monitor.add_argument("--executor",
                         choices=_EXECUTORS,
                         default=None,
                         help="engine executor for dirty-shard re-solves "
                              "(default: inline; 'shared-process' keeps a "
                              "persistent crash-recovering worker pool)")
    monitor.add_argument("--workers", type=int, default=None,
                         help="worker count for the executor")
    monitor.add_argument("--radius", type=float, default=1.0,
                         help="query disk radius (also the churn stream's tile scale)")
    monitor.add_argument("--radii", default=None,
                         help="comma-separated disk radii for --monitor multi "
                              "(default: 0.5,1.0)")
    monitor.add_argument("--width", type=float, default=None,
                         help="standing rectangle width for --monitor multi "
                              "(default: 1.0)")
    monitor.add_argument("--height", type=float, default=None,
                         help="standing rectangle height for --monitor multi "
                              "(default: 1.0)")
    monitor.add_argument("--epsilon", type=float, default=None,
                         help="epsilon for --monitor approx (default: 0.25)")
    monitor.add_argument("--window", type=int, default=None,
                         help="count-based sliding window of the sharded monitor "
                              "(also sets the expiry window of --stream sliding)")
    monitor.add_argument("--time-window", type=float, default=None,
                         help="time-based sliding window of the sharded monitor "
                              "(every stream this command generates carries "
                              "unit-spaced timestamps)")
    monitor.add_argument("--query-every", type=int, default=None,
                         help="events between hotspot queries (default: stream/10)")
    monitor.add_argument("--extent", type=float, default=10.0,
                         help="side of the stream's bounding square")
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument("--trace-out", default=None,
                         help="record the replay's span traces (repro.obs) to "
                              "this JSONL file; inspect with 'repro stats'")
    monitor.set_defaults(func=_cmd_monitor)

    serve = subparsers.add_parser(
        "serve", help="replay a mixed request trace through the serving front end")
    serve.add_argument("--input", default=None,
                       help="CSV file of static-dataset points (default: generate "
                            "a clustered workload of --n points)")
    serve.add_argument("--n", type=int, default=1500,
                       help="generated dataset size when --input is not given")
    serve.add_argument("--requests", type=int, default=2000,
                       help="synthetic trace length when --replay is not given")
    serve.add_argument("--replay", default=None,
                       help="replay a JSONL request trace recorded with --save-trace "
                            "(see repro.datasets.requests.save_trace)")
    serve.add_argument("--save-trace", default=None,
                       help="write the replayed trace to this JSONL path")
    serve.add_argument("--families", default=None,
                       help="comma-separated long-tail query families to mix "
                            "into the generated trace (topk, decayed, batched, "
                            "batched_interval, colored_box3d); replayed traces "
                            "carry their own families")
    serve.add_argument("--concurrency", type=int, default=64,
                       help="maximum requests in flight together (the flush window "
                            "micro-batches and coalescing operate over)")
    serve.add_argument("--cache-ttl", type=float, default=60.0,
                       help="seconds a cached answer may be served before expiring")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="entries the TTL'd result cache holds")
    serve.add_argument("--routing", choices=["direct", "sharded", "auto"],
                       default="direct",
                       help="'direct' = bit-identical direct solver calls on cache "
                            "misses; 'sharded' = flush misses through the sharded "
                            "engine (same values, possibly different placements); "
                            "'auto' = plan-aware: shard only the quadratic-cost "
                            "queries, colored rectangles and boxes (engine "
                            "batch_plan)")
    serve.add_argument("--radius", type=float, default=1.0,
                       help="disk radius of the live hotspot monitor")
    serve.add_argument("--backend", choices=["auto", "python", "numpy"], default="auto",
                       help="kernel backend for the generated trace's queries and "
                            "the monitor's per-shard sweeps")
    serve.add_argument("--executor",
                       choices=_EXECUTORS,
                       default=None,
                       help="engine executor for sharded routing (default: "
                            "REPRO_EXECUTOR or serial; 'shared-process' = "
                            "zero-copy shared-memory workers)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker count for the engine executor")
    serve.add_argument("--extent", type=float, default=10.0,
                       help="side of the generated workload's bounding square")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--trace-out", default=None,
                       help="record one span trace per serving flush "
                            "(repro.obs) to this JSONL file; inspect with "
                            "'repro stats'")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve over a socket instead of replaying: bind "
                            "the asyncio HTTP front end (repro.net) here "
                            "(e.g. 127.0.0.1:8750; port 0 picks a free port) "
                            "and answer POST /v1/request until --duration "
                            "elapses or Ctrl-C")
    serve.add_argument("--duration", type=float, default=None,
                       help="seconds to keep a --listen server up "
                            "(default: until interrupted)")
    serve.add_argument("--max-pending", type=int, default=256,
                       help="admission-queue bound of a --listen server; "
                            "requests arriving beyond it are shed with 503")
    serve.set_defaults(func=_cmd_serve)

    loadgen = subparsers.add_parser(
        "loadgen", help="replay a request trace open-loop against a live "
                        "'repro serve --listen' server")
    loadgen.add_argument("--connect", required=True, metavar="HOST:PORT",
                         help="address of the live server to load")
    loadgen.add_argument("--replay", default=None,
                         help="JSONL request trace to replay (see 'repro serve "
                              "--save-trace'); default: synthesise a query-only "
                              "trace of --requests requests")
    loadgen.add_argument("--requests", type=int, default=500,
                         help="synthetic trace length when --replay is not given")
    loadgen.add_argument("--rate", type=float, default=100.0,
                         help="arrival rate (requests/sec) of the synthetic trace")
    loadgen.add_argument("--backend", choices=["auto", "python", "numpy"],
                         default="auto",
                         help="kernel backend pinned on the synthetic trace's "
                              "queries")
    loadgen.add_argument("--speedup", type=float, default=1.0,
                         help="rate multiplier over the trace's recorded "
                              "arrivals (2.0 offers the trace at twice its "
                              "recorded rate)")
    loadgen.add_argument("--clients", type=int, default=8,
                         help="keep-alive connection-pool size (in-flight "
                              "requests are not capped: the replay is open-loop)")
    loadgen.add_argument("--timeout", type=float, default=30.0,
                         help="per-request response deadline in seconds")
    loadgen.add_argument("--extent", type=float, default=10.0,
                         help="bounding-square side of the synthetic trace's "
                              "query catalog")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--output", default=None,
                         help="write the JSON report summary to this path")
    loadgen.set_defaults(func=_cmd_loadgen)

    stats = subparsers.add_parser(
        "stats", help="render a span trace recorded with --trace-out")
    stats.add_argument("--trace", required=True,
                       help="JSONL span-trace file written by a --trace-out run")
    stats.add_argument("--format", choices=["summary", "tree", "prometheus"],
                       default="summary",
                       help="'summary' = per-span-name totals and percentiles, "
                            "'tree' = the full indented span hierarchy, "
                            "'prometheus' = text exposition of per-span count/"
                            "duration metrics")
    stats.add_argument("--top", type=int, default=0,
                       help="keep only the N heaviest span names in the "
                            "summary (0 = all)")
    stats.set_defaults(func=_cmd_stats)

    bench = subparsers.add_parser(
        "bench", help="run the unified performance grids or compare against "
                      "the committed perf history")
    bench.add_argument("action", choices=["list", "grid", "compare"],
                       help="'list' names the suites, 'grid' runs them and "
                            "writes one repro-bench-grid/1 artifact, "
                            "'compare' regresses an artifact against the "
                            "committed PERF_HISTORY.jsonl trajectory")
    bench.add_argument("--suite", action="append", default=None,
                       help="suite to run (repeatable; default: all of %s)"
                            % "engine/kernels/paper/parallel/service/"
                              "serving_slo/streaming/zoo")
    bench.add_argument("--quick", action="store_true",
                       help="CI-sized workloads (the committed baselines in "
                            "PERF_HISTORY.jsonl are quick-mode)")
    bench.add_argument("--output", default="BENCH_grid.json",
                       help="destination of the unified JSON artifact")
    bench.add_argument("--history", default=None,
                       help="append one JSON line per suite run to this "
                            "PERF_HISTORY.jsonl trajectory")
    bench.add_argument("--set", action="append", default=None, metavar="KEY=VALUE",
                       help="override a suite config key (repeatable; values "
                            "parse as JSON when possible, e.g. "
                            "--set n_sweep=500)")
    bench.add_argument("--no-spans", action="store_true",
                       help="skip the per-phase span probes (repro.obs)")
    bench.add_argument("--current", default="BENCH_grid.json",
                       help="artifact to compare (bench compare)")
    bench.add_argument("--noise", type=float, default=0.25,
                       help="relative noise band for gate regressions "
                            "(0.25 = a metric must move 25%% beyond the "
                            "baseline to fail)")
    bench.add_argument("--self-test", action="store_true",
                       help="first prove the comparator catches a synthetic "
                            "regression injected at twice the noise band")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro``; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `repro stats ... | head`);
        # point it at devnull so interpreter shutdown does not re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
