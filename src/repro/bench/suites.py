"""The built-in benchmark grid suites.

Each suite declares its workload x size x backend x executor grid through
the driver in :mod:`repro.bench.grid`:

* ``kernels``   -- every hot sweep kernel, pure-Python reference vs the
                   vectorised NumPy backend, with cross-backend agreement
                   checks at sizes the unit suite cannot afford;
* ``engine``    -- direct one-shot solver calls vs the sharded execution
                   engine on rectangle and disk workloads, gated on value
                   equality, with the sharded/direct disk ratio as the
                   regression gate;
* ``streaming`` -- the exact-recompute baseline vs the dirty-shard monitors
                   (python / batched-auto / shared-process) and the multi-query
                   shared store on a localized churn stream, differentially
                   checked on the post-churn optimum;
* ``service``   -- a mixed open-loop request trace through the serial
                   one-query-at-a-time loop and the serving front end per
                   routing mode, with the bit-for-bit differential and the
                   >= 3x service-direct throughput gate, plus a
                   heterogeneous every-query-family trace (differential
                   only);
* ``parallel``  -- the same exact-rectangle batch on the serial and
                   zero-copy shared-memory engines, gated bit-for-bit
                   against serial and on shared-process beating serial;
* ``serving_slo`` -- the network front end over a real socket: an
                   open-loop loadgen replay of a query-only trace at fixed
                   offered rates (p50/p95/p99 from the scheduled send), the
                   bit-identical wire-vs-``serve_trace`` differential, and
                   a bounded-admission overload case gated on shedding
                   instead of unbounded queue growth;
* ``zoo``       -- the long-tail query families (top-k peels, decayed
                   weights, batched members, colored 3-d boxes) as one
                   heterogeneous trace through the serial loop and the
                   serving front end per routing mode, with the bit-for-bit
                   differential on direct routing, the strict value
                   differential on plan-aware routing, and the colored
                   box3d solver checked direct vs engine;
* ``paper``     -- experiments E1-E15, one case each, whose paper claims
                   (approximation guarantees, exact-solver agreement, the
                   (min,+) reductions, I/O counts) are its checks
                   (:mod:`repro.bench.paper`).

All imports of the measured subsystems happen lazily inside the suites so
``import repro.bench`` stays light.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Tuple

from .grid import CaseResult, CheckResult, GridCase, GridSuite, capture_spans, timed
from .paper import PaperSuite

__all__ = ["SUITES", "get_suite",
           "KernelsSuite", "EngineSuite", "StreamingSuite",
           "ServiceSuite", "ParallelSuite", "ZooSuite", "ServingSloSuite",
           "PaperSuite"]


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


# --------------------------------------------------------------------------- #
# kernels
# --------------------------------------------------------------------------- #

class KernelsSuite(GridSuite):
    """Hot sweep kernels: pure-Python reference vs vectorised NumPy."""

    name = "kernels"
    description = ("interval/rectangle/disk sweeps and probe batches, "
                   "python vs numpy backend, agreement-checked")

    def defaults(self, quick: bool) -> Dict[str, object]:
        """Workload sizes (engineering-target sizes at full scale) and the
        backend axis."""
        return {
            "n_sweep": 10_000 if quick else 100_000,
            "n_disk": 2_000 if quick else 10_000,
            "n_probes": 1_000 if quick else 5_000,
            "repeats": 2 if quick else 1,
            "backends": ["python", "numpy"],
        }

    def build(self, config):
        """Generate the four kernel workloads once; grid = kernel x backend."""
        from ..datasets import clustered_points, uniform_weighted_points

        n_sweep = int(config["n_sweep"])
        n_disk = int(config["n_disk"])
        n_probes = int(config["n_probes"])
        sweep_points, sweep_weights = uniform_weighted_points(
            n_sweep, dim=2, extent=math.sqrt(n_sweep) * 0.95, seed=1)
        xs = [p[0] for p in sweep_points]
        disk_points = clustered_points(
            n_disk, dim=2, extent=math.sqrt(n_disk) * 0.8, clusters=6,
            cluster_std=2.0, seed=2)
        disk_weights = [1.0] * n_disk
        probe_centers, probe_weights = uniform_weighted_points(
            n_probes, dim=2, extent=8.0, seed=3)
        probes = [(x + 0.1, y - 0.1) for x, y in probe_centers[:512]]

        def first(result):
            return float(result[0])

        workloads: Dict[str, Tuple[int, Callable, Callable]] = {
            "interval_sweep": (
                n_sweep,
                lambda module: module.interval_sweep(xs, sweep_weights, 2.0, True),
                first),
            "rectangle_sweep": (
                n_sweep,
                lambda module: module.rectangle_sweep(
                    sweep_points, sweep_weights, 2.0, 2.0),
                first),
            "disk_sweep": (
                n_disk,
                lambda module: module.disk_sweep(disk_points, disk_weights, 1.0),
                first),
            "probe_depths": (
                n_probes,
                lambda module: module.probe_depths(
                    probes, probe_centers, probe_weights, 1.0),
                lambda depths: float(max(depths))),
        }
        cases = [GridCase(self.name, workload, n, backend=backend)
                 for workload, (n, _, _) in workloads.items()
                 for backend in config["backends"]]
        return cases, {"workloads": workloads}

    def run_case(self, case, config, context):
        """Best-of-``repeats`` wall clock of one kernel on one backend."""
        from .. import kernels

        n, run, objective = context["workloads"][case.workload]
        module = kernels.get_backend(case.backend)
        seconds, returned = timed(lambda: run(module), int(config["repeats"]))
        return CaseResult(case.case_id, case.axes,
                          {"seconds": round(seconds, 6),
                           "value": objective(returned)})

    def finish(self, results, config, context):
        """Cross-backend agreement per kernel; speedup gates per kernel."""
        checks: List[CheckResult] = []
        summary: Dict[str, object] = {}
        gates: Dict[str, object] = {}
        for workload in context["workloads"]:
            per = {r.axes["backend"]: r for r in results
                   if r.axes["workload"] == workload}
            python, numpy_ = per.get("python"), per.get("numpy")
            if python is None or numpy_ is None:
                continue
            checks.append(CheckResult(
                "%s backend agreement" % workload,
                _isclose(python.metrics["value"], numpy_.metrics["value"]),
                "python=%r numpy=%r" % (python.metrics["value"],
                                        numpy_.metrics["value"])))
            if numpy_.metrics["seconds"] > 0:
                speedup = round(
                    python.metrics["seconds"] / numpy_.metrics["seconds"], 3)
                summary["speedup_%s" % workload] = speedup
                gates["speedup_%s" % workload] = speedup
        return checks, summary, gates


# --------------------------------------------------------------------------- #
# engine
# --------------------------------------------------------------------------- #

class EngineSuite(GridSuite):
    """Direct one-shot solver calls vs the sharded execution engine."""

    name = "engine"
    description = ("rectangle and disk workloads, direct sweep vs "
                   "QueryEngine per executor")

    def defaults(self, quick: bool) -> Dict[str, object]:
        """One size per mode; extents scale with sqrt(n) to hold density."""
        return {
            "n": 4_000 if quick else 12_000,
            "workers": 4,
            "width": 2.0,
            "height": 2.0,
            "radius": 1.0,
            "rect_executors": ["direct", "serial"],
            "disk_executors": ["direct", "serial"],
        }

    def build(self, config):
        """Uniform weighted cloud (rectangle) + clustered cloud (disk)."""
        from ..datasets import clustered_points, uniform_weighted_points

        n = int(config["n"])
        rect_points, rect_weights = uniform_weighted_points(
            n, dim=2, extent=math.sqrt(n) * 0.55, seed=211)
        disk_points = clustered_points(
            n, dim=2, extent=math.sqrt(n) * 0.73, clusters=6,
            cluster_std=2.0, seed=212)
        cases = [GridCase(self.name, "rectangle", n, executor=executor)
                 for executor in config["rect_executors"]]
        cases += [GridCase(self.name, "disk", n, executor=executor)
                  for executor in config["disk_executors"]]
        return cases, {"rect": (rect_points, rect_weights),
                       "disk": disk_points}

    def run_case(self, case, config, context):
        """'direct' times the one-shot solver; everything else the engine."""
        from ..engine import Query, QueryEngine
        from ..exact import maxrs_disk_exact, maxrs_rectangle_exact

        width, height = float(config["width"]), float(config["height"])
        radius = float(config["radius"])
        if case.workload == "rectangle":
            points, weights = context["rect"]
            query = Query.rectangle(width, height)
        else:
            points, weights = context["disk"], None
            query = Query.disk(radius)

        if case.executor == "direct":
            if case.workload == "rectangle":
                seconds, result = timed(lambda: maxrs_rectangle_exact(
                    points, width=width, height=height, weights=weights))
            else:
                seconds, result = timed(lambda: maxrs_disk_exact(
                    points, radius=radius))
        else:
            with QueryEngine(points, weights=weights, executor=case.executor,
                             workers=int(config["workers"])) as engine:
                seconds, result = timed(lambda: engine.solve(query))
        return CaseResult(case.case_id, case.axes,
                          {"seconds": round(seconds, 6),
                           "value": result.value,
                           "exact": bool(result.exact)})

    def finish(self, results, config, context):
        """Engine answers must match the direct sweep.  The sharded/direct
        disk ratio is a regression gate, not a win condition: both disk
        kernels prune with a neighbour grid, so sharding cuts no work (see
        :attr:`repro.engine.Query.cost_class`)."""
        checks: List[CheckResult] = []
        summary: Dict[str, object] = {}
        gates: Dict[str, object] = {}
        for workload in ("rectangle", "disk"):
            per = {r.axes["executor"]: r for r in results
                   if r.axes["workload"] == workload}
            direct = per.get("direct")
            if direct is None:
                continue
            for executor, result in per.items():
                if executor == "direct":
                    continue
                checks.append(CheckResult(
                    "%s %s == direct value" % (workload, executor),
                    _isclose(result.metrics["value"], direct.metrics["value"])
                    and result.metrics["exact"],
                    "engine=%r direct=%r" % (result.metrics["value"],
                                             direct.metrics["value"])))
            serial = per.get("serial")
            if serial is not None and serial.metrics["seconds"] > 0:
                speedup = round(
                    direct.metrics["seconds"] / serial.metrics["seconds"], 3)
                summary["%s_sharded_speedup" % workload] = speedup
                if workload == "disk":
                    gates["disk_sharded_speedup"] = speedup
        return checks, summary, gates


# --------------------------------------------------------------------------- #
# streaming
# --------------------------------------------------------------------------- #

def _streaming_workload(n_live: int, churn_events: int, seed: int = 1):
    """Base insertions reaching ``n_live`` live points, then a localized
    churn phase (inserts clustered around a few active sites, deletions
    among points near those same sites -- the hotspot-monitoring regime
    dirty-shard re-solves are built for)."""
    from ..core.sampling import default_rng
    from ..datasets import UpdateEvent, uniform_points

    extent = math.sqrt(n_live) * 0.8
    base = uniform_points(n_live, dim=2, extent=extent, seed=seed)
    rng = default_rng(seed + 1)
    events = [UpdateEvent(kind="insert", point=point) for point in base]
    sites = [base[int(rng.integers(0, n_live))] for _ in range(8)]
    site_reach = 4.5
    local_alive = [
        index for index, (x, y) in enumerate(base)
        if any((x - sx) ** 2 + (y - sy) ** 2 <= site_reach ** 2
               for sx, sy in sites)
    ]
    for _ in range(churn_events):
        if rng.random() < 0.5 and local_alive:
            position = int(rng.integers(0, len(local_alive)))
            events.append(UpdateEvent(kind="delete",
                                      target=local_alive.pop(position)))
        else:
            site = sites[int(rng.integers(0, len(sites)))]
            point = (float(site[0] + rng.normal(0.0, 1.5)),
                     float(site[1] + rng.normal(0.0, 1.5)))
            events.append(UpdateEvent(kind="insert", point=point))
            local_alive.append(len(events) - 1)
    return events, n_live


def _measure_monitor(monitor, events, n_base: int, churn_events: int,
                     query_every: int, batch_size: int, latency_probes: int):
    """Ingest the base set untimed, time the churn phase plus a few
    single-update query latencies; returns (metrics, post-churn value)."""
    from ..datasets import UpdateEvent

    base, churn = events[:n_base], events[n_base:n_base + churn_events]
    monitor.apply_batch(base, 0)
    monitor.current()  # settle: pay the initial full solve outside the clock

    started = time.perf_counter()
    snapshots = monitor.apply_stream(churn, chunk_size=batch_size,
                                     query_every=query_every,
                                     start_index=n_base)
    elapsed = time.perf_counter() - started

    after = monitor.current()
    if isinstance(after, dict):
        value_after_churn = {name: result.value for name, result in after.items()}
    else:
        value_after_churn = after.value

    probe_event = UpdateEvent(kind="insert",
                              point=churn[0].point or (0.0, 0.0))
    latencies = []
    for probe in range(latency_probes):
        monitor.apply(probe_event, len(events) + 1000 + probe)
        probe_started = time.perf_counter()
        monitor.current()
        latencies.append(time.perf_counter() - probe_started)

    metrics = {
        "events": len(churn),
        "queries": len(snapshots),
        "seconds": round(elapsed, 6),
        "events_per_sec": (round(len(churn) / elapsed, 3)
                           if elapsed > 0 else None),
        "mean_query_latency": (round(sum(latencies) / len(latencies), 6)
                               if latencies else None),
    }
    if hasattr(monitor, "close"):
        monitor.close()
    return metrics, value_after_churn


class StreamingSuite(GridSuite):
    """Recompute vs dirty-shard monitors on a localized churn stream."""

    name = "streaming"
    description = ("exact-recompute baseline vs dirty-shard (python/batched/"
                   "shared-process) and the multi-query shared store")

    RADIUS = 1.0

    def defaults(self, quick: bool) -> Dict[str, object]:
        """Live-set size, churn lengths (the recompute baseline replays a
        shorter churn: its queries are seconds each) and the query cadence."""
        query_every = 50 if quick else 100
        return {
            "n_live": 5_000 if quick else 50_000,
            "query_every": query_every,
            "baseline_events": 2 * query_every,
            "sharded_events": 600 if quick else 4_000,
            "batch_size": 256,
            "latency_probes": 2 if quick else 3,
            "workers": 4,
        }

    def _variants(self, config):
        """Ordered variant list: (workload, backend, executor, churn)."""
        baseline = int(config["baseline_events"])
        sharded = int(config["sharded_events"])
        return [
            ("recompute", None, None, baseline),
            ("dirty-shard", "python", None, sharded),
            ("dirty-shard", "auto", None, sharded),
            ("dirty-shard", "auto", "shared-process", sharded),
            ("multi-query", "auto", None, sharded),
        ]

    def build(self, config):
        """One shared event list sized for the longest churn phase."""
        from ..engine import Query

        max_churn = max(churn for _, _, _, churn in self._variants(config))
        events, n_base = _streaming_workload(int(config["n_live"]), max_churn)
        multi_queries = {
            "disk-r": Query.disk(self.RADIUS),
            "disk-0.9r": Query.disk(0.9 * self.RADIUS),
            "rect-1x1": Query.rectangle(self.RADIUS, self.RADIUS),
        }
        cases = [GridCase(self.name, workload, int(config["n_live"]),
                          backend=backend, executor=executor)
                 for workload, backend, executor, _ in self._variants(config)]
        return cases, {"events": events, "n_base": n_base,
                       "multi_queries": multi_queries, "values": {}}

    def _make_monitor(self, case, config, context):
        from ..streaming import (ExactRecomputeMonitor, MultiQueryMonitor,
                                 ShardedMaxRSMonitor)

        if case.workload == "recompute":
            return ExactRecomputeMonitor(radius=self.RADIUS)
        if case.workload == "multi-query":
            return MultiQueryMonitor(context["multi_queries"])
        workers = int(config["workers"]) if case.executor else None
        return ShardedMaxRSMonitor(radius=self.RADIUS, backend=case.backend,
                                   executor=case.executor, workers=workers)

    def run_case(self, case, config, context):
        """Replay this variant's churn; park the post-churn value for the
        differential checks in :meth:`finish`."""
        churn_events = int(config["sharded_events"])
        for workload, backend, executor, events in self._variants(config):
            if (workload == case.workload and backend == case.backend
                    and executor == case.executor):
                churn_events = events
                break
        monitor = self._make_monitor(case, config, context)
        metrics, value = _measure_monitor(
            monitor, context["events"], context["n_base"], churn_events,
            int(config["query_every"]), int(config["batch_size"]),
            int(config["latency_probes"]))
        context["values"][case.case_id] = value
        metrics["value_after_churn"] = value
        return CaseResult(case.case_id, case.axes, metrics)

    def finish(self, results, config, context):
        """Every exact monitor that replayed the same churn must agree on
        the post-churn optimum; the recompute baseline is cross-checked via
        a fresh dirty-shard replay of its (shorter) churn."""
        from ..streaming import ShardedMaxRSMonitor

        by_id = {r.case_id: r for r in results}
        def value_of(workload, backend=None, executor=None):
            case = GridCase(self.name, workload, int(config["n_live"]),
                            backend=backend, executor=executor)
            return context["values"][case.case_id], by_id[case.case_id]

        checks: List[CheckResult] = []
        reference, ref_result = value_of("dirty-shard", "python")
        for backend, executor in (("auto", None), ("auto", "shared-process")):
            value, _ = value_of("dirty-shard", backend, executor)
            checks.append(CheckResult(
                "dirty-shard/%s/%s vs python" % (backend, executor or "inline"),
                _isclose(value, reference),
                "%r vs %r" % (value, reference)))
        multi_value, multi_result = value_of("multi-query", "auto")
        checks.append(CheckResult(
            "multi-query disk-r vs dirty-shard",
            _isclose(multi_value["disk-r"], reference),
            "%r vs %r" % (multi_value["disk-r"], reference)))
        # Recompute ran a shorter churn; replay that same short churn
        # through a fresh dirty-shard monitor to close the loop.
        recompute_value, recompute_result = value_of("recompute")
        _, cross_value = _measure_monitor(
            ShardedMaxRSMonitor(radius=self.RADIUS), context["events"],
            context["n_base"], int(config["baseline_events"]),
            int(config["query_every"]), int(config["batch_size"]), 0)
        checks.append(CheckResult(
            "dirty-shard vs recompute (short churn)",
            _isclose(cross_value, recompute_value),
            "%r vs %r" % (cross_value, recompute_value)))

        _, batched_result = value_of("dirty-shard", "auto")
        summary: Dict[str, object] = {}
        gates: Dict[str, object] = {}
        if (batched_result.metrics["events_per_sec"]
                and recompute_result.metrics["events_per_sec"]):
            ratio = round(batched_result.metrics["events_per_sec"]
                          / recompute_result.metrics["events_per_sec"], 2)
            summary["dirty_shard_batched_vs_recompute"] = ratio
            gates["dirty_shard_batched_vs_recompute"] = ratio
            if not config["quick"] and ratio < 5.0:
                checks.append(CheckResult(
                    "dirty-shard batched >= 5x recompute at full size",
                    False, "only %.1fx" % ratio))
        if (batched_result.metrics["mean_query_latency"]
                and recompute_result.metrics["mean_query_latency"]):
            latency_ratio = round(
                recompute_result.metrics["mean_query_latency"]
                / batched_result.metrics["mean_query_latency"], 1)
            summary["query_latency_recompute_over_dirty"] = latency_ratio
            gates["query_latency_recompute_over_dirty"] = latency_ratio
        if multi_result.metrics["events_per_sec"]:
            summary["multi_query_events_per_sec"] = \
                multi_result.metrics["events_per_sec"]
        return checks, summary, gates


# --------------------------------------------------------------------------- #
# service
# --------------------------------------------------------------------------- #

class ServiceSuite(GridSuite):
    """Serving front end (coalescing + micro-batching) vs a serial loop."""

    name = "service"
    description = ("mixed Zipf request trace through the serial loop and "
                   "MaxRSService per routing, bit-for-bit differential")

    RADIUS = 0.5
    MIN_SPEEDUP = 3.0

    def defaults(self, quick: bool) -> Dict[str, object]:
        """Trace lengths and dataset sizes (the trace shape is identical in
        quick mode; only the dataset shrinks)."""
        return {
            "requests": 10_000,
            "hetero_requests": 200 if quick else 400,
            "n_points": 400 if quick else 1000,
            "extent": 8.0 if quick else 10.0,
            "window": 64,
            "seed": 11,
            "routings": ["direct", "sharded", "auto"],
        }

    def _headline_catalog(self):
        from ..engine import Query
        catalog = [Query.rectangle(w, h) for w, h in
                   ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (2.0, 2.0),
                    (0.5, 0.5), (3.0, 1.5), (1.5, 3.0), (0.75, 1.25))]
        catalog.append(Query.disk(0.4))
        return catalog

    def _hetero_catalog(self):
        from ..engine import Query
        return [
            Query.rectangle(1.0, 1.0),
            Query.rectangle(2.0, 2.0),
            Query.disk(0.4),
            Query.colored_disk(0.75),
            Query.disk_approx(1.0, epsilon=0.4, seed=7),
        ]

    def build(self, config):
        """Dataset + two traces; grid = trace x (serial-loop | routing)."""
        from ..datasets import clustered_points, request_trace

        n_points = int(config["n_points"])
        extent = float(config["extent"])
        seed = int(config["seed"])
        coords = clustered_points(n_points, dim=2, extent=extent, seed=seed)
        colors = [index % 12 for index in range(n_points)]
        traces = {
            "headline": request_trace(
                int(config["requests"]), catalog=self._headline_catalog(),
                shuffle=False, zipf_s=1.3, update_every=100, update_batch=8,
                seed=seed, extent=extent),
            "hetero": request_trace(
                int(config["hetero_requests"]), catalog=self._hetero_catalog(),
                shuffle=False, zipf_s=1.6, update_every=100, update_batch=8,
                seed=seed + 1, extent=extent),
        }
        cases = [GridCase(self.name, "headline", len(traces["headline"]),
                          executor="serial-loop")]
        cases += [GridCase(self.name, "headline", len(traces["headline"]),
                           executor=routing) for routing in config["routings"]]
        cases += [GridCase(self.name, "hetero", len(traces["hetero"]),
                           executor=executor)
                  for executor in ("serial-loop", "direct")]
        return cases, {"coords": coords, "colors": colors, "traces": traces,
                       "baselines": {}, "responses": {}}

    def _run_serial_loop(self, trace, coords, colors):
        """One request at a time, every query a fresh direct solver call."""
        from ..engine.planner import solve_query
        from ..streaming import ShardedMaxRSMonitor

        monitor = ShardedMaxRSMonitor(radius=self.RADIUS)
        answers: List[Optional[Tuple]] = []
        position = 0
        started = time.perf_counter()
        for request in trace:
            if request.kind == "query":
                result = solve_query(request.query, coords, None,
                                     colors if request.query.colored else None)
                answers.append(("q", result.value, result.center, result.exact))
            elif request.kind == "monitor":
                result = monitor.current()
                answers.append(("m", result.value, result.center))
            else:
                for event in request.events:
                    monitor.apply(event, position)
                    position += 1
                answers.append(None)
        elapsed = time.perf_counter() - started
        monitor.close()
        return elapsed, answers

    def _run_service(self, trace, coords, colors, routing, window):
        from ..service import MaxRSService
        from ..streaming import ShardedMaxRSMonitor

        monitor = ShardedMaxRSMonitor(radius=self.RADIUS)
        with MaxRSService(coords, colors=colors, monitor=monitor,
                          routing=routing, cache_ttl=3600.0) as service:
            report = service.serve_trace(trace, window=window)
            snapshot = service.snapshot()
        return report.elapsed, report.responses, snapshot

    def run_case(self, case, config, context):
        """Replay one trace through one execution mode, parking the answers
        for the differential in :meth:`finish`."""
        trace = context["traces"][case.workload]
        coords, colors = context["coords"], context["colors"]
        if case.executor == "serial-loop":
            elapsed, answers = self._run_serial_loop(trace, coords, colors)
            context["baselines"][case.workload] = answers
            metrics = {"seconds": round(elapsed, 6),
                       "requests_per_sec": round(len(trace) / elapsed, 3)}
        else:
            elapsed, responses, snapshot = self._run_service(
                trace, coords, colors, case.executor, int(config["window"]))
            context["responses"][(case.workload, case.executor)] = responses
            metrics = {"seconds": round(elapsed, 6),
                       "requests_per_sec": round(len(trace) / elapsed, 3),
                       "coalesced": snapshot["coalesced"],
                       "cache_hits": snapshot["cache_hits"],
                       "solver_calls": snapshot["solver_calls"],
                       "latency_p95_seconds": snapshot["latency_p95"]}
        return CaseResult(case.case_id, case.axes, metrics)

    def _differential(self, trace, coords, colors, responses, baseline,
                      check_static_bits):
        """Serving guarantees: direct answers bit-identical to fresh solver
        calls, exact values and monitor reads equal to the serial baseline.
        Returns (checked counts, first failure detail or None)."""
        from ..engine.planner import solve_query

        static_checked = monitor_checked = 0
        memo: Dict[object, Tuple] = {}
        for index, (request, response) in enumerate(zip(trace, responses)):
            if response.error is not None:
                return (static_checked, monitor_checked,
                        "request %d failed: %r" % (index, response.error))
            answer = baseline[index]
            if request.kind == "query":
                if check_static_bits:
                    served = response.served_query
                    if served not in memo:
                        reference = solve_query(
                            served, coords, None,
                            colors if served.colored else None)
                        memo[served] = (reference.value, reference.center,
                                        reference.exact)
                    if memo[served] != (response.result.value,
                                        response.result.center,
                                        response.result.exact):
                        return (static_checked, monitor_checked,
                                "request %d: served answer differs from the "
                                "direct call for %s" % (index, served.describe()))
                if request.query.exact and response.result.value != answer[1]:
                    return (static_checked, monitor_checked,
                            "request %d: value %r != baseline %r"
                            % (index, response.result.value, answer[1]))
                static_checked += 1
            elif request.kind == "monitor":
                if (response.result.value, response.result.center) != answer[1:]:
                    return (static_checked, monitor_checked,
                            "request %d: monitor read drifted" % index)
                monitor_checked += 1
        return static_checked, monitor_checked, None

    def finish(self, results, config, context):
        """Differential per routing + the >= 3x service-direct gate."""
        by_key = {(r.axes["workload"], r.axes["executor"]): r for r in results}
        checks: List[CheckResult] = []
        summary: Dict[str, object] = {}
        gates: Dict[str, object] = {}
        for (workload, routing), responses in sorted(context["responses"].items()):
            trace = context["traces"][workload]
            static, monitor, failure = self._differential(
                trace, context["coords"], context["colors"], responses,
                context["baselines"][workload],
                check_static_bits=(routing == "direct"))
            checks.append(CheckResult(
                "%s %s differential (%d static + %d monitor)"
                % (workload, routing, static, monitor),
                failure is None, failure or ""))
        serial = by_key[("headline", "serial-loop")]
        for routing in config["routings"]:
            variant = by_key.get(("headline", routing))
            if variant is None:
                continue
            speedup = round(variant.metrics["requests_per_sec"]
                            / serial.metrics["requests_per_sec"], 2)
            summary["speedup_%s_vs_serial" % routing] = speedup
        direct_speedup = summary.get("speedup_direct_vs_serial")
        if direct_speedup is not None:
            gates["speedup_direct_vs_serial"] = direct_speedup
            checks.append(CheckResult(
                "service-direct >= %.1fx the serial loop" % self.MIN_SPEEDUP,
                direct_speedup >= self.MIN_SPEEDUP,
                "measured %.2fx" % direct_speedup))
        return checks, summary, gates

    def span_probe(self, config, context):
        """One small traced sharded replay so the artifact records *where*
        serving time goes (flush vs static solving vs kernel work)."""
        from ..datasets import request_trace

        trace = request_trace(300, catalog=self._headline_catalog(),
                              shuffle=False, zipf_s=1.3, update_every=100,
                              update_batch=8, seed=int(config["seed"]) + 2,
                              extent=float(config["extent"]))
        spans = capture_spans(lambda: self._run_service(
            trace, context["coords"], context["colors"], "sharded",
            int(config["window"])))
        return {"requests": len(trace), "routing": "sharded", "spans": spans}


# --------------------------------------------------------------------------- #
# zoo
# --------------------------------------------------------------------------- #

class ZooSuite(ServiceSuite):
    """The long-tail query families served as one heterogeneous trace.

    Reuses the :class:`ServiceSuite` trace/differential machinery over a
    trace that mixes top-k, decayed and batched queries into the headline
    shapes (:func:`repro.datasets.requests.zoo_query_catalog`), plus a
    colored box3d workload checked direct vs the sharded engine.  The
    dataset is unweighted on purpose: every top-k / batched optimum is then
    an integer count, so the strict per-request value equality of the
    differential is safe even for the sharded answers plan-aware routing
    produces (decayed queries always route direct -- their weights depend
    on global arrival order -- so they stay bit-identical regardless).
    """

    name = "zoo"
    description = ("topk/decayed/batched trace through the serial loop and "
                   "MaxRSService per routing, plus colored box3d direct vs "
                   "engine, differentially gated")

    RADIUS = 0.5

    def defaults(self, quick: bool) -> Dict[str, object]:
        """Trace length, planar dataset size and the 3-d box dataset size."""
        return {
            "requests": 300 if quick else 600,
            "n_points": 400 if quick else 900,
            "n_box": 240 if quick else 600,
            "extent": 8.0 if quick else 10.0,
            "window": 64,
            "seed": 23,
            "routings": ["direct", "auto"],
            "families": ["topk", "decayed", "batched"],
        }

    def _base_catalog(self):
        from ..engine import Query
        return [Query.rectangle(1.0, 1.0), Query.disk(0.4)]

    def build(self, config):
        """Planar dataset + zoo trace; 3-d colored dataset for the box."""
        from ..datasets import (clustered_points, request_trace,
                                trajectory_colored_points)
        from ..engine import Query

        n_points = int(config["n_points"])
        extent = float(config["extent"])
        seed = int(config["seed"])
        coords = clustered_points(n_points, dim=2, extent=extent, seed=seed)
        n_box = int(config["n_box"])
        entities = 12
        box_points, box_colors = trajectory_colored_points(
            entities, samples_per_entity=max(1, n_box // entities), dim=3,
            extent=extent, seed=seed + 1)
        traces = {
            # families_backend is pinned: "auto" resolves per micro-batch in
            # the service but per call in the serial loop, which flips
            # kernels near the threshold and breaks the strict decayed-value
            # differential in the last float bits.
            "zoo": request_trace(
                int(config["requests"]), catalog=self._base_catalog(),
                families=tuple(config["families"]),
                families_backend="numpy", shuffle=False,
                zipf_s=1.2, update_every=120, update_batch=8, seed=seed,
                extent=extent),
        }
        cases = [GridCase(self.name, "zoo", len(traces["zoo"]),
                          executor="serial-loop")]
        cases += [GridCase(self.name, "zoo", len(traces["zoo"]),
                           executor=routing) for routing in config["routings"]]
        cases += [GridCase(self.name, "box3d", len(box_points),
                           executor=executor)
                  for executor in ("direct", "serial")]
        return cases, {"coords": coords, "colors": None, "traces": traces,
                       "box": (box_points, box_colors),
                       "box_query": Query.colored_box3d(1.5, 1.5, 1.5),
                       "baselines": {}, "responses": {}, "box_results": {}}

    def run_case(self, case, config, context):
        """Zoo-trace cells reuse the service machinery; box3d cells time the
        direct solver call vs the sharded engine."""
        if case.workload != "box3d":
            return super().run_case(case, config, context)
        from ..boxes import colored_maxrs_box3d_exact
        from ..engine import QueryEngine

        points, colors = context["box"]
        query = context["box_query"]
        if case.executor == "direct":
            seconds, result = timed(lambda: colored_maxrs_box3d_exact(
                points, (query.width, query.height, query.depth),
                colors=colors))
        else:
            with QueryEngine(points, colors=colors,
                             executor=case.executor) as engine:
                seconds, result = timed(lambda: engine.solve(query))
        context["box_results"][case.executor] = result
        return CaseResult(case.case_id, case.axes,
                          {"seconds": round(seconds, 6),
                           "value": result.value,
                           "exact": bool(result.exact)})

    def finish(self, results, config, context):
        """Differential per routing (bit-for-bit on direct), the box3d
        engine agreement check and the portable speedup gates."""
        by_key = {(r.axes["workload"], r.axes["executor"]): r for r in results}
        checks: List[CheckResult] = []
        summary: Dict[str, object] = {}
        gates: Dict[str, object] = {}
        for (workload, routing), responses in sorted(context["responses"].items()):
            trace = context["traces"][workload]
            static, monitor, failure = self._differential(
                trace, context["coords"], context["colors"], responses,
                context["baselines"][workload],
                check_static_bits=(routing == "direct"))
            checks.append(CheckResult(
                "%s %s differential (%d static + %d monitor)"
                % (workload, routing, static, monitor),
                failure is None, failure or ""))
        serial = by_key[("zoo", "serial-loop")]
        for routing in config["routings"]:
            variant = by_key.get(("zoo", routing))
            if variant is None:
                continue
            speedup = round(variant.metrics["requests_per_sec"]
                            / serial.metrics["requests_per_sec"], 2)
            summary["speedup_%s_vs_serial" % routing] = speedup
        if "speedup_direct_vs_serial" in summary:
            gates["speedup_direct_vs_serial"] = \
                summary["speedup_direct_vs_serial"]
        direct_box = context["box_results"].get("direct")
        engine_box = context["box_results"].get("serial")
        if direct_box is not None and engine_box is not None:
            checks.append(CheckResult(
                "box3d engine == direct value",
                _isclose(engine_box.value, direct_box.value)
                and engine_box.exact,
                "engine=%r direct=%r" % (engine_box.value, direct_box.value)))
            direct_case = by_key[("box3d", "direct")]
            engine_case = by_key[("box3d", "serial")]
            if engine_case.metrics["seconds"] > 0:
                ratio = round(direct_case.metrics["seconds"]
                              / engine_case.metrics["seconds"], 3)
                summary["box3d_sharded_speedup"] = ratio
                gates["box3d_sharded_speedup"] = ratio
        return checks, summary, gates

    def span_probe(self, config, context):
        """One small traced plan-aware replay of a zoo trace, so the
        artifact records where the peel rounds and direct detours go."""
        from ..datasets import request_trace

        trace = request_trace(150, catalog=self._base_catalog(),
                              families=tuple(config["families"]),
                              families_backend="numpy",
                              shuffle=False, zipf_s=1.2, update_every=120,
                              update_batch=8, seed=int(config["seed"]) + 2,
                              extent=float(config["extent"]))
        spans = capture_spans(lambda: self._run_service(
            trace, context["coords"], context["colors"], "auto",
            int(config["window"])))
        return {"requests": len(trace), "routing": "auto", "spans": spans}


# --------------------------------------------------------------------------- #
# parallel
# --------------------------------------------------------------------------- #

class ParallelSuite(GridSuite):
    """Zero-copy shared-memory execution vs the serial engine."""

    name = "parallel"
    description = ("same exact-rectangle batch on serial / shared-process "
                   "engines, bit-for-bit gated")

    def defaults(self, quick: bool) -> Dict[str, object]:
        """Dataset size, batch rounds and the executor axis."""
        return {
            "n": 60_000 if quick else 200_000,
            "rounds": 3 if quick else 4,
            "workers": 2,
            "executors": ["serial", "shared-process"],
        }

    def build(self, config):
        """One large weighted dataset; two rectangle queries with distinct
        plans so nothing is answered from a cache."""
        from ..datasets import uniform_weighted_points
        from ..engine import Query

        n = int(config["n"])
        points, weights = uniform_weighted_points(n, dim=2, extent=100.0,
                                                  seed=7)
        cases = [GridCase(self.name, "rectangle-batch", n, executor=executor)
                 for executor in config["executors"]]
        return cases, {"points": points, "weights": weights,
                       "queries": [Query.rectangle(2.0, 1.6),
                                   Query.rectangle(2.5, 2.0)],
                       "warmup": Query.rectangle(3.0, 2.4),
                       "raw": {}}

    def run_case(self, case, config, context):
        """Time ``rounds`` replays of the batch; round 1 is the cold
        publish/pickle round, later rounds the warm steady state."""
        from ..engine import QueryEngine

        engine = QueryEngine(context["points"], weights=context["weights"],
                             executor=case.executor,
                             workers=int(config["workers"]))
        try:
            setup_started = time.perf_counter()
            engine.solve(context["warmup"])  # start the pool outside the timer
            setup = time.perf_counter() - setup_started
            round_times: List[float] = []
            batch_results = []
            for _ in range(int(config["rounds"])):
                started = time.perf_counter()
                batch_results = engine.solve_batch(context["queries"])
                round_times.append(time.perf_counter() - started)
            stats = dict(engine.stats)
        finally:
            engine.close()
        context["raw"][case.executor] = batch_results
        warm = (round(sum(round_times[1:]) / (len(round_times) - 1), 4)
                if len(round_times) > 1 else None)
        return CaseResult(case.case_id, case.axes, {
            "seconds": round(sum(round_times), 6),
            "setup_seconds": round(setup, 4),
            "cold_seconds": round(round_times[0], 4),
            "warm_seconds": warm,
            "shards_solved": stats["shards_solved"],
        })

    def finish(self, results, config, context):
        """Bit-for-bit check vs serial + shared-process-beats-serial gates.

        The baseline is serial, the simplest correct engine."""
        by_executor = {r.axes["executor"]: r for r in results}
        mismatches = [
            "%s: value=%r center=%r vs serial value=%r center=%r"
            % (query.describe(), result.value, result.center,
               reference.value, reference.center)
            for query, reference, result in zip(
                context["queries"], context["raw"].get("serial", []),
                context["raw"].get("shared-process", []))
            if (result.value != reference.value
                or result.center != reference.center)]
        checks: List[CheckResult] = [CheckResult(
            "shared-process bit-for-bit vs serial",
            not mismatches, "; ".join(mismatches))]
        summary: Dict[str, object] = {}
        gates: Dict[str, object] = {}
        serial = by_executor.get("serial")
        shared = by_executor.get("shared-process")
        if serial and shared and shared.metrics["seconds"] > 0:
            total = round(serial.metrics["seconds"]
                          / shared.metrics["seconds"], 3)
            summary["speedup_shared_vs_serial_total"] = total
            gates["speedup_shared_vs_serial_total"] = total
            if serial.metrics["warm_seconds"] and shared.metrics["warm_seconds"]:
                warm = round(serial.metrics["warm_seconds"]
                             / shared.metrics["warm_seconds"], 3)
                summary["speedup_shared_vs_serial_warm"] = warm
                gates["speedup_shared_vs_serial_warm"] = warm
            checks.append(CheckResult(
                "shared-process beats serial",
                total > 1.0, "shared-process is %.2fx serial" % total))
        return checks, summary, gates

    def span_probe(self, config, context):
        """One traced shared-process batch replay for per-phase attribution."""
        from ..engine import QueryEngine

        def replay():
            engine = QueryEngine(context["points"], weights=context["weights"],
                                 executor="shared-process",
                                 workers=int(config["workers"]))
            try:
                engine.solve_batch(context["queries"])
            finally:
                engine.close()
        return {"executor": "shared-process",
                "queries": len(context["queries"]),
                "spans": capture_spans(replay)}


# --------------------------------------------------------------------------- #
# serving_slo
# --------------------------------------------------------------------------- #

class ServingSloSuite(GridSuite):
    """Open-loop SLO latency of the network front end, over a real socket.

    Every case boots a fresh :class:`repro.net.MaxRSServer` (an embedded
    asyncio thread on an ephemeral port) over a fresh
    :class:`~repro.service.MaxRSService` and replays a query-only trace with
    :func:`repro.net.run_loadgen` -- requests fire at their recorded arrival
    times, so the measured p50/p95/p99 are true open-loop latencies (from
    the *scheduled* send, coordinated-omission-free).

    Two case families:

    * ``steady`` -- the numpy-pinned default catalog at >= 2 fixed offered
      rates the service sustains.  Hard checks: nothing sheds, and every
      wire answer is **bit-identical** (encoding-equal) to an in-process
      :meth:`~repro.service.MaxRSService.serve_trace` replay of the same
      trace.  The tracked gate per rate is ``achieved_over_offered`` (a
      machine-portable ratio ~1.0 while the server keeps up).
    * ``overload`` -- distinct slow pure-Python rectangle queries offered
      far above capacity at a deliberately small admission queue.  Hard
      checks: the server *sheds* (503s) instead of queueing unboundedly,
      and the observed queue depth never exceeds ``max_pending``.
    """

    name = "serving_slo"
    description = ("open-loop socket replay: steady-rate latency percentiles "
                   "+ bit-identical wire answers + bounded-queue overload shed")

    def defaults(self, quick: bool) -> Dict[str, object]:
        """Trace sizes, the fixed offered rates, and the overload shape."""
        return {
            "requests": 120 if quick else 400,
            "n_points": 300 if quick else 600,
            "base_rate": 100.0,
            "rate_multipliers": [1.0, 3.0],
            "clients": 8,
            "max_pending": 256,
            "overload_requests": 150 if quick else 300,
            "overload_points": 1500 if quick else 3000,
            "overload_multiplier": 15.0,
            "overload_max_pending": 16,
            "overload_max_batch": 4,
            "seed": 11,
        }

    def _slow_catalog(self):
        # Distinct widths defeat coalescing/caching across families; the
        # pure-Python backend makes each solve slow enough to overload.
        from ..engine import Query
        return [Query.rectangle(1.0 + 0.001 * i, 1.0, backend="python")
                for i in range(40)]

    def build(self, config):
        """Dataset + steady/overload traces + the in-process reference."""
        from ..datasets import default_query_catalog, request_trace, uniform_points
        from ..net import result_to_dict
        from ..service import MaxRSService

        seed = int(config["seed"])
        coords = uniform_points(int(config["n_points"]), seed=seed)
        # backend="numpy" pins the kernel per query: "auto" would resolve
        # per micro-batch, and differing batch shapes between the wire and
        # the in-process replay could pick different (tie-breaking) kernels.
        catalog = default_query_catalog(backend="numpy", heavy=False)
        steady = request_trace(
            int(config["requests"]), catalog=catalog, monitor_fraction=0.0,
            update_every=0, rate=float(config["base_rate"]), seed=seed)
        overload = request_trace(
            int(config["overload_requests"]), catalog=self._slow_catalog(),
            monitor_fraction=0.0, update_every=0,
            rate=float(config["base_rate"]), seed=seed + 1)
        with MaxRSService(coords) as service:
            replay = service.serve_trace(steady)
        reference = [None if response.result is None
                     else result_to_dict(response.result)
                     for response in replay.responses]
        cases = [GridCase(self.name, "steady", len(steady),
                          executor="x%g" % multiplier)
                 for multiplier in config["rate_multipliers"]]
        cases.append(GridCase(self.name, "overload", len(overload),
                              executor="x%g" % config["overload_multiplier"]))
        overload_coords = uniform_points(int(config["overload_points"]),
                                         seed=seed + 2)
        return cases, {"coords": coords, "overload_coords": overload_coords,
                       "steady": steady, "overload": overload,
                       "reference": reference, "reports": {}, "depths": {}}

    def _replay(self, coords, events, *, speedup, clients, max_pending,
                max_batch=64, timeout=60.0):
        from ..net import MaxRSServer, run_loadgen
        from ..service import MaxRSService

        service = MaxRSService(coords)
        server = MaxRSServer(service, max_pending=max_pending,
                             max_batch=max_batch)
        server.start_in_thread()
        try:
            report = run_loadgen(server.host, server.port, events,
                                 speedup=speedup, clients=clients,
                                 timeout=timeout)
            depth = server.snapshot()["server"]["max_queue_depth"]
        finally:
            server.stop()
            service.close()
        return report, depth

    def run_case(self, case, config, context):
        """One socket replay: fresh server + service, open-loop loadgen."""
        multiplier = float(case.executor.lstrip("x"))
        if case.workload == "steady":
            events, coords = context["steady"], context["coords"]
            max_pending, max_batch = int(config["max_pending"]), 64
        else:
            events, coords = context["overload"], context["overload_coords"]
            max_pending = int(config["overload_max_pending"])
            max_batch = int(config["overload_max_batch"])
        report, depth = self._replay(
            coords, events, speedup=multiplier,
            clients=int(config["clients"]), max_pending=max_pending,
            max_batch=max_batch)
        context["reports"][(case.workload, case.executor)] = report
        context["depths"][(case.workload, case.executor)] = (depth, max_pending)
        latency = report.percentiles()
        metrics = {
            "requests": report.requests,
            "served": report.served,
            "shed": report.shed,
            "errors": report.errors,
            "offered_per_sec": round(report.offered_rate, 3),
            "achieved_per_sec": round(report.achieved_rate, 3),
            "shed_rate": round(report.shed_rate, 4),
            "max_queue_depth": depth,
            "latency_p50_ms": round(latency["p50"] * 1e3, 3),
            "latency_p95_ms": round(latency["p95"] * 1e3, 3),
            "latency_p99_ms": round(latency["p99"] * 1e3, 3),
        }
        return CaseResult(case.case_id, case.axes, metrics)

    def finish(self, results, config, context):
        """Differential + no-shed gates per steady rate; bounded overload."""
        checks: List[CheckResult] = []
        summary: Dict[str, object] = {}
        gates: Dict[str, object] = {}
        reference = context["reference"]
        for (workload, executor), report in sorted(context["reports"].items()):
            tag = executor.lstrip("x")
            if workload == "steady":
                mismatches = []
                for record, expected in zip(report.records, reference):
                    wire = (record.response.result
                            if record.response is not None else None)
                    if wire != expected:
                        mismatches.append(
                            "request %d: wire %r != in-process %r"
                            % (record.index, wire, expected))
                checks.append(CheckResult(
                    "steady x%s wire answers bit-identical to serve_trace "
                    "(%d compared)" % (tag, len(report.records)),
                    not mismatches, "; ".join(mismatches[:3])))
                checks.append(CheckResult(
                    "steady x%s served without shedding" % tag,
                    report.shed == 0 and report.errors == 0,
                    "shed=%d errors=%d" % (report.shed, report.errors)))
                ratio = round(min(report.achieved_rate
                                  / report.offered_rate, 1.0), 3)
                summary["achieved_over_offered_x%s" % tag] = ratio
                gates["achieved_over_offered_x%s" % tag] = ratio
            else:
                depth, max_pending = context["depths"][(workload, executor)]
                checks.append(CheckResult(
                    "overload x%s sheds instead of queueing unboundedly" % tag,
                    report.shed > 0,
                    "shed=%d of %d" % (report.shed, report.requests)))
                checks.append(CheckResult(
                    "overload x%s queue depth bounded by max_pending=%d"
                    % (tag, max_pending),
                    depth <= max_pending,
                    "max depth observed %d" % depth))
                summary["overload_shed_rate"] = round(report.shed_rate, 4)
                summary["overload_max_queue_depth"] = depth
        return checks, summary, gates

    def span_probe(self, config, context):
        """One short traced socket replay: where wire time goes
        (accept/decode/dispatch/serve/respond)."""
        events = context["steady"][:40]

        def replay():
            self._replay(context["coords"], events, speedup=1.0,
                         clients=int(config["clients"]),
                         max_pending=int(config["max_pending"]))
        return {"requests": len(events), "spans": capture_spans(replay)}


SUITES: Dict[str, Callable[[], GridSuite]] = {
    suite.name: suite for suite in
    (KernelsSuite, EngineSuite, StreamingSuite, ServiceSuite, ParallelSuite,
     ZooSuite, ServingSloSuite, PaperSuite)
}
"""Registry of the built-in grid suites, keyed by suite name."""


def get_suite(name: str) -> GridSuite:
    """Instantiate the named suite; raises ``KeyError`` with the known names
    on a typo."""
    try:
        factory = SUITES[name]
    except KeyError:
        raise KeyError("unknown bench suite %r (known: %s)"
                       % (name, ", ".join(sorted(SUITES))))
    return factory()
