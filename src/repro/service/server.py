"""The synchronous query-serving core.

:class:`MaxRSService` accepts a stream of heterogeneous MaxRS requests --
static queries against a fixed dataset, hotspot reads against a live stream
monitor, and monitor update batches -- and serves them through the serving
pipeline the rest of this package provides:

1. **windows** -- the caller hands :meth:`MaxRSService.serve` one window
   of requests at a time: :meth:`~MaxRSService.serve_trace` cuts a replayed
   trace into windows, and :class:`repro.net.MaxRSServer` drains its
   bounded admission queue into them;
2. **micro-batching** -- each window is split into ordered serve / update
   groups (:func:`~repro.service.batcher.form_groups`; updates are
   barriers), so one flush touches the engine once and the monitor once;
3. **coalescing** -- identical in-flight requests collapse onto one backend
   call (:func:`~repro.service.batcher.coalesce`);
4. **TTL'd caching** -- answers land in a :class:`~repro.service.cache.TTLCache`;
   static keys embed the engine's dataset fingerprint, monitor keys embed the
   monitor's :attr:`~repro.streaming.base.StreamMonitor.generation`, so
   update batches implicitly invalidate every monitor-derived entry;
5. **plan-aware routing** -- cache-missing static queries are routed via the
   engine: ``routing="direct"`` issues one direct solver call per distinct
   query (answers are *bit-identical* to calling the solver yourself --
   the serving differential guarantee), ``routing="sharded"`` flushes them
   as one :meth:`~repro.engine.QueryEngine.solve_batch` (parallel across
   queries and shards; equal optimum values, possibly different equally
   optimal placements), and ``routing="auto"`` shards only the
   quadratic-cost queries (colored rectangles and boxes), where sharding
   cuts total work, planning just those with
   :meth:`~repro.engine.QueryEngine.batch_plan`.  Either way
   ``backend="auto"`` is resolved once per micro-batch
   (:func:`repro.kernels.resolve_batch_backend`), and the concrete query
   served is recorded on the response.

The service starts no thread and holds no request queue.  Concurrent
callers take turns on one lock, so each window is served whole; requests
wait only where windows are formed -- for socket traffic, in the server's
bounded admission queue.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..core.result import MaxRSResult
from ..datasets.requests import ServiceRequest
from ..engine.executors import Executor
from ..engine.planner import Query, QueryEngine
from ..kernels import resolve_batch_backend
from ..obs import tracing as obs
from ..streaming.base import StreamMonitor
from .batcher import coalesce, form_groups
from .cache import MISSING, TTLCache
from .metrics import ServiceStats
from .requests import ServiceResponse

__all__ = ["MaxRSService", "TraceReport"]


@dataclass
class TraceReport:
    """The outcome of one :meth:`MaxRSService.serve_trace` replay."""

    responses: List[ServiceResponse]
    elapsed: float

    @property
    def requests(self) -> int:
        """Number of requests replayed."""
        return len(self.responses)

    @property
    def throughput(self) -> float:
        """Requests served per second of wall-clock replay time."""
        if self.elapsed <= 0:
            return float("inf")
        return len(self.responses) / self.elapsed


class MaxRSService:
    """Serve heterogeneous MaxRS request streams with coalescing,
    micro-batching, TTL'd caching and plan-aware routing.

    Parameters
    ----------
    points, weights, colors:
        The static dataset; a :class:`~repro.engine.QueryEngine` is built
        over it.  Alternatively pass a ready-made ``engine``.  The engine
        keeps no results; the service's TTL cache is the only result cache.
    monitor:
        The live :class:`~repro.streaming.base.StreamMonitor` update
        requests mutate and monitor reads query.  Optional; without one,
        monitor/update requests fail with a per-request error.
    routing:
        ``"direct"`` (default): cache-missing static queries run as direct
        solver calls -- served answers are bit-identical to calling the
        solver yourself.  ``"sharded"``: they flush through
        :meth:`~repro.engine.QueryEngine.solve_batch` (sharded + parallel;
        same optimum values, possibly different equally optimal placements).
        ``"auto"``: only the queries whose
        :attr:`~repro.engine.Query.cost_class` is ``"quadratic"`` (colored
        rectangles and boxes, where sharding cuts *total* work, not just
        wall-clock) are planned with
        :meth:`~repro.engine.QueryEngine.batch_plan` and go through the
        sharded engine; the rest stay on bit-identical direct calls and
        build no plan.
    cache_ttl, cache_size:
        The TTL'd result cache (seconds / entries; ``cache_size=0`` turns
        it off).
    executor, workers:
        Forwarded to the engine built from ``points``.
        ``executor="shared-process"`` is the zero-copy serving mode: the
        engine publishes the dataset once to a shared-memory store
        (:mod:`repro.parallel`) and sharded flushes send workers only index
        descriptors.  ``None`` (the default) honours the ``REPRO_EXECUTOR``
        environment variable and otherwise stays serial.
    clock:
        Monotonic time source (injected for deterministic tests).
    """

    def __init__(
        self,
        points: Optional[Sequence] = None,
        *,
        weights: Optional[Sequence[float]] = None,
        colors: Optional[Sequence[Hashable]] = None,
        engine: Optional[QueryEngine] = None,
        monitor: Optional[StreamMonitor] = None,
        routing: str = "direct",
        cache_ttl: float = 60.0,
        cache_size: int = 4096,
        executor: Union[str, Executor, None] = None,
        workers: Optional[int] = None,
        clock=time.perf_counter,
    ):
        if routing not in ("direct", "sharded", "auto"):
            raise ValueError(
                "routing must be 'direct', 'sharded' or 'auto', got %r" % (routing,))
        if engine is not None and points is not None:
            raise ValueError("pass either points or a ready-made engine, not both")
        self._owns_engine = False
        if engine is None and points is not None:
            engine = QueryEngine(points, weights=weights, colors=colors,
                                 executor=executor, workers=workers)
            self._owns_engine = True
        if engine is None and monitor is None:
            raise ValueError("MaxRSService needs a dataset, an engine or a monitor")
        self._engine = engine
        self._monitor = monitor
        self.routing = routing
        self._cache = TTLCache(maxsize=cache_size, ttl=cache_ttl)
        self._clock = clock
        self.stats = ServiceStats()
        self._lock = threading.Lock()
        self._stream_position = 0
        self._batch_counter = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "MaxRSService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def engine(self) -> Optional[QueryEngine]:
        """The dataset-bound query engine (``None`` for monitor-only services)."""
        return self._engine

    @property
    def monitor(self) -> Optional[StreamMonitor]:
        """The live stream monitor (``None`` for static-only services)."""
        return self._monitor

    @property
    def cache_stats(self) -> dict:
        """The TTL cache's hit / miss / expiration counters."""
        return self._cache.stats

    def snapshot(self) -> dict:
        """Aggregate serving metrics plus cache (and engine) counters."""
        payload = self.stats.snapshot()
        payload["cache"] = self._cache.stats
        if self._engine is not None:
            payload["engine"] = self._engine.stats
        return payload

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (post-close serving raises)."""
        return self._closed

    def close(self) -> None:
        """Shut down the engine the service owns.  Idempotent; waits for a
        window being served to finish, and afterwards :meth:`serve` raises
        :class:`RuntimeError` -- the engine's shared-memory store is
        released, so serving over it would give corrupt answers.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._owns_engine and self._engine is not None:
                self._engine.close()

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def request(self, request: ServiceRequest) -> ServiceResponse:
        """Serve one request synchronously; raises its error, if any."""
        response = self.serve([request])[0]
        if response.error is not None:
            raise response.error
        return response

    def serve_trace(self, trace: Sequence[ServiceRequest], *,
                    window: int = 64) -> TraceReport:
        """Replay a request trace through the serving pipeline.

        The trace is walked in order and flushed in windows of up to
        ``window`` requests -- the deterministic stand-in for concurrent
        arrival: requests in one window are "in flight together" and
        eligible for coalescing and shared passes, while update barriers
        inside a window still apply in order.  Arrival times are ignored
        (:func:`repro.net.run_loadgen` honours them).
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        responses: List[ServiceResponse] = []
        started = self._clock()
        for start in range(0, len(trace), window):
            responses.extend(self.serve(trace[start:start + window]))
        return TraceReport(responses=responses, elapsed=self._clock() - started)

    def serve(self, requests: Sequence[ServiceRequest]) -> List[ServiceResponse]:
        """Serve one caller-formed window synchronously, in order.

        Errors are attached per response (``response.error``), never raised:
        one malformed request must not fail the flush that carries it.
        Concurrent calls take turns; the time a call waits for its turn is
        its responses' ``queue_wait``.  Raises :class:`RuntimeError` after
        :meth:`close`, also for a call that was waiting while it ran.
        """
        submitted = self._clock()
        with self._lock:
            # Checked under the lock close() holds while it shuts the engine
            # down, so a call that waited out close() cannot reach it.
            if self._closed:
                raise RuntimeError(
                    "MaxRSService is closed; serve() after close() is a bug in "
                    "the caller (the owned engine's resources are already "
                    "released)")
            self._batch_counter += 1
            batch_id = self._batch_counter
            flush_started = self._clock()
            window = list(requests)
            responses: List[Optional[ServiceResponse]] = [None] * len(window)
            solver_calls = 0
            monitor_passes = 0
            # The trace root of one serving flush: everything the flush does
            # (update application, static solving, monitor passes, and the
            # whole engine subtree under them) nests below this span.
            with obs.trace("service.flush", batch_id=batch_id,
                           requests=len(window)) as flush_span:
                for group in form_groups(window):
                    if group.kind == "update":
                        self._apply_update_group(group, window, responses, batch_id)
                        continue
                    calls, passes = self._serve_group(group, window, responses, batch_id)
                    solver_calls += calls
                    monitor_passes += passes
                flush_span.tag(solver_calls=solver_calls,
                               monitor_passes=monitor_passes)
            done = self._clock()
            for response in responses:
                response.queue_wait = max(0.0, flush_started - submitted)
                response.latency = max(0.0, done - submitted)
                self.stats.record(response)
            self.stats.record_flush(solver_calls=solver_calls,
                                    monitor_passes=monitor_passes)
            return responses

    def _apply_update_group(self, group, window, responses, batch_id) -> None:
        events = [event for request in group.requests for event in request.events]
        error: Optional[Exception] = None
        if self._monitor is None:
            error = ValueError("update request on a service without a monitor")
        else:
            # The stream offset advances by the whole group even if applying
            # fails partway: trace-recorded delete targets are absolute stream
            # positions, so skipping the failed suffix (rather than reusing
            # its offsets) keeps later batches' handles collision-free.
            start_index = self._stream_position
            self._stream_position += len(events)
            try:
                with obs.span("service.update", events=len(events),
                              requests=len(group.requests)):
                    self._monitor.apply_batch(events, start_index=start_index)
            except Exception as exc:  # surfaced per response, never raised
                error = exc
        for position in group.positions:
            responses[position] = ServiceResponse(
                request=window[position], result=None, served_from="update",
                batch_size=len(window), batch_id=batch_id, error=error)

    def _serve_group(self, group, window, responses, batch_id) -> Tuple[int, int]:
        order, waiters = coalesce(group)
        static_keys = [key for key in order if key[0] == "q"]
        monitor_names = [key[1] for key in order if key[0] == "m"]
        answers: Dict[Hashable, Tuple[Optional[MaxRSResult], Optional[Query],
                                      str, Optional[Exception]]] = {}
        solver_calls = 0
        monitor_passes = 0
        if static_keys:
            with obs.span("service.static", queries=len(static_keys)) as static_span:
                solver_calls = self._answer_static(static_keys, answers)
                static_span.tag(solver_calls=solver_calls)
        if monitor_names:
            with obs.span("service.monitor", reads=len(monitor_names)) as monitor_span:
                monitor_passes = self._answer_monitor(monitor_names, answers)
                monitor_span.tag(passes=monitor_passes)
        for key in order:
            result, served_query, source, error = answers[key]
            for rank, position in enumerate(waiters[key]):
                responses[position] = ServiceResponse(
                    request=window[position], result=result,
                    served_query=served_query,
                    served_from=source if rank == 0 else "coalesced",
                    batch_size=len(window), batch_id=batch_id, error=error)
        return solver_calls, monitor_passes

    def _answer_static(self, keys, answers) -> int:
        """Answer the distinct static queries of one serve group; returns the
        number of fresh solver calls made."""
        if not keys:
            return 0
        if self._engine is None:
            error = ValueError("static query on a service without a dataset")
            for key in keys:
                answers[key] = (None, None, "solver", error)
            return 0
        now = self._clock()
        fingerprint = self._engine.fingerprint
        misses: List[Hashable] = []
        for key in keys:
            cached = self._cache.get(("q", fingerprint, key[1]), now)
            if cached is not MISSING:
                served_query, result = cached
                answers[key] = (result, served_query, "cache", None)
            else:
                misses.append(key)
        if not misses:
            return 0
        # Per-micro-batch backend resolution: "auto" amortises NumPy's
        # per-call setup over the batch (repro.kernels.resolve_batch_backend);
        # the concrete query is recorded on the response and in the cache so
        # the differential guarantee is checkable.
        concrete: List[Query] = []
        for key in misses:
            query = key[1]
            if query.backend == "auto":
                query = replace(query, backend=resolve_batch_backend(
                    "auto", len(self._engine), len(misses), query.sweep_kernel))
            concrete.append(query)
        solver_calls = 0
        # Indices into misses routed through solve_batch: all of them under
        # "sharded"; under "auto" only the quadratic-cost queries, where
        # sharding cuts total work.  Only those are planned.
        flush: List[int] = []
        if self.routing == "sharded":
            flush = list(range(len(concrete)))
        elif self.routing == "auto":
            flush = [index for index, query in enumerate(concrete)
                     if query.cost_class == "quadratic"]
        if flush:
            try:
                plan = self._engine.batch_plan([concrete[i] for i in flush])
            except ValueError:
                flush = []  # a malformed query: fall back to per-query calls
            else:
                self.stats.planned_shard_tasks += plan.shard_tasks
        if flush:
            try:
                results = self._engine.solve_batch([concrete[i] for i in flush])
            except Exception:
                # One malformed query fails the whole sharded flush -- fall
                # back to per-query direct calls below, which attach the
                # error to the offending response(s) and still serve the
                # rest (the per-response error contract of :meth:`serve`).
                flush = []
            else:
                solver_calls += len(flush)
                for index, result in zip(flush, results):
                    key, query = misses[index], concrete[index]
                    answers[key] = (result, query, "solver", None)
                    self._cache.put(("q", fingerprint, key[1]), (query, result), now)
        flushed = set(flush)
        for index, (key, query) in enumerate(zip(misses, concrete)):
            if index in flushed:
                continue
            try:
                result = self._engine.solve_direct(query)
                solver_calls += 1
                answers[key] = (result, query, "solver", None)
                self._cache.put(("q", fingerprint, key[1]), (query, result), now)
            except Exception as exc:
                answers[key] = (None, query, "solver", exc)
        return solver_calls

    def _answer_monitor(self, names, answers) -> int:
        """Answer the distinct monitor reads of one serve group with at most
        one shared monitor pass; returns the number of passes made."""
        if not names:
            return 0
        if self._monitor is None:
            error = ValueError("monitor read on a service without a monitor")
            for name in names:
                answers[("m", name)] = (None, None, "monitor", error)
            return 0
        now = self._clock()
        token = self._monitor.generation
        misses: List[Optional[str]] = []
        for name in names:
            cached = self._cache.get(("m", token, name), now)
            if cached is not MISSING:
                # ``cached`` may legitimately be None (a monitor over an
                # empty window): MISSING, not None, is the miss signal.
                answers[("m", name)] = (cached, None, "cache", None)
            else:
                misses.append(name)
        if not misses:
            return 0
        try:
            current = self._monitor.current()
        except Exception as exc:
            for name in misses:
                answers[("m", name)] = (None, None, "monitor", exc)
            return 0
        for name in misses:
            result: Optional[MaxRSResult] = None
            error: Optional[Exception] = None
            if isinstance(current, dict):
                if name is None and len(current) == 1:
                    result = next(iter(current.values()))
                elif name in current:
                    result = current[name]
                else:
                    error = KeyError(
                        "unknown standing query %r (registered: %s)"
                        % (name, ", ".join(sorted(current))))
            elif name is None:
                result = current
            else:
                error = KeyError(
                    "monitor answers a single hotspot query; got name %r" % (name,))
            answers[("m", name)] = (result, None, "monitor", error)
            if error is None:
                self._cache.put(("m", token, name), result, now)
        return 1
