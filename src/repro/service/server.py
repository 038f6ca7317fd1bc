"""The concurrent query-serving front end.

:class:`MaxRSService` accepts a stream of heterogeneous MaxRS requests --
static queries against a fixed dataset, hotspot reads against a live stream
monitor, and monitor update batches -- and serves them through the serving
pipeline the rest of this package provides:

1. **window draining** -- requests accumulate (from concurrent submitters or
   a replayed trace) and are drained into flush windows of at most
   ``max_batch`` requests;
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

The front end runs in two modes sharing one serving core: a **threaded**
mode (:meth:`start` / :meth:`submit` / :meth:`close`) where a dispatcher
thread drains a queue fed by concurrent client threads, and a
**deterministic** mode (:meth:`serve` / :meth:`serve_trace`) where the
caller controls window formation -- what the benchmarks and differential
tests replay.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..core.result import MaxRSResult
from ..datasets.requests import RequestEvent, RequestTrace
from ..engine.executors import Executor
from ..engine.planner import Query, QueryEngine
from ..kernels import resolve_batch_backend
from ..obs import tracing as obs
from ..streaming.base import StreamMonitor
from .batcher import coalesce, form_groups
from .cache import MISSING, TTLCache
from .metrics import ServiceStats
from .requests import ServiceRequest, ServiceResponse

__all__ = ["MaxRSService", "PendingResponse", "TraceReport"]


class PendingResponse:
    """A future for one submitted request (threaded mode)."""

    __slots__ = ("request", "submitted", "_event", "_response")

    def __init__(self, request: ServiceRequest, submitted: float):
        self.request = request
        self.submitted = submitted
        self._event = threading.Event()
        self._response: Optional[ServiceResponse] = None

    def _resolve(self, response: ServiceResponse) -> None:
        self._response = response
        self._event.set()

    def done(self) -> bool:
        """Whether the response is ready."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ServiceResponse:
        """Block until the response is ready and return it."""
        if not self._event.wait(timeout):
            raise TimeoutError("request was not served within %r s" % (timeout,))
        return self._response


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
        over it (with the engine's own cache disabled -- the service's TTL
        cache is the single caching layer).  Alternatively pass a
        ready-made ``engine``.
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
        The TTL'd result cache (seconds / entries).
    max_batch:
        Flush window size: how many queued requests one dispatch drains.
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
        max_batch: int = 64,
        executor: Union[str, Executor, None] = None,
        workers: Optional[int] = None,
        clock=time.perf_counter,
    ):
        if routing not in ("direct", "sharded", "auto"):
            raise ValueError(
                "routing must be 'direct', 'sharded' or 'auto', got %r" % (routing,))
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if engine is not None and points is not None:
            raise ValueError("pass either points or a ready-made engine, not both")
        self._owns_engine = False
        if engine is None and points is not None:
            engine = QueryEngine(points, weights=weights, colors=colors,
                                 executor=executor, workers=workers, cache_size=0)
            self._owns_engine = True
        if engine is None and monitor is None:
            raise ValueError("MaxRSService needs a dataset, an engine or a monitor")
        self._engine = engine
        self._monitor = monitor
        self.routing = routing
        self.max_batch = max_batch
        self._cache = TTLCache(maxsize=cache_size, ttl=cache_ttl)
        self._clock = clock
        self.stats = ServiceStats()
        self._lock = threading.RLock()
        self._stream_position = 0
        self._batch_counter = 0
        self._queue: "queue.Queue[PendingResponse]" = queue.Queue()
        self._dispatcher: Optional[threading.Thread] = None
        self._stop = threading.Event()
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
        """Stop the dispatcher (serving what is already queued) and shut
        down the engine the service owns.  Idempotent; afterwards
        :meth:`submit`, :meth:`serve` and :meth:`start` raise
        :class:`RuntimeError` -- the engine's shared-memory store may
        already be released, so silently respawning the dispatcher over it
        would serve corrupt answers.
        """
        with self._lock:
            # The closed flag and the dispatcher handoff flip under _lock so
            # a concurrent submit() either enqueues before the flag is set
            # (and is drained below) or raises RuntimeError -- never lands
            # in a queue nobody will ever drain.
            if self._closed:
                return
            self._closed = True
            dispatcher = self._dispatcher
            self._dispatcher = None
            if dispatcher is not None:
                self._stop.set()
        if dispatcher is not None:
            # Join *outside* the lock: the dispatcher takes _lock inside
            # _serve_window, so holding it across the join would deadlock.
            dispatcher.join()
            self._drain_queue()
        if self._owns_engine and self._engine is not None:
            self._engine.close()

    def _ensure_open(self, what: str) -> None:
        if self._closed:
            raise RuntimeError(
                "MaxRSService is closed; %s() after close() is a bug in the "
                "caller (the owned engine's resources are already released)"
                % what)

    # ------------------------------------------------------------------ #
    # threaded front end
    # ------------------------------------------------------------------ #

    def start(self) -> "MaxRSService":
        """Start the dispatcher thread (idempotent; :meth:`submit` does this
        on first use).  Raises :class:`RuntimeError` after :meth:`close`."""
        with self._lock:  # concurrent first submits must not spawn two dispatchers
            self._ensure_open("start")
            if self._dispatcher is None:
                self._stop.clear()
                self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                                    name="maxrs-service-dispatcher",
                                                    daemon=True)
                self._dispatcher.start()
        return self

    def submit(self, request: ServiceRequest) -> PendingResponse:
        """Enqueue one request; returns a future whose ``result()`` blocks
        until the dispatcher has served the flush containing it.  Raises
        :class:`RuntimeError` after :meth:`close`."""
        pending = PendingResponse(request, self._clock())
        with self._lock:
            # Check-then-enqueue must be atomic w.r.t. close(): once close()
            # sets the flag the queue is never drained again, so an entry
            # slipped in after the check would block its waiter forever.
            self._ensure_open("submit")
            self.start()
            self._queue.put(pending)
        return pending

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=0.02)
            except queue.Empty:
                continue
            self._serve_window_guarded(self._drain_window(first))
        # Serve whatever arrived before the stop flag was seen.
        self._drain_queue()

    def _drain_window(self, first: PendingResponse) -> List[PendingResponse]:
        window = [first]
        while len(window) < self.max_batch:
            try:
                window.append(self._queue.get_nowait())
            except queue.Empty:
                break
        return window

    def _drain_queue(self) -> None:
        while True:
            try:
                first = self._queue.get_nowait()
            except queue.Empty:
                return
            self._serve_window_guarded(self._drain_window(first))

    def _serve_window_guarded(self, entries: List[PendingResponse]) -> None:
        """Serve one window, resolving every entry even if the serving core
        itself raises.

        :meth:`_serve_window` attaches per-request errors and should never
        raise, but a bug escaping it must not kill the dispatcher thread:
        before this guard, one such exception left every in-flight
        ``PendingResponse.result()`` blocking forever (and the queue growing
        unboundedly behind a dead dispatcher).
        """
        try:
            self._serve_window(entries)
        except Exception as exc:
            for entry in entries:
                if not entry.done():
                    entry._resolve(ServiceResponse(
                        request=entry.request, result=None,
                        served_from="error", batch_size=len(entries),
                        error=exc))

    # ------------------------------------------------------------------ #
    # deterministic front end
    # ------------------------------------------------------------------ #

    def request(self, request: ServiceRequest) -> ServiceResponse:
        """Serve one request synchronously; raises its error, if any."""
        response = self.serve([request])[0]
        if response.error is not None:
            raise response.error
        return response

    def serve(self, requests: Sequence[ServiceRequest]) -> List[ServiceResponse]:
        """Serve one caller-formed window synchronously, in order.

        Errors are attached per response (``response.error``), never raised:
        one malformed request must not fail the flush that carries it.
        Raises :class:`RuntimeError` after :meth:`close`.
        """
        self._ensure_open("serve")
        now = self._clock()
        return self._serve_window([PendingResponse(r, now) for r in requests])

    def serve_trace(
        self,
        trace: Union[RequestTrace, Sequence[RequestEvent], Sequence[ServiceRequest]],
        *,
        window: Optional[int] = None,
    ) -> TraceReport:
        """Replay a request trace through the serving pipeline.

        The trace is walked in order and flushed in windows of up to
        ``window`` requests (default ``max_batch``) -- the deterministic
        stand-in for concurrent arrival: requests in one window are "in
        flight together" and eligible for coalescing and shared passes,
        while update barriers inside a window still apply in order.
        """
        size = self.max_batch if window is None else window
        if size < 1:
            raise ValueError("window must be >= 1")
        responses: List[ServiceResponse] = []
        batch: List[ServiceRequest] = []
        started = self._clock()
        for event in trace:
            batch.append(ServiceRequest.from_trace(event)
                         if isinstance(event, RequestEvent) else event)
            if len(batch) >= size:
                responses.extend(self.serve(batch))
                batch = []
        if batch:
            responses.extend(self.serve(batch))
        return TraceReport(responses=responses, elapsed=self._clock() - started)

    # ------------------------------------------------------------------ #
    # the serving core
    # ------------------------------------------------------------------ #

    def _serve_window(self, entries: List[PendingResponse]) -> List[ServiceResponse]:
        with self._lock:
            self._batch_counter += 1
            batch_id = self._batch_counter
            flush_started = self._clock()
            window = [entry.request for entry in entries]
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
            for entry, response in zip(entries, responses):
                response.queue_wait = max(0.0, flush_started - entry.submitted)
                response.latency = max(0.0, done - entry.submitted)
                self.stats.record(response)
                entry._resolve(response)
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
                    "auto", len(self._engine), len(misses)))
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
