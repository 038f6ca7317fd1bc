"""The asyncio HTTP front end over :class:`~repro.service.MaxRSService`.

:class:`MaxRSServer` bridges the event loop to the synchronous serving
core, and owns the only request queue on the path:

1. **accept** -- each connection is one asyncio task speaking minimal
   HTTP/1.1 (keep-alive, ``Content-Length`` framing; no chunked encoding,
   no TLS -- this is a serving-experiment harness, not an edge proxy);
2. **decode** -- ``POST /v1/request`` bodies are the trace-line schema
   (:func:`repro.net.protocol.decode_request`), and the decoded
   :class:`~repro.service.ServiceRequest` is admitted as it is; malformed
   bodies get a 400 without touching the service;
3. **admit or shed** -- decoded requests enter a **bounded** admission
   queue (``max_pending``).  A full queue answers 503 immediately -- the
   open-loop overload answer: the queue cannot grow without bound, clients
   learn to back off, and the shed rate is the saturation signal the SLO
   suite gates on;
4. **dispatch** -- one dispatcher task drains arrival windows of up to
   ``max_batch`` admitted requests and runs each window as one
   :meth:`~repro.service.MaxRSService.serve` call on a dedicated serving
   thread (``run_in_executor``), so the event loop never blocks on a solve
   and the service's micro-batching / coalescing / caching pipeline is hit
   exactly as in-process callers hit it;
5. **respond** -- per-request responses travel back on the waiting
   connection tasks (:func:`repro.net.protocol.response_to_dict`).

Every stage is traced (``net.accept``, ``net.request`` with
``net.decode`` / ``net.dispatch`` / ``net.respond`` children, and a
``net.flush`` trace per dispatched window that grafts the serving flush's
worker-side spans), and counters/histograms land in a per-server
:class:`~repro.obs.MetricsRegistry` exposed at ``GET /v1/stats``.

Routes::

    POST /v1/request   serve one request (200; 400 undecodable; 503 shed)
    GET  /v1/stats     server counters + service snapshot
    GET  /v1/healthz   liveness probe

The server runs on a background thread (:meth:`start_in_thread` /
:meth:`stop`), which is how ``repro serve --listen``, the tests and the SLO
bench suite all run it.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set, Tuple

from ..obs import tracing as obs
from ..obs.metrics import MetricsRegistry
from ..service.server import MaxRSService
from .protocol import decode_request, response_to_dict

__all__ = ["MaxRSServer"]

#: Seconds :meth:`MaxRSServer.stop` waits for the server thread to finish.
_STOP_TIMEOUT_S = 30.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: Header-section size cap: a request line or header block larger than this
#: is a protocol error, not traffic.
_MAX_HEADER_BYTES = 16384
#: Body size cap (one request record; generated update batches are ~KBs).
_MAX_BODY_BYTES = 4 * 1024 * 1024


class MaxRSServer:
    """Serve a :class:`~repro.service.MaxRSService` over HTTP/1.1.

    Parameters
    ----------
    service:
        The serving core; the server never closes it (the caller owns its
        lifecycle, matching how the CLI builds service and server apart).
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`address` once started).
    max_pending:
        Admission-queue bound: requests beyond this many admitted-but-not-
        yet-dispatched entries are shed with a 503.
    max_batch:
        Dispatch window size: the most admitted requests one
        :meth:`~repro.service.MaxRSService.serve` call answers.
    """

    def __init__(
        self,
        service: MaxRSService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_pending: int = 256,
        max_batch: int = 64,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._service = service
        self._host = host
        self._port = port
        self.max_pending = max_pending
        self.max_batch = max_batch
        self.metrics = MetricsRegistry()
        self.address: Optional[Tuple[str, int]] = None
        self.max_queue_depth = 0
        self._admission: Optional[asyncio.Queue] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._closing = False
        # Set once shutdown has answered every admitted request; from then
        # on a connection closes instead of reading another request.
        self._drained = False
        # Writers of the connections reading a request: waiting for one
        # between requests, or receiving one.  None holds an admitted
        # request.
        self._reading: Set[asyncio.StreamWriter] = set()
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._executor = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix="maxrs-net-serve")

    @property
    def host(self) -> str:
        """The bound host (falls back to the requested host before bind)."""
        return self.address[0] if self.address is not None else self._host

    @property
    def port(self) -> int:
        """The bound port (the real one once bound, even when 0 was asked)."""
        return self.address[1] if self.address is not None else self._port

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start_in_thread(self) -> "MaxRSServer":
        """Run the server on a background thread; returns once bound.

        The caller keeps its thread, reads :attr:`address`, and calls
        :meth:`stop` when done.
        """
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._thread_main,
                                        name="maxrs-net-server", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("server failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start_in_thread
            self._startup_error = exc
        finally:
            self._ready.set()

    def stop(self) -> None:
        """Stop accepting, drain admitted requests, and shut down.

        Idempotent; safe from any thread.  Requests already admitted are
        served before the dispatcher exits; requests arriving meanwhile are
        shed.  Every connection is then closed -- one awaiting an admitted
        request's answer once it has it -- so no client can hold shutdown
        open.

        Raises ``RuntimeError`` when the server thread still runs after
        :data:`_STOP_TIMEOUT_S` seconds (say, a ``serve()`` window that has
        not returned): the server has not stopped, and a later call waits
        for it again.
        """
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None and loop.is_running():
            loop.call_soon_threadsafe(stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=_STOP_TIMEOUT_S)
            if self._thread.is_alive():
                raise RuntimeError("server did not stop within %gs"
                                   % _STOP_TIMEOUT_S)
        self._executor.shutdown(wait=False)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._admission = asyncio.Queue(maxsize=self.max_pending)
        self._stop_event = asyncio.Event()
        dispatcher = asyncio.ensure_future(self._dispatch_loop())
        server = await asyncio.start_server(self._handle_connection,
                                            self._host, self._port)
        self.address = server.sockets[0].getsockname()[:2]
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            # Stop accepting, shed new requests on live connections, serve
            # what was already admitted, then close the connections still
            # reading a request (a request read from now on would only be
            # shed; one awaiting its answer gets it first, then closes), so
            # no client can hold shutdown open.  Then retire the dispatcher.
            self._closing = True
            server.close()
            await self._admission.join()
            self._drained = True
            for writer in list(self._reading):
                writer.close()
            await server.wait_closed()
            dispatcher.cancel()
            try:
                await dispatcher
            except asyncio.CancelledError:
                pass

    # ------------------------------------------------------------------ #
    # dispatch: bounded queue -> serving thread
    # ------------------------------------------------------------------ #

    async def _dispatch_loop(self) -> None:
        assert self._loop is not None and self._admission is not None
        while True:
            first = await self._admission.get()
            window = [first]
            while len(window) < self.max_batch:
                try:
                    window.append(self._admission.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._dispatch_window(window)

    async def _dispatch_window(self, window) -> None:
        requests = [request for request, _ in window]
        with obs.trace("net.flush", requests=len(requests)) as flush_span:
            traced = obs.tracing_active()

            def serve():
                # The serving thread cannot see this task's live trace;
                # capture there, graft here (the engine's worker idiom).
                if traced:
                    with obs.capture("net.serve") as captured:
                        responses = self._service.serve(requests)
                    return responses, captured.records
                return self._service.serve(requests), None

            try:
                responses, records = await self._loop.run_in_executor(
                    self._executor, serve)
            except Exception as exc:
                # serve() attaches errors per response; reaching here means
                # the service itself is unusable (e.g. closed underneath
                # us).  Fail the window's waiters, not the server.
                for _, future in window:
                    if not future.done():
                        future.set_exception(exc)
                    self._admission.task_done()
                return
            if records:
                flush_span.graft(records)
            self.metrics.counter("net.flushes").inc()
            self.metrics.histogram("net.flush_window").observe(float(len(window)))
        for (_, future), response in zip(window, responses):
            if not future.done():
                future.set_result(response)
            self._admission.task_done()

    # ------------------------------------------------------------------ #
    # accept / decode / respond
    # ------------------------------------------------------------------ #

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        self.metrics.counter("net.connections").inc()
        with obs.trace("net.accept", peer=str(peer)):
            pass
        try:
            while not self._drained:
                self._reading.add(writer)
                try:
                    parsed = await self._read_request(reader)
                finally:
                    self._reading.discard(writer)
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "").lower() != "close"
                started = self._loop.time()
                with obs.trace("net.request", method=method,
                               path=path) as request_span:
                    status, payload = await self._route(method, path, body)
                    with obs.span("net.respond"):
                        self._write_response(writer, status, payload,
                                             keep_alive=keep_alive)
                        await writer.drain()
                    request_span.tag(status=status)
                self.metrics.counter("net.requests").inc()
                self.metrics.histogram("net.handle_latency").observe(
                    self._loop.time() - started)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError):
            # A torn or misframed connection fails only itself.
            self.metrics.counter("net.connection_errors").inc()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One HTTP/1.1 request head + body, or ``None`` on clean EOF."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ValueError("malformed request line %r" % line[:80])
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        total = len(line)
        while True:
            header = await reader.readline()
            total += len(header)
            if total > _MAX_HEADER_BYTES:
                raise ValueError("header section too large")
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > _MAX_BODY_BYTES:
            raise ValueError("unacceptable content length %d" % length)
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        payload: dict, *, keep_alive: bool) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = ("HTTP/1.1 %d %s\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: %d\r\n"
                "Connection: %s\r\n\r\n"
                % (status, _REASONS.get(status, "Unknown"), len(body),
                   "keep-alive" if keep_alive else "close"))
        writer.write(head.encode("latin-1") + body)

    async def _route(self, method: str, path: str, body: bytes):
        if path == "/v1/request":
            if method != "POST":
                return 405, {"ok": False, "error": {
                    "type": "MethodNotAllowed",
                    "message": "use POST for /v1/request"}}
            return await self._serve_request(body)
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"ok": False, "error": {
                    "type": "MethodNotAllowed",
                    "message": "use GET for /v1/stats"}}
            return 200, self.snapshot()
        if path == "/v1/healthz":
            return 200, {"ok": True}
        return 404, {"ok": False, "error": {
            "type": "NotFound", "message": "unknown path %s" % path}}

    async def _serve_request(self, body: bytes):
        with obs.span("net.decode", bytes=len(body)):
            try:
                request = decode_request(body)
            except ValueError as exc:
                self.metrics.counter("net.decode_errors").inc()
                return 400, {"ok": False, "served_from": "error",
                             "error": {"type": "ValueError",
                                       "message": str(exc)}}
        if self._closing:
            return self._shed("server is shutting down")
        future = self._loop.create_future()
        try:
            self._admission.put_nowait((request, future))
        except asyncio.QueueFull:
            # The backpressure answer: the queue is the only buffer, and it
            # is full -- shed now rather than queue without bound.
            return self._shed("admission queue full (%d pending)"
                              % self.max_pending)
        depth = self._admission.qsize()
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self.metrics.counter("net.admitted").inc()
        with obs.span("net.dispatch", depth=depth):
            try:
                response = await future
            except Exception as exc:
                return 500, {"ok": False, "served_from": "error",
                             "error": {"type": type(exc).__name__,
                                       "message": str(exc)}}
        return 200, response_to_dict(response)

    def _shed(self, reason: str):
        self.metrics.counter("net.shed").inc()
        return 503, {"ok": False, "served_from": "shed", "shed": True,
                     "error": {"type": "Overloaded", "message": reason}}

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Server counters (requests, admissions, sheds, queue depths) plus
        the underlying service's snapshot -- the ``GET /v1/stats`` payload."""
        return {
            "server": {
                "address": list(self.address) if self.address else None,
                "max_pending": self.max_pending,
                "max_batch": self.max_batch,
                "max_queue_depth": self.max_queue_depth,
                "metrics": self.metrics.snapshot(),
            },
            "service": self._service.snapshot(),
        }
