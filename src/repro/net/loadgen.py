"""The open-loop load generator: replay a trace against a live server.

:meth:`~repro.service.MaxRSService.serve_trace` replays traces
*closed-loop*: each window waits for the previous one, so the
``ServiceRequest.arrival`` timestamps the generator emits are ignored and
queueing collapse is invisible -- an overloaded server just makes the
replay take longer.  This module replays them **open-loop**: request ``i``
is sent at ``arrival_i / speedup`` seconds after the run starts *whether or
not earlier requests have completed*.  Under overload the server's bounded
admission queue fills, requests shed (503), and client-observed latency
grows -- the signals the SLO suite gates on.

Mechanics:

* every request gets its own asyncio task, started at its scheduled time --
  in-flight requests never gate the next send, so offered load really is
  the trace's arrival process (this is what makes the replay open-loop; a
  fixed worker pool would cap in-flight requests at the pool size and an
  overloaded server would silently throttle the generator);
* connections come from a keep-alive pool of up to ``clients`` persistent
  HTTP/1.1 connections; when the pool is momentarily empty a task opens an
  ephemeral connection rather than wait (waiting would reintroduce the
  closed-loop cap), and returns it to the pool afterwards if there is room;
* latency is measured from the request's *scheduled* send time, not the
  actual send -- if the generator falls behind schedule the backlog counts
  (no coordinated omission);
* per-request outcomes are kept (:class:`LoadgenRecord`) and aggregated
  into a :class:`LoadgenReport` whose percentiles come from a
  :class:`repro.obs.Histogram` reservoir.

Traces carrying update requests are replayable, but concurrent delivery can
reorder them relative to reads; for differential comparisons against an
in-process replay use query-only traces (the SLO suite does).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..datasets.requests import ServiceRequest
from ..obs.metrics import Histogram
from .protocol import RemoteResponse, encode_request, response_from_dict

__all__ = ["LoadgenRecord", "LoadgenReport", "run_loadgen"]


@dataclass
class LoadgenRecord:
    """One replayed request's outcome.

    ``scheduled`` is the open-loop send time (seconds from run start, the
    request's arrival divided by the speedup); ``latency`` runs from that
    scheduled time to the response -- it includes any client-side backlog,
    so falling behind schedule is measured, not hidden.
    """

    index: int
    kind: str
    scheduled: float
    sent: float = 0.0
    completed: float = 0.0
    latency: float = 0.0
    status: int = 0
    response: Optional[RemoteResponse] = None

    @property
    def ok(self) -> bool:
        """Served without transport or per-response error."""
        return self.response is not None and self.response.ok

    @property
    def shed(self) -> bool:
        """Rejected by the server's admission queue (503)."""
        return self.status == 503


@dataclass
class LoadgenReport:
    """The aggregate outcome of one open-loop replay."""

    records: List[LoadgenRecord]
    elapsed: float
    speedup: float
    clients: int
    offered_rate: float      #: requests scheduled per second of replay
    latencies: Histogram = field(repr=False, default=None)

    @property
    def requests(self) -> int:
        """Requests replayed."""
        return len(self.records)

    @property
    def served(self) -> int:
        """Requests served without error."""
        return sum(1 for record in self.records if record.ok)

    @property
    def shed(self) -> int:
        """Requests the server shed (503)."""
        return sum(1 for record in self.records if record.shed)

    @property
    def errors(self) -> int:
        """Requests that failed for any non-shed reason."""
        return len(self.records) - self.served - self.shed

    @property
    def shed_rate(self) -> float:
        """Fraction of requests shed."""
        return self.shed / len(self.records) if self.records else 0.0

    @property
    def achieved_rate(self) -> float:
        """Requests completed (any outcome) per second of wall clock."""
        return len(self.records) / self.elapsed if self.elapsed > 0 else float("inf")

    def percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 (plus count/mean/min/max) of served-request latency,
        in seconds, from the obs histogram reservoir."""
        return self.latencies.snapshot()

    def summary(self) -> dict:
        """A JSON-ready digest (what ``repro loadgen`` prints/saves)."""
        latency = self.percentiles()
        return {
            "requests": self.requests,
            "served": self.served,
            "shed": self.shed,
            "errors": self.errors,
            "shed_rate": self.shed_rate,
            "elapsed": self.elapsed,
            "speedup": self.speedup,
            "clients": self.clients,
            "offered_rate": self.offered_rate,
            "achieved_rate": self.achieved_rate,
            "latency": latency,
        }


def run_loadgen(
    host: str,
    port: int,
    trace: Sequence[ServiceRequest],
    *,
    speedup: float = 1.0,
    clients: int = 8,
    timeout: float = 30.0,
) -> LoadgenReport:
    """Replay ``trace`` open-loop against a live :class:`MaxRSServer`.

    Parameters
    ----------
    host, port:
        The server's bound address.
    speedup:
        Rate multiplier over the trace's recorded arrivals: request ``i``
        is scheduled at ``arrival_i / speedup`` seconds into the run, so
        ``speedup=2`` offers the trace at twice its recorded rate.
    clients:
        Size of the keep-alive connection pool.  In-flight requests are
        *not* capped at this number -- a request whose turn comes while the
        pool is empty opens an ephemeral connection (open-loop offered load
        never throttles on connection availability).
    timeout:
        Per-request response deadline (a request that exceeds it is
        recorded as a transport error, status 0).
    """
    if speedup <= 0:
        raise ValueError("speedup must be positive")
    if clients < 1:
        raise ValueError("clients must be >= 1")
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    requests = list(trace)
    if not requests:
        raise ValueError("the trace must carry at least one request")
    return asyncio.run(_replay(host, port, requests, speedup=speedup,
                               clients=clients, timeout=timeout))


async def _replay(host: str, port: int, requests: List[ServiceRequest], *,
                  speedup: float, clients: int,
                  timeout: float) -> LoadgenReport:
    loop = asyncio.get_running_loop()
    records: List[LoadgenRecord] = []
    # Keep-alive pool: tasks borrow a (reader, writer) pair, or open an
    # ephemeral connection when the pool is momentarily dry.
    pool: "asyncio.Queue" = asyncio.Queue(maxsize=clients)
    started = loop.time()
    tasks = []
    for index, request in enumerate(requests):
        record = LoadgenRecord(index=index, kind=request.kind,
                               scheduled=request.arrival / speedup)
        records.append(record)
        tasks.append(asyncio.ensure_future(
            _fire(host, port, request, record, pool,
                  started=started, timeout=timeout)))
    await asyncio.gather(*tasks)
    elapsed = loop.time() - started
    while True:
        try:
            _, writer = pool.get_nowait()
        except asyncio.QueueEmpty:
            break
        await _close_connection(writer)
    latencies = Histogram("loadgen.latency")
    for record in records:
        if record.ok:
            latencies.observe(record.latency)
    horizon = max(request.arrival for request in requests) / speedup
    offered = len(records) / horizon if horizon > 0 else float("inf")
    return LoadgenReport(records=records, elapsed=elapsed, speedup=speedup,
                         clients=clients, offered_rate=offered,
                         latencies=latencies)


async def _fire(host: str, port: int, request: ServiceRequest,
                record: LoadgenRecord, pool: "asyncio.Queue", *,
                started: float, timeout: float) -> None:
    """Send one request at its scheduled time, whatever else is in flight."""
    loop = asyncio.get_running_loop()
    delay = (started + record.scheduled) - loop.time()
    if delay > 0:
        await asyncio.sleep(delay)
    record.sent = loop.time() - started
    reader = writer = None
    try:
        try:
            reader, writer = pool.get_nowait()
        except asyncio.QueueEmpty:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout)
        status, payload = await asyncio.wait_for(
            _exchange(reader, writer, host, request), timeout)
        record.status = status
        record.response = response_from_dict(payload, status=status)
        try:
            pool.put_nowait((reader, writer))
        except asyncio.QueueFull:
            await _close_connection(writer)
    except (ConnectionError, OSError, ValueError,
            asyncio.TimeoutError, asyncio.IncompleteReadError):
        record.status = 0
        if writer is not None:
            await _close_connection(writer)
    record.completed = loop.time() - started
    # Open-loop latency: from the *scheduled* send, so client-side backlog
    # counts against the server that caused it.
    record.latency = max(0.0, record.completed - record.scheduled)


async def _close_connection(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover
        pass


async def _exchange(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                    host: str, request: ServiceRequest):
    body = encode_request(request)
    head = ("POST /v1/request HTTP/1.1\r\n"
            "Host: %s\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: %d\r\n\r\n" % (host, len(body)))
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    parts = status_line.decode("latin-1").split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError("malformed status line %r" % status_line[:80])
    status = int(parts[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    payload = json.loads(await reader.readexactly(length)) if length else {}
    return status, payload
