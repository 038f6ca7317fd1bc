"""The benchmark's load generator: one process, one asyncio thread, and a
fixed set of keep-alive HTTP/1.1 connections (at most ``nproc``).

Requests travel in *lanes*.  Each lane is bound to a group of connections
that drain one FIFO: the ``write`` lane of ``live_hotspots`` gets a single
connection, so its update batches reach the server in order, one at a time;
the ``read`` lane gets the others.  With one connection, both lanes share it
and its FIFO, which keeps the writes in order as well.

Two phase kinds:

* :meth:`Client.open_loop` -- requests become due on a precomputed schedule
  whether or not earlier ones finished.  A due request that finds every
  connection of its lane busy waits in the client; its latency still runs
  from the due time, so a server stall shows in every request queued behind
  it.  Each record keeps the timer's lateness (``lag``) and the wait for a
  connection (``conn_wait``).
* :meth:`Client.closed_loop` -- every connection sends its lane's next
  request as soon as the previous answer arrives, until a fixed number
  has been sent (peak throughput).

Nothing here opens a connection beyond the fixed set: a connection that
fails is closed before its replacement is opened.
"""

from __future__ import annotations

import asyncio
import json
import selectors
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The least time (s) to the next due request for an idle call to be made.
IDLE_GAP_S = 0.03

_HEAD = ("POST /v1/request HTTP/1.1\r\nHost: bench\r\n"
         "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n")


@dataclass
class Record:
    """One request's outcome.  Times are ``time.monotonic()`` seconds, the
    clock the server process shares, so they join with server-side spans."""

    lane: str
    request: dict
    phase: str
    due: float
    woke: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: Optional[dict] = None
    error: Optional[str] = None
    #: Set by verification: the answer disagreed with the reference.
    wrong: bool = False

    @property
    def kind(self) -> str:
        """The request kind: ``query``, ``monitor`` or ``update``."""
        return self.request["kind"]

    @property
    def latency(self) -> float:
        """Seconds from the due time to the response."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator's timer fired."""
        return self.woke - self.due

    @property
    def conn_wait(self) -> float:
        """Seconds from the due time until the request was on the wire."""
        return self.sent - self.due

    @property
    def ok(self) -> bool:
        """Answered 200 with ``ok`` set, in time, and not found wrong."""
        return (self.status == 200 and self.payload is not None
                and bool(self.payload.get("ok")) and not self.wrong)


class Connection:
    """One keep-alive HTTP/1.1 connection, reopened after a failure."""

    def __init__(self, client: "Client"):
        self._client = client
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def exchange(self, body: bytes) -> Tuple[int, dict]:
        """POST one request body and return ``(status, payload)``."""
        if self._writer is None:
            await self._open()
        self._writer.write((_HEAD % len(body)).encode("latin-1") + body)
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = await self._reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self._reader.readexactly(length) if length else b"{}"
        return status, json.loads(body)

    async def _open(self) -> None:
        client = self._client
        self._reader, self._writer = await asyncio.open_connection(
            client.host, client.port)
        client.open_now += 1
        client.max_open = max(client.max_open, client.open_now)

    async def close(self) -> None:
        """Close the socket (the next :meth:`exchange` reopens it)."""
        writer, self._writer, self._reader = self._writer, None, None
        if writer is None:
            return
        self._client.open_now -= 1
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


class Client:
    """A fixed pool of ``connections`` keep-alive connections split into
    lane groups: with two or more, the ``write`` lane gets connection 0 and
    every other lane the rest; with one, all lanes share it."""

    def __init__(self, host: str, port: int, connections: int, *,
                 timeout: float = 10.0):
        if connections < 1:
            raise ValueError("connections must be >= 1")
        self.host, self.port, self.timeout = host, port, timeout
        self.open_now = self.max_open = 0
        self.connections = [Connection(self) for _ in range(connections)]
        #: Requests due (or sent) and not yet answered.
        self.outstanding = 0
        self._idle: Optional[Callable[[], None]] = None
        self._next_due = float("-inf")

    def _groups(self, lanes: Sequence[str]) -> Dict[str, List[Connection]]:
        if len(self.connections) == 1 or "write" not in lanes:
            return {lane: self.connections for lane in lanes}
        return {lane: (self.connections[:1] if lane == "write"
                       else self.connections[1:]) for lane in lanes}

    async def _send(self, connection: Connection, body: bytes,
                    record: Record) -> None:
        record.sent = time.monotonic()
        try:
            record.status, record.payload = await asyncio.wait_for(
                connection.exchange(body), self.timeout)
        except (OSError, ValueError, IndexError, EOFError,
                asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
            record.error = "%s: %s" % (type(exc).__name__, exc)
            await connection.close()
        record.done = time.monotonic()
        self.outstanding -= 1
        if (self._idle is not None and not self.outstanding
                and self._next_due - record.done > IDLE_GAP_S):
            self._idle()

    async def open_loop(self, schedule: Sequence[Tuple[float, str, dict, bytes]],
                        phase: str, start: float,
                        idle: Optional[Callable[[], None]] = None) -> List[Record]:
        """Fire ``(offset, lane, request, body)`` entries at ``start + offset``.

        Returns one record per request, in schedule order, after every
        request has been answered or has timed out.  ``idle`` is called
        whenever the last outstanding request is answered and the next one
        is due more than ``IDLE_GAP_S`` later: it may block for a while.
        """
        groups = self._groups(sorted({lane for _, lane, _, _ in schedule}))
        queues: Dict[int, Tuple[asyncio.Queue, int]] = {}
        lane_queue = {}
        workers = []
        for lane, connections in groups.items():
            key = id(connections[0])
            if key not in queues:
                queue: asyncio.Queue = asyncio.Queue()
                queues[key] = (queue, len(connections))
                workers += [asyncio.ensure_future(self._drain(c, queue))
                            for c in connections]
            lane_queue[lane] = queues[key][0]
        records: List[Record] = []
        self._idle = idle
        try:
            for offset, lane, request, body in schedule:
                due = self._next_due = start + offset
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                record = Record(lane=lane, request=request, phase=phase, due=due,
                                woke=time.monotonic())
                records.append(record)
                self.outstanding += 1
                lane_queue[lane].put_nowait((body, record))
        finally:
            self._idle, self._next_due = None, float("-inf")
        for queue, drainers in queues.values():
            for _ in range(drainers):
                queue.put_nowait(None)
        await asyncio.gather(*workers)
        return records

    async def _drain(self, connection: Connection, queue: asyncio.Queue) -> None:
        while True:
            item = await queue.get()
            if item is None:  # queued after the last request: FIFO drains first
                return
            body, record = item
            await self._send(connection, body, record)

    async def closed_loop(self, sources: Dict[str, Callable[[], Tuple[dict, bytes]]],
                          phase: str, count: int) -> List[Record]:
        """Keep every connection busy until ``count`` requests have been
        sent: each sends its lane's next ``(request, body)`` as soon as its
        previous answer is in.
        """
        records: List[Record] = []
        groups = self._groups(sorted(sources))
        lanes = {}
        for lane, connections in groups.items():
            for connection in connections:
                lanes.setdefault(id(connection), (connection, []))[1].append(lane)

        async def drive(connection: Connection, lane_names: List[str]) -> None:
            turn = 0
            while len(records) < count:
                lane = lane_names[turn % len(lane_names)]
                turn += 1
                request, body = sources[lane]()
                now = time.monotonic()
                record = Record(lane=lane, request=request, phase=phase,
                                due=now, woke=now)
                records.append(record)
                self.outstanding += 1
                await self._send(connection, body, record)

        await asyncio.gather(*(drive(c, names) for c, names in lanes.values()))
        return records

    async def close(self) -> None:
        """Close every connection."""
        for connection in self.connections:
            await connection.close()


def new_loop() -> asyncio.AbstractEventLoop:
    """An event loop whose timer waits are not rounded up to milliseconds.

    The default epoll selector rounds its timeout up to whole milliseconds:
    on an idle 2-vCPU VM its timers fired 0.65 ms late at the median and
    1.5 ms at p90 -- as much as the latency being measured on
    ``hot_reads``.  ``select()`` takes microsecond timeouts (0.17 ms late at
    the median there), and the generator watches only a few sockets.
    """
    return asyncio.SelectorEventLoop(selectors.SelectSelector())
