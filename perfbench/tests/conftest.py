"""Fixtures for the benchmark's own tests: import paths and a stub server.

Run them from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, List, Tuple

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


class StubServer:
    """A keep-alive HTTP/1.1 server on its own thread and event loop.

    ``respond(index, request) -> (payload, stall)`` answers the ``index``-th
    request; a positive ``stall`` blocks the stub's whole event loop for that
    many seconds first, the way a solve holding the interpreter lock stalls a
    real server.  Every request is logged as ``(connection, index, arrived,
    answered, request)``.
    """

    def __init__(self, respond: Callable[[int, dict], Tuple[dict, float]]):
        self.respond = respond
        self.log: List[list] = []
        self.connections = 0
        self.open = 0
        self.max_open = 0
        self.port = 0
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)

    def __enter__(self) -> "StubServer":
        self._thread.start()
        assert self._ready.wait(10.0)
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10.0)
        assert not self._thread.is_alive()

    def _main(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        await self._stop.wait()
        server.close()
        await server.wait_closed()

    async def _handle(self, reader, writer) -> None:
        connection = self.connections
        self.connections += 1
        self.open += 1
        self.max_open = max(self.max_open, self.open)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                length = 0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b""):
                        break
                    name, _, value = header.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                request = json.loads(await reader.readexactly(length))
                entry = [connection, len(self.log), time.monotonic(), 0.0, request]
                self.log.append(entry)
                payload, stall = self.respond(entry[1], request)
                if stall:
                    time.sleep(stall)
                body = json.dumps(payload).encode()
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"
                             % len(body) + body)
                entry[3] = time.monotonic()
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self.open -= 1
            writer.close()


def ok_payload(batch_id: int = 1) -> dict:
    return {"ok": True, "served_from": "solver", "batch_size": 1,
            "batch_id": batch_id, "result": None, "served_query": None}


@pytest.fixture
def stub():
    """A factory: ``stub(respond)`` gives a started :class:`StubServer`."""
    servers = []

    def start(respond=lambda index, request: (ok_payload(index), 0.0)):
        server = StubServer(respond).__enter__()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.__exit__()
