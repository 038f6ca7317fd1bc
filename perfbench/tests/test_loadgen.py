"""The load generator against a stub server: stalls, connection cap, order."""

from __future__ import annotations

import json
import time

from conftest import ok_payload
from loadgen import Client, new_loop
from run import connection_count


def drive(client, coroutine):
    loop = new_loop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.run_until_complete(client.close())
        loop.close()


def schedule(count, gap, lane="read", kind="query"):
    entries = []
    for index in range(count):
        request = {"kind": kind, "seq": index}
        entries.append((index * gap, lane, request, json.dumps(request).encode()))
    return entries


def test_latency_includes_a_server_stall(stub):
    stall = 0.2
    server = stub(lambda index, request: (ok_payload(index),
                                          stall if request["seq"] == 5 else 0.0))
    client = Client("127.0.0.1", server.port, 2)
    start = time.monotonic() + 0.05
    records = drive(client, client.open_loop(schedule(40, 0.01), "open", start))

    stalled = next(entry for entry in server.log if entry[4]["seq"] == 5)
    stall_end = stalled[3]
    assert stall_end - stalled[2] >= stall
    queued = [r for r in records if stalled[2] < r.due < stall_end - 0.02]
    assert len(queued) >= 10
    for record in queued:
        # Measured from the due time: the wait behind the stall counts.
        assert record.latency >= stall_end - record.due - 0.005
        assert record.ok
    # The generator's own timer kept time while the server stalled.
    assert max(r.lag for r in records) < stall / 2


def test_idle_calls_only_in_gaps_with_nothing_outstanding(stub):
    server = stub()
    client = Client("127.0.0.1", server.port, 2)
    calls = []

    def idle():
        calls.append((time.monotonic(), client.outstanding))
        time.sleep(0.01)  # a reference sample blocks the loop this long

    start = time.monotonic() + 0.02
    records = drive(client, client.open_loop(schedule(20, 0.06), "open", start,
                                             idle=idle))
    assert len(calls) >= 10
    dues = sorted(r.due for r in records)
    for at, outstanding in calls:
        assert outstanding == 0
        upcoming = [due for due in dues if due > at]
        assert upcoming and upcoming[0] - at > 0.02
    # The blocking calls never made the generator's timers late.
    assert max(r.lag for r in records) < 0.005
    assert all(r.ok for r in records)


def test_never_more_than_nproc_connections(stub):
    server = stub()
    connections = connection_count()
    client = Client("127.0.0.1", server.port, connections)
    burst = schedule(60, 0.0)  # all due at once: every connection busy
    start = time.monotonic() + 0.02
    records = drive(client, client.open_loop(burst, "burst", start))
    assert all(r.ok for r in records)
    assert server.connections <= connections
    assert server.max_open <= connections
    assert client.max_open <= connections

    sources = {"read": lambda: ({"kind": "query"}, b'{"kind": "query"}')}
    server2 = stub()
    client2 = Client("127.0.0.1", server2.port, connections)
    drive(client2, client2.closed_loop(sources, "peak", 50))
    assert server2.connections <= connections


def test_update_batches_keep_their_order_on_one_connection(stub):
    server = stub(lambda index, request: (ok_payload(index),
                                          0.003 if request["kind"] == "monitor" else 0.0))
    client = Client("127.0.0.1", server.port, 2)
    writes = schedule(30, 0.004, lane="write", kind="update")
    reads = schedule(30, 0.004, lane="read", kind="monitor")
    merged = sorted(writes + reads, key=lambda entry: entry[0])
    start = time.monotonic() + 0.02
    drive(client, client.open_loop(merged, "open", start))

    def check(log):
        updates = [entry for entry in log if entry[4]["kind"] == "update"]
        assert [entry[4]["seq"] for entry in updates] == sorted(
            entry[4]["seq"] for entry in updates)
        assert len({entry[0] for entry in updates}) == 1
        for before, after in zip(updates, updates[1:]):
            assert after[2] >= before[3]  # one at a time: sent after the answer
        return updates

    assert len(check(server.log)) == 30

    counter = iter(range(10 ** 6))
    server2 = stub()
    client2 = Client("127.0.0.1", server2.port, 2)

    def next_write():
        request = {"kind": "update", "seq": next(counter)}
        return request, json.dumps(request).encode()

    sources = {"write": next_write,
               "read": lambda: ({"kind": "monitor"}, b'{"kind": "monitor", "seq": 0}')}
    records = drive(client2, client2.closed_loop(sources, "peak", 60))
    assert len(records) == 60
    assert len(check(server2.log)) > 10
