"""Tests for the network front end (repro.net).

Covers the wire codec (trace-schema requests, canonical result encodings,
per-response errors), the asyncio HTTP server end to end over a real socket
(routing, bad requests, keep-alive, stats, shedding under a full admission
queue, lifecycle), and the open-loop load generator (scheduled sends,
latency accounting, the bit-identical differential against an in-process
``serve_trace`` replay).
"""

import http.client
import json
import logging
import socket
import threading
import time

import pytest

from repro.core.result import MaxRSResult
from repro.datasets import (
    ServiceRequest,
    default_query_catalog,
    request_trace,
    uniform_points,
)
from repro.datasets.streams import UpdateEvent
from repro.engine import Query
from repro.net import (
    MaxRSServer,
    decode_request,
    encode_request,
    response_from_dict,
    response_to_dict,
    result_from_dict,
    result_to_dict,
    run_loadgen,
)
from repro.service import MaxRSService
from repro.service.requests import ServiceResponse

POINTS = uniform_points(200, seed=9)


# --------------------------------------------------------------------------- #
# protocol codec
# --------------------------------------------------------------------------- #

class TestProtocol:
    def test_request_round_trip_query(self):
        event = ServiceRequest(kind="query", arrival=1.25,
                               query=Query.rectangle(1.5, 2.0, backend="numpy"))
        decoded = decode_request(encode_request(event))
        assert decoded.kind == "query"
        assert decoded.arrival == event.arrival
        assert decoded.query == event.query

    def test_request_round_trip_update(self):
        event = ServiceRequest(kind="update", arrival=0.5, events=(
            UpdateEvent(kind="insert", point=(0.5, 0.25), weight=2.0),
            UpdateEvent(kind="delete", target=0)))
        decoded = decode_request(encode_request(event))
        assert decoded.kind == "update"
        assert decoded.events == event.events

    @pytest.mark.parametrize("body", [
        b"not json at all",
        b"[1, 2, 3]",
        b'"a string"',
        b'{"kind": "no-such-kind", "arrival": 0.0}',
        b'{"arrival": 0.0}',
        b'{"kind": "monitor", "name": ["x"]}',
        b'{"kind": "monitor", "name": 7}',
        b'{"kind": "monitor", "arrival": "soon"}',
        b'{"kind": "monitor", "arrival": NaN}',
        b'{"kind": "monitor", "arrival": -1.0}',
        b'{"kind": "monitor", "arrival": true}',
    ])
    def test_decode_rejects_malformed_bodies(self, body):
        with pytest.raises(ValueError):
            decode_request(body)

    def test_result_encoding_is_json_stable(self):
        # Tuples in meta must encode as lists: the differential gate
        # compares a JSON-round-tripped wire dict against a local encoding.
        result = MaxRSResult(value=3.0, center=(1.0, 2.0), shape="rect",
                             exact=True,
                             meta={"upper_right": (4.0, 5.0),
                                   "nested": {"pair": (1, 2)},
                                   "trail": [(0.0, 1.0), (2.0, 3.0)]})
        encoded = result_to_dict(result)
        assert encoded == json.loads(json.dumps(encoded))
        assert encoded["meta"]["upper_right"] == [4.0, 5.0]
        assert encoded["meta"]["nested"]["pair"] == [1, 2]
        assert encoded["meta"]["trail"] == [[0.0, 1.0], [2.0, 3.0]]

    def test_result_round_trip(self):
        result = MaxRSResult(value=2.5, center=(0.5, 0.5), shape="disk",
                             exact=False, meta={"radius": 1.0})
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.value == result.value
        assert rebuilt.center == result.center
        assert rebuilt.shape == result.shape
        assert rebuilt.exact is False

    def test_response_error_crosses_as_identity(self):
        response = ServiceResponse(
            request=None, result=None, served_from="error",
            error=ValueError("boom"))
        payload = response_to_dict(response)
        assert payload["ok"] is False
        assert payload["error"] == {"type": "ValueError", "message": "boom"}

    def test_remote_response_shed_flag(self):
        remote = response_from_dict({"ok": False, "served_from": "shed"},
                                    status=503)
        assert remote.shed is True
        assert remote.ok is False
        served = response_from_dict({"ok": True, "served_from": "solver"},
                                    status=200)
        assert served.shed is False
        assert served.ok is True


# --------------------------------------------------------------------------- #
# server end to end
# --------------------------------------------------------------------------- #

@pytest.fixture()
def live_server():
    service = MaxRSService(POINTS)
    server = MaxRSServer(service, max_pending=32)
    server.start_in_thread()
    try:
        yield server
    finally:
        server.stop()
        service.close()


def _post(server, path, body):
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=30)
    try:
        connection.request("POST", path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


def _get(server, path):
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


class TestServer:
    def test_serves_a_query_with_the_direct_answer(self, live_server):
        from repro.engine.planner import solve_query

        query = Query.rectangle(1.0, 1.0, backend="numpy")
        event = ServiceRequest(kind="query", arrival=0.0, query=query)
        status, payload = _post(live_server, "/v1/request",
                                encode_request(event))
        assert status == 200
        assert payload["ok"] is True
        expected = solve_query(query, POINTS, None, None)
        assert payload["result"] == result_to_dict(expected)

    def test_bad_body_is_a_400_not_a_service_call(self, live_server):
        status, payload = _post(live_server, "/v1/request", b"junk{")
        assert status == 400
        assert payload["error"]["type"] == "ValueError"
        metrics = live_server.snapshot()["server"]["metrics"]
        assert metrics["net.decode_errors"]["value"] == 1

    def test_malformed_name_is_a_400_not_a_failed_window(self, live_server):
        # An unhashable name must be refused at decoding: past it,
        # coalescing would fail the whole serving window with a 500.
        status, payload = _post(live_server, "/v1/request",
                                b'{"kind": "monitor", "name": ["x"]}')
        assert status == 400
        assert payload["error"]["type"] == "ValueError"
        metrics = live_server.snapshot()["server"]["metrics"]
        assert metrics["net.decode_errors"]["value"] == 1
        assert metrics.get("net.admitted", {"value": 0})["value"] == 0

    def test_unknown_path_404_and_wrong_method_405(self, live_server):
        status, _ = _get(live_server, "/v1/nope")
        assert status == 404
        status, _ = _get(live_server, "/v1/request")
        assert status == 405

    def test_healthz_and_stats(self, live_server):
        status, payload = _get(live_server, "/v1/healthz")
        assert (status, payload) == (200, {"ok": True})
        status, payload = _get(live_server, "/v1/stats")
        assert status == 200
        assert payload["server"]["max_pending"] == 32
        assert "service" in payload

    def test_keep_alive_serves_many_requests_per_connection(self, live_server):
        query = Query.rectangle(1.0, 1.0, backend="numpy")
        event = ServiceRequest(kind="query", arrival=0.0, query=query)
        connection = http.client.HTTPConnection(live_server.host,
                                                live_server.port, timeout=30)
        try:
            answers = []
            for _ in range(3):
                connection.request("POST", "/v1/request",
                                   body=encode_request(event))
                response = connection.getresponse()
                answers.append((response.status,
                                json.loads(response.read())["result"]))
            assert [status for status, _ in answers] == [200, 200, 200]
            assert answers[0][1] == answers[1][1] == answers[2][1]
        finally:
            connection.close()
        # The request counter increments after the response is flushed, so
        # give the server's accounting a moment to catch up.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            metrics = live_server.snapshot()["server"]["metrics"]
            if metrics["net.requests"]["value"] >= 3:
                break
            time.sleep(0.01)
        assert metrics["net.requests"]["value"] >= 3
        assert metrics["net.connections"]["value"] >= 1

    def test_start_in_thread_twice_raises(self, live_server):
        with pytest.raises(RuntimeError):
            live_server.start_in_thread()

    @pytest.mark.parametrize("client_state", ["idle", "mid-body"])
    def test_stop_closes_a_kept_alive_connection(self, client_state, caplog):
        """A client idle between requests, or stalled mid-request, must not
        hold shutdown open, and closing its connection must not log an
        asyncio error."""
        service = MaxRSService(POINTS)
        server = MaxRSServer(service, max_pending=8)
        server.start_in_thread()
        client = socket.create_connection((server.host, server.port),
                                          timeout=30)
        try:
            if client_state == "idle":
                client.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
                assert client.recv(65536).startswith(b"HTTP/1.1 200")
            else:
                client.sendall(b"POST /v1/request HTTP/1.1\r\n"
                               b"Content-Length: 10\r\n\r\n")
                time.sleep(0.2)  # let the server start waiting for the body
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                started = time.monotonic()
                server.stop()
                elapsed = time.monotonic() - started
            assert elapsed < 5.0
            assert not server._thread.is_alive()
            assert not [record for record in caplog.records
                        if record.name == "asyncio"
                        and record.levelno >= logging.ERROR]
        finally:
            client.close()
            server.stop()
            service.close()

    def test_stop_raises_while_the_server_thread_runs_on(self, monkeypatch):
        """stop() reports a stop that did not happen: with a serve() window
        that has not returned, the join times out and stop() raises; once
        the window returns, stop() completes and the thread is gone."""
        from repro.net import server as server_module

        service = MaxRSService(POINTS)
        entered, release = threading.Event(), threading.Event()
        serve = service.serve

        def blocked_serve(requests):
            entered.set()
            release.wait(30)
            return serve(requests)

        monkeypatch.setattr(service, "serve", blocked_serve)
        server = MaxRSServer(service, max_pending=8)
        server.start_in_thread()
        event = ServiceRequest(kind="query", arrival=0.0,
                               query=Query.rectangle(1.0, 1.0))
        body = encode_request(event)
        client = socket.create_connection((server.host, server.port),
                                          timeout=30)
        try:
            client.sendall(b"POST /v1/request HTTP/1.1\r\nContent-Length: %d"
                           b"\r\n\r\n%s" % (len(body), body))
            assert entered.wait(30)
            monkeypatch.setattr(server_module, "_STOP_TIMEOUT_S", 0.2)
            with pytest.raises(RuntimeError, match="did not stop"):
                server.stop()
            assert server._thread.is_alive()
            release.set()
            server.stop()
            assert not server._thread.is_alive()
            assert client.recv(65536).startswith(b"HTTP/1.1 200")
        finally:
            release.set()
            client.close()
            server.stop()
            service.close()

    def test_stop_is_idempotent_and_connections_then_fail(self):
        service = MaxRSService(POINTS)
        server = MaxRSServer(service, max_pending=8)
        server.start_in_thread()
        host, port = server.host, server.port
        server.stop()
        server.stop()  # second stop is a no-op
        service.close()
        with pytest.raises(OSError):
            connection = http.client.HTTPConnection(host, port, timeout=2)
            try:
                connection.request("GET", "/v1/healthz")
                connection.getresponse()
            finally:
                connection.close()


# --------------------------------------------------------------------------- #
# open-loop loadgen
# --------------------------------------------------------------------------- #

def _steady_trace(n=60, rate=200.0, seed=7):
    # No flash crowd: request_trace's default hotspot would land all 60
    # requests in ~30 ms, a burst that can fill the live server's queue.
    catalog = default_query_catalog(backend="numpy", heavy=False)
    return list(request_trace(n, catalog=catalog, monitor_fraction=0.0,
                              update_every=0, rate=rate, seed=seed,
                              hotspot_every=0))


class TestLoadgen:
    def test_replay_serves_everything_and_measures_latency(self, live_server):
        events = _steady_trace()
        report = run_loadgen(live_server.host, live_server.port, events,
                             speedup=1.0, clients=4)
        assert report.requests == len(events)
        assert report.served == len(events)
        assert report.shed == 0 and report.errors == 0
        latency = report.percentiles()
        assert latency["count"] == len(events)
        assert 0.0 <= latency["p50"] <= latency["p95"] <= latency["p99"]
        assert report.offered_rate > 0 and report.achieved_rate > 0
        # every record measured from its scheduled send
        assert all(record.latency >= 0.0 for record in report.records)
        assert all(record.completed >= record.sent for record in report.records)

    def test_wire_answers_bit_identical_to_serve_trace(self, live_server):
        events = _steady_trace()
        with MaxRSService(POINTS) as reference_service:
            replay = reference_service.serve_trace(events)
        expected = [None if response.result is None
                    else result_to_dict(response.result)
                    for response in replay.responses]
        report = run_loadgen(live_server.host, live_server.port, events,
                             speedup=1.0, clients=4)
        for record, reference in zip(report.records, expected):
            assert record.response is not None
            assert record.response.result == reference

    def test_overload_sheds_and_queue_stays_bounded(self):
        catalog = [Query.rectangle(1.0 + 0.01 * index, 1.0, backend="python")
                   for index in range(20)]
        events = list(request_trace(80, catalog=catalog, monitor_fraction=0.0,
                                    update_every=0, rate=100.0, seed=5))
        service = MaxRSService(uniform_points(1500, seed=4))
        server = MaxRSServer(service, max_pending=4, max_batch=2)
        server.start_in_thread()
        try:
            report = run_loadgen(server.host, server.port, events,
                                 speedup=20.0, clients=4, timeout=60.0)
            depth = server.snapshot()["server"]["max_queue_depth"]
        finally:
            server.stop()
            service.close()
        assert report.shed > 0
        assert report.errors == 0
        assert depth <= 4
        assert report.served + report.shed == report.requests
        # shed responses are identifiable per record
        assert all(record.status == 503 for record in report.records
                   if record.shed)

    def test_loadgen_rejects_bad_parameters(self):
        events = _steady_trace(n=2)
        with pytest.raises(ValueError):
            run_loadgen("127.0.0.1", 1, events, speedup=0.0)
        with pytest.raises(ValueError):
            run_loadgen("127.0.0.1", 1, events, clients=0)
        with pytest.raises(ValueError):
            run_loadgen("127.0.0.1", 1, events, timeout=0.0)
        with pytest.raises(ValueError):
            run_loadgen("127.0.0.1", 1, [])

    def test_report_summary_is_json_ready(self, live_server):
        events = _steady_trace(n=10)
        report = run_loadgen(live_server.host, live_server.port, events,
                             speedup=2.0, clients=2)
        summary = report.summary()
        assert summary == json.loads(json.dumps(summary))
        assert summary["requests"] == 10
        assert summary["speedup"] == 2.0
        assert "latency" in summary
