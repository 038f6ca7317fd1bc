"""Answer checking: wrong answers count as failed, live reads match a
boundary they could have observed."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import report
import verify
from conftest import ok_payload
from loadgen import Client, Record, new_loop
from repro.exact import maxrs_disk_exact, maxrs_rectangle_exact


def test_a_wrong_answer_counts_in_failed_share(stub):
    rng = np.random.default_rng(0)
    dataset = [tuple(p) for p in rng.uniform(0.0, 5.0, size=(200, 2)).tolist()]
    queries = [{"shape": "rectangle", "exact": True, "width": w, "height": h}
               for w, h in rng.uniform(0.5, 2.0, size=(12, 2)).tolist()]

    def respond(index, request):
        query = dict(request["query"], backend="python")
        answer = maxrs_rectangle_exact(dataset, query["width"], query["height"],
                                       backend="python")
        value = answer.value + (1.0 if index == 7 else 0.0)
        payload = dict(ok_payload(index), served_query=query, result={
            "value": value, "center": list(answer.center)})
        return payload, 0.0

    server = stub(respond)
    client = Client("127.0.0.1", server.port, 2)
    requests = [{"kind": "query", "query": q} for q in queries]
    plan = [(0.005 * i, "read", r, json.dumps(r).encode())
            for i, r in enumerate(requests)]
    loop = new_loop()
    try:
        records = loop.run_until_complete(
            client.open_loop(plan, "open", time.monotonic() + 0.02))
        loop.run_until_complete(client.close())
    finally:
        loop.close()

    assert report.failed_share(records) == 0.0
    assert verify.check_static(records, dataset) == 1
    assert report.failed_share(records) == pytest.approx(1 / len(records))
    assert not records[7].ok


def _record(kind, sent, done, payload):
    record = Record(lane="write" if kind == "update" else "read",
                    request={"kind": kind}, phase="open", due=sent)
    record.sent, record.done, record.status, record.payload = sent, done, 200, payload
    return record


def test_live_reads_must_match_an_observable_boundary():
    rng = np.random.default_rng(1)
    base = [{"kind": "insert", "point": p, "weight": 1.0}
            for p in rng.uniform(0.0, 3.0, size=(40, 2)).tolist()]
    hotspot = [{"kind": "insert", "point": [1.0 + 0.01 * i, 1.0], "weight": 1.0}
               for i in range(6)]
    batches = [hotspot[:3], hotspot[3:], [{"kind": "delete", "target": 40,
                                          "weight": 1.0}]]
    replay = verify.LiveReplay(base, batches, radius=0.3)
    writes = [_record("update", 1.0 + i, 1.5 + i, ok_payload()) for i in range(3)]

    def read(sent, done, batches_applied):
        points = [tuple(p) for p in replay.points(batches_applied)]
        answer = maxrs_disk_exact(points, 0.3)
        return _record("monitor", sent, done, dict(ok_payload(), result={
            "value": answer.value, "center": list(answer.center),
            "meta": {"live": len(points)}}))

    # Sent after write 0 was answered, answered before write 1 was sent:
    # exactly one batch applied.
    good = read(1.6, 1.8, 1)
    # Straddles write 1 (sent 2.0, answered 2.5): one or two batches.
    straddle = read(1.9, 2.2, 2)
    # Claims the state after all three batches, yet was answered before the
    # third batch was even sent.
    stale = read(1.6, 1.9, 3)
    final = read(3.6, 3.7, 3)
    assert verify.check_live([good, straddle, stale, final], writes, replay) == 1
    assert good.ok and straddle.ok and final.ok
    assert not stale.ok
