"""Metrics at reference speed: each round is scaled by its own slowdown."""

from __future__ import annotations

import pytest

import report
from loadgen import Record
from conftest import ok_payload


def _phase(rate, index, start, latencies, duration=1.0):
    records = []
    for k, latency in enumerate(latencies):
        due = start + k * duration / len(latencies)
        record = Record(lane="read", request={"kind": "query"}, phase="p",
                        due=due, woke=due, sent=due)
        record.done, record.status, record.payload = due + latency, 200, ok_payload()
        records.append(record)
    return report.Phase("open@%g" % rate if rate else "peak", rate, duration,
                        records, index)


def _closed(index, start, latency, count=10):
    """A closed loop on one connection: each request sent as the last is
    answered."""
    phase = _phase(0.0, index, start, [latency] * count, duration=count * latency)
    for k, record in enumerate(phase.records):
        record.due = record.woke = record.sent = start + k * latency
        record.done = record.sent + latency
    return phase


def test_slowdown_averages_the_samples_around_an_interval():
    samples = [(0.95, 0, 0.004), (0.96, 1, 0.008), (2.05, 0, 0.006),
               (5.0, 0, 0.1)]
    assert report.slowdown(samples, 1.0, 2.0) == pytest.approx(1.5)
    assert report.slowdown([], 1.0, 2.0) == 1.0


def test_each_round_is_scaled_by_its_own_slowdown():
    # Round 0 ran at reference speed, round 1 twice as slow: the same work
    # took twice as long, and reads the same once scaled.
    phases = [_phase(10.0, 0, 0.0, [0.010] * 9), _phase(10.0, 1, 10.0, [0.020] * 9)]
    peaks = [_closed(0, 2.0, 0.01), _closed(1, 12.0, 0.02)]
    samples = [(t, 0, report.REFERENCE_S * factor)
               for t, factor in ((-0.05, 1.0), (3.05, 1.0), (9.95, 2.0), (13.1, 2.0))]
    slow = report.round_slowdowns(phases + peaks, samples)
    assert slow == {0: pytest.approx(1.0), 1: pytest.approx(2.0)}
    values = report.end_to_end(phases, peaks, [(0.4, 1.0), (0.8, 2.0), (0.4, 1.0)],
                               50.0, 15.0, 2, slow)
    assert values["p50_ms"] == pytest.approx(10.0)
    assert values["setup_s"] == pytest.approx(0.4)
    assert values["slo_rps"] == 10.0
    assert [report.closed_rate(p) for p in peaks] == pytest.approx([100.0, 50.0])
    assert values["peak_rps"] == pytest.approx(100.0)
