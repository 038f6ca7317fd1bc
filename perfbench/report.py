"""Turn one run's records, server counters and spans into named metrics.

``END_TO_END`` and ``PER_LAYER`` are the metric tables ``BENCHMARK.json``
lists (``tests/test_contract.py`` keeps the two in step).  Each per-layer
row also names the end-to-end metric it should move and the workloads where
it is heavy or should stay flat -- the predictions a change to that layer
is judged against.

End-to-end times and rates are given at the reference host speed
(:data:`REFERENCE_S`): each round's figures are scaled by the slowdown the
reference samples measured around it (see ``run.py``).  Per-layer metrics
are raw, except ``trace.overhead``, a ratio of two scaled medians.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from loadgen import Record


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""
    heavy_on: str = ""
    flat_on: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("p50_ms", "ms", "lower"),
    Metric("p90_ms", "ms", "lower"),
    Metric("slo_rps", "req/s", "higher"),
    Metric("peak_rps", "req/s", "higher"),
    Metric("server_rss_mb", "MB", "lower"),
)

_ALL = "all"
PER_LAYER = (
    Metric("client.lag_ms.p90", "ms", "lower", "validity of every number", _ALL,
           "must stay near 0 everywhere"),
    Metric("client.conn_wait_ms.p90", "ms", "lower", "p90_ms, slo_rps", _ALL),
    Metric("client.write_p50_ms", "ms", "lower", "live_hotspots update latency",
           "live_hotspots", "0 on the read-only workloads"),
    Metric("client.failed_share", "ratio", "lower", "every metric", _ALL,
           "0 everywhere"),
    Metric("net.outside_serve_ms.p50", "ms", "lower", "p50_ms", "hot_reads",
           "small share of p50 on cold_placements"),
    Metric("net.decode_ms.p50", "ms", "lower", "p50_ms", "hot_reads"),
    Metric("net.encode_ms.p50", "ms", "lower", "p50_ms", "hot_reads"),
    Metric("net.window.mean", "requests", "higher", "peak_rps", "hot_reads"),
    Metric("net.shed", "count", "lower", "failed share", _ALL, "0 everywhere"),
    Metric("net.conn_errors", "count", "lower", "failed share", _ALL,
           "0 everywhere"),
    Metric("server.cpu_ms_per_req", "ms", "lower", "peak_rps", _ALL),
    Metric("service.serve_ms.p50", "ms", "lower", "p50_ms", _ALL),
    Metric("service.serve_ms.p90", "ms", "lower", "p90_ms", _ALL),
    Metric("service.busy_share", "ratio", "lower", "slo_rps, peak_rps", _ALL),
    Metric("service.cache_hit_share", "ratio", "higher", "p50_ms",
           "hot_reads, live_hotspots", "near 0 on cold_placements"),
    Metric("service.coalesced_share", "ratio", "higher", "p50_ms",
           "hot_reads, live_hotspots", "near 0 on cold_placements"),
    Metric("service.solver_calls", "count", "lower", "p50_ms",
           "cold_placements", "near 0 on hot_reads"),
    Metric("engine.share", "ratio", "lower", "p50_ms, p90_ms",
           "cold_placements", "small on hot_reads, 0 on live_hotspots"),
    Metric("engine.batch_plan_ms.total", "ms", "lower", "p50_ms",
           "cold_placements", "0 on the others"),
    Metric("engine.plan_builds", "count", "lower", "p50_ms, server_rss_mb",
           "cold_placements", "0 on the others"),
    Metric("engine.plan_build_ms.p50", "ms", "lower", "p50_ms, server_rss_mb",
           "cold_placements", "0 on the others"),
    Metric("engine.solve_direct_ms.p50", "ms", "lower", "p50_ms",
           "cold_placements (rectangles)"),
    Metric("engine.solve_batch_ms.p50", "ms", "lower", "p90_ms",
           "cold_placements (disks)", "0 on the others"),
    Metric("engine.merge_ms.total", "ms", "lower", "p90_ms",
           "cold_placements (disks)", "0 on the others"),
    Metric("engine.shards_solved", "count", "lower", "p90_ms",
           "cold_placements", "0 on the others"),
    Metric("kernels.python.ms.total", "ms", "lower", "p50_ms, p90_ms",
           "live_hotspots (many small sweeps)", "near 0 on hot_reads"),
    Metric("kernels.python.calls", "count", "lower", "p50_ms, p90_ms",
           "live_hotspots", "near 0 on hot_reads"),
    Metric("kernels.python.points", "count", "lower", "p50_ms, p90_ms",
           "live_hotspots", "near 0 on hot_reads"),
    Metric("kernels.numpy.ms.total", "ms", "lower", "p50_ms, p90_ms",
           "cold_placements (few large sweeps)", "near 0 on hot_reads"),
    Metric("kernels.numpy.calls", "count", "lower", "p50_ms, p90_ms",
           "cold_placements", "near 0 on hot_reads"),
    Metric("kernels.numpy.points", "count", "lower", "p50_ms, p90_ms",
           "cold_placements", "near 0 on hot_reads"),
    Metric("kernels.share", "ratio", "lower", "names the layer worth optimising",
           _ALL),
    Metric("monitor.share", "ratio", "lower", "p50_ms, p90_ms",
           "live_hotspots", "0 on the others"),
    Metric("monitor.apply_ms.p50", "ms", "lower", "client.write_p50_ms",
           "live_hotspots", "0 on the others"),
    Metric("monitor.read_ms.p50", "ms", "lower", "p50_ms", "live_hotspots",
           "0 on the others"),
    Metric("monitor.read_ms.p90", "ms", "lower", "p90_ms", "live_hotspots",
           "0 on the others"),
    Metric("monitor.dirty_per_read", "shards", "lower", "p50_ms",
           "live_hotspots", "0 on the others"),
    Metric("monitor.live_points", "points", "lower", "p50_ms, server_rss_mb",
           "live_hotspots", "0 on the others"),
    Metric("trace.overhead", "ratio", "lower", "nothing (reported)", _ALL),
)

UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (linear interpolation); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: The latency (ms) a failed or refused request counts as: over any limit.
FAILED_MS = 1e6


def latency_ms(records: Sequence[Record]) -> List[float]:
    """Client latencies in ms; a failed request counts as ``FAILED_MS``."""
    return [1e3 * r.latency if r.ok else FAILED_MS for r in records]


def failed_share(records: Sequence[Record]) -> float:
    """(Transport errors + non-200 answers + timeouts + wrong answers) over
    requests attempted."""
    return sum(not r.ok for r in records) / len(records)


@dataclass
class Phase:
    """One measured phase of one round: its records and how long it ran."""

    name: str
    rate: float           #: nominal offered rate of the read lane (0: closed)
    duration: float
    records: List[Record]
    round: int = 0

    @property
    def reads(self) -> List[Record]:
        return [r for r in self.records if r.lane == "read"]

    @property
    def offered_rps(self) -> float:
        """Read requests scheduled per second, as this run drew them."""
        return len(self.reads) / self.duration


def backlog_ok(phase: Phase, limit_ms: float, connections: int) -> bool:
    """Whether the client backlog, over every lane, stayed bounded: by
    Little's law a queue whose latency meets the limit holds about ``rate x
    limit`` requests; a backlog more than twice that at the phase's end is
    growing."""
    rate = len(phase.records) / phase.duration
    bound = 2.0 * rate * limit_ms / 1e3 + connections
    return outstanding_at_end(phase.records) <= bound


def outstanding_at_end(records: Sequence[Record]) -> int:
    """Requests due by the last due time but not yet answered then."""
    if not records:
        return 0
    last = max(r.due for r in records)
    return sum(1 for r in records if r.due <= last < r.done)


#: The reference computation's time (s) on an uncontended CPU: a 2.0 GHz
#: Xeon VM, Python 3.11.  Time metrics are scaled to this host speed.
REFERENCE_S = 0.004
#: Reference samples this close (s) to an interval count towards its speed.
REFERENCE_MARGIN = 0.1


def slowdown(reference: Sequence[Tuple[float, int, float]], start: float,
             end: float) -> float:
    """How many times slower than :data:`REFERENCE_S` the host ran from
    ``start`` to ``end``: the mean reference time of the samples taken then
    (``(monotonic_time, cpu, seconds)``: one per CPU before each phase and
    in the idle gaps of open-loop phases), over ``REFERENCE_S``."""
    inside = [seconds for at, _, seconds in reference
              if start - REFERENCE_MARGIN <= at <= end + REFERENCE_MARGIN]
    return statistics.fmean(inside) / REFERENCE_S if inside else 1.0


def span(phases: Sequence[Phase]) -> Tuple[float, float]:
    """From the first due time to the last answer of ``phases``."""
    records = [r for p in phases for r in p.records]
    return min(r.due for r in records), max(r.done for r in records)


#: Rounds slower than this multiple of a pass's median slowdown are left
#: out of its time metrics: scaling undoes a slower CPU, not the queueing a
#: heavily loaded host adds on top.
CALM = 1.25


def round_slowdowns(phases: Sequence[Phase],
                    reference: Sequence[Tuple[float, int, float]]) -> Dict[int, float]:
    """Each round's :func:`slowdown`, over every phase of the round."""
    rounds = sorted({p.round for p in phases})
    return {index: slowdown(reference, *span([p for p in phases if p.round == index]))
            for index in rounds}


def calm(phases: Sequence[Phase], slow: Dict[int, float]) -> List[Phase]:
    """The phases of rounds no slower than ``CALM`` times the median."""
    limit = CALM * statistics.median(slow.values())
    return [p for p in phases if slow[p.round] <= limit]


def meets_limit(phases: Sequence[Phase], limit_ms: float, connections: int,
                slow: Dict[int, float]) -> bool:
    """Whether one rate, over all its rounds, met the p90 limit at reference
    speed, and its backlog stayed bounded in at least half of the rounds."""
    bounded = sum(backlog_ok(p, limit_ms * slow[p.round], connections) for p in phases)
    return (scaled_quantile(phases, 0.9, slow) <= limit_ms
            and 2 * bounded >= len(phases))


def closed_rate(peak: Phase) -> float:
    """Answered requests per second in one round's closed loop, from its
    first send to its last answer."""
    start = min(r.sent for r in peak.records)
    end = max(r.done for r in peak.records)
    return sum(r.ok for r in peak.records) / (end - start)


def lowest(phases: Sequence[Phase]) -> List[Phase]:
    """Every round's phase at the lowest open-loop rate."""
    rate = min(p.rate for p in phases if p.rate)
    return [p for p in phases if p.rate == rate]


def scaled_quantile(phases: Sequence[Phase], q: float,
                    slow: Dict[int, float]) -> float:
    """The ``q`` quantile of read latency (ms) over every round of
    ``phases``, each latency divided by its round's slowdown."""
    return quantile([latency / slow[p.round] for p in phases
                     for latency in latency_ms(p.reads)], q)


def end_to_end(phases: Sequence[Phase], peaks: Sequence[Phase],
               setups: Sequence[Tuple[float, float]], rss_mb: float,
               limit_ms: float, connections: int,
               slow: Dict[int, float]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass, times at reference speed.

    ``setups`` are ``(seconds, slowdown)`` per server launch and ``slow``
    each round's slowdown.  Only :func:`calm` rounds count.  Latencies pool
    every such round of the lowest rate; ``peak_rps`` is the median over
    rounds.  ``slo_rps`` is the highest rate that :func:`meets_limit`.
    """
    phases, peaks = calm(phases, slow), calm(peaks, slow)
    rates = sorted({p.rate for p in phases})
    passing = [rate for rate in rates
               if meets_limit([p for p in phases if p.rate == rate], limit_ms,
                              connections, slow)]
    low = lowest(phases)
    return {
        "setup_s": statistics.median(seconds / factor for seconds, factor in setups),
        "p50_ms": scaled_quantile(low, 0.5, slow),
        "p90_ms": scaled_quantile(low, 0.9, slow),
        "slo_rps": max(passing) if passing else 0.0,
        "peak_rps": statistics.median(closed_rate(p) * slow[p.round] for p in peaks),
        "server_rss_mb": rss_mb,
    }


def _durations(spans: Sequence[list], name: str) -> List[float]:
    return [1e3 * (s[4] - s[3]) for s in spans if s[2] == name]


def _outermost(spans: Sequence[list], prefix: str) -> List[list]:
    """Spans named ``prefix...`` whose parent is not one of them."""
    names = {s[0]: s[2] for s in spans}
    return [s for s in spans if s[2].startswith(prefix)
            and not names.get(s[1], "").startswith(prefix)]


def per_layer(phases: Sequence[Phase], peaks: Sequence[Phase],
              spans: Sequence[list], stats: Dict[str, float], cpu_s: float,
              window: float, untraced_p50_ms: float,
              slow: Dict[int, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    Client-side timings come from the lowest-rate phases, like ``p50_ms``;
    counts and shares cover the whole measured window.  ``spans`` are the
    server's spans inside that window (``window`` seconds of wall time);
    ``stats`` are ``/v1/stats`` counter deltas over it.
    """
    low_phases = lowest(phases)
    low = [r for p in low_phases for r in p.records]
    everything = [r for p in list(phases) + list(peaks) for r in p.records]
    answered = [r for r in everything if r.status == 200 and r.payload]
    low_reads = [r for r in low if r.lane == "read" and r.ok]
    writes = [r for r in low if r.lane == "write" and r.ok]
    serve = _durations(spans, "service.serve")
    serve_by_batch = {s[5]: 1e3 * (s[4] - s[3]) for s in spans
                      if s[2] == "service.serve"}
    serve_total = sum(serve) or float("inf")
    sources = Counter(r.payload.get("served_from") for r in answered)
    read_meta = [(r.payload.get("result") or {}).get("meta") or {}
                 for r in answered if r.kind == "monitor"]
    kernels = _outermost(spans, "kernel.")
    metrics = {
        "client.lag_ms.p90": quantile([1e3 * r.lag for r in low], 0.9),
        "client.conn_wait_ms.p90": quantile([1e3 * r.conn_wait for r in low], 0.9),
        "client.write_p50_ms": quantile([1e3 * r.latency for r in writes], 0.5),
        "client.failed_share": failed_share(everything),
        "net.outside_serve_ms.p50": quantile(
            [1e3 * r.latency - serve_by_batch[r.payload["batch_id"]]
             for r in low_reads if r.payload.get("batch_id") in serve_by_batch], 0.5),
        "net.decode_ms.p50": quantile(_durations(spans, "net.decode"), 0.5),
        "net.encode_ms.p50": quantile(_durations(spans, "net.encode"), 0.5),
        "net.window.mean": statistics.fmean(
            [r.payload.get("batch_size", 0) for r in answered]) if answered else 0.0,
        "net.shed": stats["net.shed"],
        "net.conn_errors": stats["net.connection_errors"],
        "server.cpu_ms_per_req": 1e3 * cpu_s / len(everything),
        "service.serve_ms.p50": quantile(serve, 0.5),
        "service.serve_ms.p90": quantile(serve, 0.9),
        "service.busy_share": sum(serve) / (1e3 * window),
        "service.cache_hit_share": sources["cache"] / max(1, len(answered)),
        "service.coalesced_share": sources["coalesced"] / max(1, len(answered)),
        "service.solver_calls": stats["solver_calls"],
        "engine.share": sum(1e3 * (s[4] - s[3])
                            for s in _outermost(spans, "engine.")) / serve_total,
        "engine.batch_plan_ms.total": sum(_durations(spans, "engine.batch_plan")),
        "engine.plan_builds": float(len(_durations(spans, "engine.plan_shards"))),
        "engine.plan_build_ms.p50": quantile(_durations(spans, "engine.plan_shards"), 0.5),
        "engine.solve_direct_ms.p50": quantile(_durations(spans, "engine.solve_direct"), 0.5),
        "engine.solve_batch_ms.p50": quantile(_durations(spans, "engine.solve_batch"), 0.5),
        "engine.merge_ms.total": sum(_durations(spans, "engine.merge")),
        "engine.shards_solved": stats["shards_solved"],
        "kernels.share": sum(1e3 * (s[4] - s[3]) for s in kernels) / serve_total,
        "monitor.share": sum(1e3 * (s[4] - s[3]) for s in _outermost(spans, "monitor."))
                         / serve_total,
        "monitor.apply_ms.p50": quantile(_durations(spans, "monitor.apply_batch"), 0.5),
        "monitor.read_ms.p50": quantile(_durations(spans, "monitor.current"), 0.5),
        "monitor.read_ms.p90": quantile(_durations(spans, "monitor.current"), 0.9),
        "monitor.dirty_per_read": statistics.fmean(
            [m.get("recomputed", 0) for m in read_meta]) if read_meta else 0.0,
        "monitor.live_points": statistics.fmean(
            [m.get("live", 0) for m in read_meta]) if read_meta else 0.0,
        "trace.overhead": scaled_quantile(calm(low_phases, slow), 0.5, slow)
                          / untraced_p50_ms,
    }
    for backend in ("python", "numpy"):
        mine = [s for s in kernels if s[2] == "kernel." + backend]
        metrics["kernels.%s.ms.total" % backend] = sum(1e3 * (s[4] - s[3]) for s in mine)
        metrics["kernels.%s.calls" % backend] = float(len(mine))
        metrics["kernels.%s.points" % backend] = float(sum(s[5] or 0 for s in mine))
    return metrics


def server_counters(before: dict, after: dict) -> Dict[str, float]:
    """``/v1/stats`` counter deltas over the measured window."""

    def pick(stats: dict) -> Dict[str, float]:
        counters = stats["server"]["metrics"]
        service = stats["service"]
        return {
            "net.shed": float((counters.get("net.shed") or {}).get("value", 0)),
            "net.connection_errors": float(
                (counters.get("net.connection_errors") or {}).get("value", 0)),
            "solver_calls": float(service.get("solver_calls", 0)),
            "shards_solved": float((service.get("engine") or {}).get("shards_solved", 0)),
        }

    start, end = pick(before), pick(after)
    return {key: end[key] - start[key] for key in end}


def as_json(values: Dict[str, float]) -> Dict[str, dict]:
    """``{"name": {"value": v, "unit": u}}`` in table order."""
    order = [m.name for m in END_TO_END + PER_LAYER]
    return {name: {"value": values[name], "unit": UNITS[name]}
            for name in order if name in values}
