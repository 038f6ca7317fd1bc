"""The repository benchmark: client latency and capacity of ``repro serve
--listen`` over a real socket, and the same load split by layer.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload cold_placements --seed 1 --seconds 30 --trace 0

Each run generates its inputs from ``--seed``, starts the server in its own
process (three times, to time set-up; the last one is measured), replays the
workload from a single-process load generator over at most ``nproc``
keep-alive connections, checks every answer, and prints one JSON line last:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a second, traced server (see ``traced_server.py``).

The measured time is cut into rounds.  Each round runs the workload's
open-loop rates in ascending order (55%, 15% and 10% of the round) and then
a closed loop of a fixed number of requests (sized to about 20%) for peak
throughput.

Time metrics are given at a reference host speed.  On a shared host this
machine's CPUs run the same code up to 1.8 times slower while other tenants
load the cores beneath them; that share drifts over minutes and moved every
latency and rate by 30-40% between runs of the same code.  So before each
phase, while no request is in flight, the benchmark times a fixed reference
computation once on every CPU (:func:`host_reference`), and divides each
round's latencies (multiplies its rates) by that round's slowdown, the mean
reference time over :data:`report.REFERENCE_S`.  The host is sampled again
whenever an open-loop phase has nothing in flight for a while.  Rounds more
than 25% slower than the pass's median round are left out: scaling undoes a
slower CPU, not the queueing a heavily loaded host adds.  The raw figures
are printed too.  The reference code lives here, outside ``src/``: no change to the
program can move it.  With ``--trace 1`` the untraced and the traced pass
get half of ``--seconds`` each.

Compare two sets of recorded runs (``--record FILE`` appends each result)::

    python3 perfbench/run.py compare BASE.jsonl HEAD.jsonl
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import report  # noqa: E402
from loadgen import Client, new_loop  # noqa: E402
from server import ServerProcess  # noqa: E402
from workloads import (CLOSED_READS, OPEN_READS, READ, REQUEST_TIMEOUT_S,  # noqa: E402
                       WORKLOADS, WRITE, Traffic, Workload, periodic_offsets,
                       poisson_offsets)

#: Rounds per pass.
ROUNDS = 16
#: Share of each round per open-loop rate (ascending) and the closed loop.
OPEN_SHARES = (0.55, 0.15, 0.1)
PEAK_SHARE = 0.2
#: Server launches per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def connection_count() -> int:
    """Keep-alive connections: ``nproc``, capped at two so the workloads
    keep their shape on larger machines."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def reference_seconds() -> float:
    """Time of a fixed mix of interpreter, JSON and numpy work (about 4 ms
    on an uncontended 2.0 GHz Xeon core)."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(10000):
        table[i % 512] = (i, str(i))
    blob = json.dumps([{"kind": "query", "width": i * 0.5, "tag": [i, i]}
                       for i in range(800)])
    json.loads(blob)
    np.sort(np.random.default_rng(0).random(20000))
    return time.perf_counter() - start


def host_reference() -> List[Tuple[float, int, float]]:
    """One reference time per CPU this process may use, each taken pinned
    to that CPU, while nothing else of the benchmark runs."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append((time.monotonic(), cpu, reference_seconds()))
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests so far (``/proc/stat``),
    summed over CPUs; 0.0 where the kernel does not report it."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Pass:
    """One server process driven through every round of a workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 work: Path, traced: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work, self.traced = work, traced
        self.traffic = Traffic(workload, seed)
        self.connections = connection_count()
        #: ``(seconds, slowdown)`` per server launch.
        self.setups: List[Tuple[float, float]] = []
        self.phases: List[report.Phase] = []
        self.peaks: List[report.Phase] = []
        self.final: List = []
        self.spans: List[list] = []
        #: ``(monotonic_time, cpu, seconds)`` reference samples.
        self.reference: List[Tuple[float, int, float]] = []

    # ------------------------------------------------------------------ #

    def run(self, repeats: int) -> None:
        """Set up ``repeats`` times, then measure the last server."""
        from repro.datasets.io import write_points_csv

        csv_path = self.work / "points.csv"
        write_points_csv(str(csv_path), self.traffic.dataset)
        spans_path = self.work / "spans.json" if self.traced else None
        host_reference()  # the first call pays for imports and cold caches
        for attempt in range(repeats):
            server = ServerProcess(ROOT, csv_path, self.workload.server_flags,
                                   spans_path=spans_path,
                                   log_path=self.work / ("server-%d.log" % attempt))
            before = host_reference()
            server.start()
            try:
                for record in self.traffic.warmup:
                    server.post(record)
            except BaseException:
                server.stop()
                raise
            seconds = time.monotonic() - server.launched
            samples = before + host_reference()
            self.reference += samples
            self.setups.append((seconds, report.slowdown(samples, 0.0, float("inf"))))
            if attempt + 1 < repeats:
                server.stop()
        try:
            before = server.get("/v1/stats")
            cpu_before = server.proc_status()["cpu_s"]
            steal_before = steal_seconds()
            self.started = time.monotonic()
            loop = new_loop()
            # The generator's garbage is acyclic: without the cyclic
            # collector, its pauses stay out of the measured latencies.
            gc.collect()
            gc.disable()
            try:
                loop.run_until_complete(self._measure(server.host, server.port))
            finally:
                gc.enable()
                loop.close()
            self.ended = time.monotonic()
            self.steal_s = steal_seconds() - steal_before
            after, status = server.get("/v1/stats"), server.proc_status()
        finally:
            server.stop()
        self.slow = report.round_slowdowns(self.phases + self.peaks, self.reference)
        self.counters = report.server_counters(before, after)
        self.cpu_s = status["cpu_s"] - cpu_before
        self.rss_mb = status["rss_mb"]
        if spans_path is not None:
            self.spans = [s for s in json.loads(spans_path.read_text())
                          if self.started <= s[3] <= self.ended]

    def _schedule(self, rate: float, duration: float, rng: np.random.Generator,
                  next_read: Callable[[], dict]) -> List[Tuple[float, str, dict, bytes]]:
        entries = [(t, READ, next_read())
                   for t in poisson_offsets(rate, duration, rng)]
        if self.traffic.next_write is not None:
            entries += [(t, WRITE, self.traffic.next_write()) for t in periodic_offsets(
                rate * self.workload.writes_per_read, duration, rng)]
        entries.sort(key=lambda entry: entry[0])
        return [(t, lane, request, encode(request)) for t, lane, request in entries]

    def _sample_host(self) -> None:
        self.reference += host_reference()

    async def _measure(self, host: str, port: int) -> None:
        client = Client(host, port, self.connections, timeout=REQUEST_TIMEOUT_S)
        rng = np.random.default_rng([self.seed, 3])
        open_reads = self.traffic.reads(OPEN_READS)
        closed_reads = self.traffic.reads(CLOSED_READS)
        sources = {READ: lambda: _pair(closed_reads())}
        if self.traffic.next_write is not None:
            sources[WRITE] = lambda: _pair(self.traffic.next_write())
        length = self.seconds / ROUNDS
        try:
            for index in range(ROUNDS):
                # Each phase's schedule is drawn just before it runs: the
                # write lane's batches are generated in the order they are
                # sent.  The host's speed is sampled between phases, while
                # no request is in flight.
                for rate, share in zip(self.workload.rates, OPEN_SHARES):
                    self.reference += host_reference()
                    duration = length * share
                    schedule = self._schedule(rate, duration, rng, open_reads)
                    name = "open@%g" % rate
                    records = await client.open_loop(schedule, name,
                                                     time.monotonic() + 0.02,
                                                     idle=self._sample_host)
                    self.phases.append(report.Phase(name, rate, duration,
                                                    records, index))
                self.reference += host_reference()
                count = max(1, round(self.workload.closed_rate * length * PEAK_SHARE))
                records = await client.closed_loop(sources, "peak", count)
                self.peaks.append(report.Phase("peak", 0.0, length * PEAK_SHARE,
                                               records, index))
            self.reference += host_reference()
            if self.traffic.next_write is not None:
                # Sent after every update was answered: must match exactly.
                final = open_reads()
                self.final = await client.open_loop(
                    [(0.0, READ, final, encode(final))], "final",
                    time.monotonic())
        finally:
            await client.close()
        self.max_open = client.max_open

    # ------------------------------------------------------------------ #

    @property
    def records(self) -> list:
        return [r for p in self.phases + self.peaks for r in p.records] + \
            list(self.final)

    def verify(self) -> int:
        """Check every answer; returns the number found wrong."""
        import verify
        from workloads import LIVE_RADIUS

        records = self.records
        if self.traffic.next_write is None:
            return verify.check_static(records, self.traffic.dataset)
        writes = [r for r in records if r.lane == WRITE]
        writes.sort(key=lambda r: r.sent)
        reads = [r for r in records if r.lane == READ]
        replay = verify.LiveReplay(self.traffic.base_events,
                                   self.traffic.write_batches, LIVE_RADIUS)
        return verify.check_live(reads, writes, replay)

    def describe(self) -> List[str]:
        """Human-readable lines, one per phase, over all rounds: raw
        latencies, then the per-round medians at reference speed."""
        left_out = sorted({p.round for p in self.phases}
                          - {p.round for p in report.calm(self.phases, self.slow)})
        lines = ["host slowdown by round: %s (left out: %s)" % (
            " ".join("%.2f" % self.slow[index] for index in sorted(self.slow)),
            " ".join(str(index) for index in left_out) or "none")]
        limit = self.workload.p90_limit_ms
        for rate in list(self.workload.rates) + [0.0]:
            phases = [p for p in self.phases + self.peaks if p.rate == rate]
            records = [r for p in phases for r in p.records]
            latencies = report.latency_ms([r for r in records if r.lane == READ])
            failed = sum(not r.ok for r in records)
            line = ("%-12s offered %7.1f req/s  answered %5d/%-5d  p50 %7.2f ms  "
                    "p90 %7.2f ms  p99 %7.2f ms (n=%d, %d beyond)"
                    % (phases[0].name, sum(len(p.reads) for p in phases)
                       / sum(p.duration for p in phases), len(records) - failed,
                       len(records), report.quantile(latencies, 0.5),
                       report.quantile(latencies, 0.9),
                       report.quantile(latencies, 0.99), len(latencies),
                       len(latencies) // 100))
            if rate:
                line += ("  lag p90 %.3f ms  conn wait p90 %.2f ms  at reference "
                         "speed: p50 %.2f p90 %.2f ms, %s, backlog bounded in %d/%d" % (
                             report.quantile([1e3 * r.lag for r in records], 0.9),
                             report.quantile([1e3 * r.conn_wait for r in records], 0.9),
                             report.scaled_quantile(phases, 0.5, self.slow),
                             report.scaled_quantile(phases, 0.9, self.slow),
                             "meets limit" if report.meets_limit(
                                 phases, limit, self.connections, self.slow)
                             else "MISSES LIMIT",
                             sum(report.backlog_ok(p, limit * self.slow[p.round],
                                                   self.connections) for p in phases),
                             len(phases)))
            else:
                line += "  rounds %s req/s, at reference speed %s" % (
                    " ".join("%.0f" % report.closed_rate(p) for p in phases),
                    " ".join("%.0f" % (report.closed_rate(p) * self.slow[p.round])
                             for p in phases))
            writes = [r for r in records if r.lane == WRITE]
            if writes:
                line += "  writes %d, p50 %.2f ms" % (len(writes), report.quantile(
                    report.latency_ms(writes), 0.5))
            lines.append(line)
        return lines


def encode(request: dict) -> bytes:
    return json.dumps(request).encode("utf-8")


def _pair(request: dict) -> Tuple[dict, bytes]:
    return request, encode(request)


def run_workload(args: argparse.Namespace) -> int:
    """Run one workload and print its result.  The work directory (dataset
    CSV, server logs, spans) is removed after a run that completes; a run
    that raises leaves it for inspection."""
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / ("%s-%d-%d" % (workload.name, args.seed,
                                                     os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = Pass(workload, args.seed, seconds, work, traced=False)
    untraced.run(SETUP_REPEATS if not args.trace else 1)
    passes = [untraced]
    if args.trace:
        traced = Pass(workload, args.seed, seconds, work, traced=True)
        traced.run(1)
        passes.append(traced)
    attempted = failed = 0
    for label, run in zip(("untraced", "traced"), passes):
        checked = time.monotonic()
        wrong = run.verify()
        records = run.records
        attempted += len(records)
        failed += sum(not r.ok for r in records)
        print("%s pass: %d requests, %d failed (%d wrong answers), "
              "%d connections at most, measured %.1f s (%.2f s CPU steal), "
              "verified in %.1f s; set-up %s s at slowdown %s"
              % (label, len(records), sum(not r.ok for r in records), wrong,
                 run.max_open, run.ended - run.started, run.steal_s,
                 time.monotonic() - checked,
                 " ".join("%.3f" % seconds for seconds, _ in run.setups),
                 " ".join("%.2f" % factor for _, factor in run.setups)))
        errors = [r.error for r in records if r.error]
        if errors:
            print("  first transport error: %s" % errors[0])
        for line in run.describe():
            print("  " + line)
    values = report.end_to_end(untraced.phases, untraced.peaks, untraced.setups,
                               untraced.rss_mb, workload.p90_limit_ms,
                               untraced.connections, untraced.slow)
    writes = [r for p in report.lowest(untraced.phases) for r in p.records
              if r.lane == WRITE]
    print("end to end: " + "  ".join("%s %.4g %s" % (k, v, report.UNITS[k])
                                      for k, v in values.items()))
    print("also: failed_share %.4g ratio%s" % (
        failed / attempted,
        "  write_p50_ms %.4g ms" % report.quantile(report.latency_ms(writes), 0.5)
        if writes else ""))
    if args.trace:
        values = report.per_layer(
            traced.phases, traced.peaks, traced.spans, traced.counters,
            traced.cpu_s, traced.ended - traced.started, values["p50_ms"],
            traced.slow)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": report.as_json(values)}
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps({"workload": workload.name, "seed": args.seed,
                                     "trace": args.trace, "result": result}) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append this run's result to a JSONL file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: %s holds no src/repro to benchmark" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
