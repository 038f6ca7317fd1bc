"""Shared-memory executor benchmark -- thin wrapper over ``repro bench grid``.

The workload declarations (the same exact-rectangle query batch replayed
through the serial, pickle-based process-pool and zero-copy shared-memory
engines, bit-for-bit checks against serial, the shared-process-beats-serial
gate, and the per-phase span probe) live
in :class:`repro.bench.suites.ParallelSuite`; this script runs that one
suite and writes the unified ``repro-bench-grid/1`` artifact to
``BENCH_parallel.json``::

    PYTHONPATH=src python benchmarks/bench_parallel.py           # full (200k points)
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick   # CI-sized

Equivalent to ``repro bench grid --suite parallel``; see
``docs/benchmarks.md`` for the schema and the regression workflow.
Exits non-zero if any answer differs from serial or shared-process fails
to beat serial.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.grid import run_grid  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (smaller dataset, fewer rounds)")
    parser.add_argument("--n", type=int, default=None,
                        help="dataset size (default: 200000, quick: 60000)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="batch replays per executor (default: 4, quick: 3)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for the pooled executors (default: 2)")
    parser.add_argument("--output", default="BENCH_parallel.json",
                        help="destination JSON path")
    parser.add_argument("--history", default=None,
                        help="append this run to a PERF_HISTORY.jsonl trajectory")
    args = parser.parse_args(argv)
    overrides = {key: value for key, value in
                 (("n", args.n), ("rounds", args.rounds),
                  ("workers", args.workers)) if value is not None}
    return run_grid(names=["parallel"], quick=args.quick, output=args.output,
                    history=args.history, overrides=overrides or None)


if __name__ == "__main__":
    raise SystemExit(main())
