"""Engine benchmarks -- thin wrapper over ``repro bench grid``.

The workload declarations (direct one-shot solver calls vs the sharded
:class:`repro.engine.QueryEngine` on the rectangle and disk workloads,
value-equality checks, and the sharded/direct disk ratio the regression
gate tracks) live in :class:`repro.bench.suites.EngineSuite`; this script
runs that one suite and writes the unified ``repro-bench-grid/1``
artifact to ``BENCH_engine.json``::

    PYTHONPATH=src python benchmarks/bench_engine.py            # 12k points
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # CI-sized

Equivalent to ``repro bench grid --suite engine``; see
``docs/benchmarks.md`` for the schema and the regression workflow.
Exits non-zero if any engine answer differs from the direct sweep.
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
                        help="CI-sized workload (4k points)")
    parser.add_argument("--output", default="BENCH_engine.json",
                        help="destination JSON path")
    parser.add_argument("--history", default=None,
                        help="append this run to a PERF_HISTORY.jsonl trajectory")
    args = parser.parse_args(argv)
    return run_grid(names=["engine"], quick=args.quick, output=args.output,
                    history=args.history)


if __name__ == "__main__":
    raise SystemExit(main())
