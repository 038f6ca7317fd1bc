"""Benchmark harness: declarative grid suites, artifacts and the regression gate.

:mod:`repro.bench.grid` drives declarative workload x size x backend x
executor grids (``repro bench grid``) and :mod:`repro.bench.suites`
declares the built-in suites: the engine / kernels / streaming / service /
parallel / serving layers, and ``paper`` (:mod:`repro.bench.paper`), whose
experiments E1-E15 check the source paper's claims.  Every run writes one
``repro-bench-grid/1`` artifact through :mod:`repro.bench.recorder`, and
:mod:`repro.bench.compare` regresses artifacts against the committed
``PERF_HISTORY.jsonl`` trajectory with a configurable noise band
(``repro bench compare``).
"""

from .recorder import (
    append_history,
    atomic_write_text,
    load_history,
    write_bench_json,
)
from .grid import (
    BENCH_SCHEMA,
    CaseResult,
    CheckResult,
    ConfigError,
    GridCase,
    GridSuite,
    SuiteRun,
    run_grid,
    run_suite,
)
from .compare import compare_artifact, compare_gates, metric_direction, run_compare, self_test

__all__ = [
    "atomic_write_text",
    "write_bench_json",
    "append_history",
    "load_history",
    "BENCH_SCHEMA",
    "ConfigError",
    "GridCase",
    "CaseResult",
    "CheckResult",
    "SuiteRun",
    "GridSuite",
    "run_suite",
    "run_grid",
    "metric_direction",
    "compare_gates",
    "compare_artifact",
    "self_test",
    "run_compare",
]
