"""Declarative benchmark grids with one unified, versioned result schema.

One grid suite declares a **workload x size x backend x executor** grid
(:class:`GridCase`), runs every cell through the library's real entry
points (engine, kernels, streaming monitors, serving front end, parallel
executors, the paper's E1-E15 experiments -- see :mod:`repro.bench.suites`)
and emits a single JSON artifact under the ``repro-bench-grid/1`` schema::

    {
      "schema": "repro-bench-grid/1",
      "quick": true,
      "generated_at": "2026-08-08T12:00:00Z",
      "suites": [
        {
          "suite": "kernels",
          "quick": true,
          "config": {"n_sweep": 10000, ...},
          "cases": [
            {"id": "kernels/rectangle_sweep/n=10000/backend=numpy",
             "axes": {"workload": "rectangle_sweep", "size": 10000,
                      "backend": "numpy", "executor": null},
             "metrics": {"seconds": 0.61, "value": 24.80}},
            ...
          ],
          "checks":  [{"name": "...", "passed": true, "detail": "..."}],
          "summary": {"speedup_rectangle_sweep": 10.7, ...},
          "gates":   {"speedup_rectangle_sweep": 10.7},
          "span_summary": {...}                    // optional, repro.obs
        }
      ]
    }

``checks`` are hard correctness gates (backend agreement, bit-for-bit
executor equivalence, differential serving answers, the paper's claims):
any failed check makes the run exit non-zero.  ``gates`` are the
machine-portable *ratio* metrics (speedups, throughput ratios) the
noise-band comparator (:mod:`repro.bench.compare`) tracks against the committed
``PERF_HISTORY.jsonl`` trajectory; ``summary`` additionally carries
non-gated context metrics.  Each suite run also appends one JSON line --
``suite``, ``quick``, ``gates``, ``summary``, ``checks_passed`` -- to
``PERF_HISTORY.jsonl`` when a history path is given, building the committed
perf trajectory CI regresses against.

Cases run sequentially in declaration order, so a suite may use an early
case (e.g. a serial baseline) as the reference later cases are checked
against via the shared ``context`` dict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .recorder import append_history, write_bench_json

__all__ = [
    "BENCH_SCHEMA",
    "ConfigError",
    "GridCase",
    "CaseResult",
    "CheckResult",
    "SuiteRun",
    "GridSuite",
    "timed",
    "capture_spans",
    "run_suite",
    "run_grid",
]

BENCH_SCHEMA = "repro-bench-grid/1"


class ConfigError(ValueError):
    """An override no selected suite declares, or a config value a suite's
    :meth:`GridSuite.build` rejects."""


@dataclass(frozen=True)
class GridCase:
    """One cell of a benchmark grid: workload x size x backend x executor."""

    suite: str
    workload: str
    size: int
    backend: Optional[str] = None
    executor: Optional[str] = None

    @property
    def axes(self) -> Dict[str, object]:
        """The grid coordinates of this cell as a plain dict."""
        return {"workload": self.workload, "size": self.size,
                "backend": self.backend, "executor": self.executor}

    @property
    def case_id(self) -> str:
        """A stable, human-readable identifier for this cell."""
        parts = [self.suite, self.workload, "n=%d" % self.size]
        if self.backend is not None:
            parts.append("backend=%s" % self.backend)
        if self.executor is not None:
            parts.append("executor=%s" % self.executor)
        return "/".join(parts)


@dataclass
class CaseResult:
    """The measured metrics of one grid cell."""

    case_id: str
    axes: Dict[str, object]
    metrics: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (one entry of the artifact's ``cases``)."""
        return {"id": self.case_id, "axes": dict(self.axes),
                "metrics": dict(self.metrics)}


@dataclass
class CheckResult:
    """One correctness gate outcome (agreement, differential, acceptance)."""

    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (one entry of the artifact's ``checks``)."""
        return {"name": self.name, "passed": bool(self.passed),
                "detail": self.detail}


@dataclass
class SuiteRun:
    """Everything one suite run produced: cases, checks, summary, gates."""

    suite: str
    quick: bool
    config: Dict[str, object]
    cases: List[CaseResult]
    checks: List[CheckResult]
    summary: Dict[str, object]
    gates: Dict[str, object]
    span_summary: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        """True when every correctness check passed."""
        return all(check.passed for check in self.checks)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (one entry of the artifact's ``suites``)."""
        payload: Dict[str, object] = {
            "suite": self.suite,
            "quick": self.quick,
            "config": dict(self.config),
            "cases": [case.to_dict() for case in self.cases],
            "checks": [check.to_dict() for check in self.checks],
            "summary": dict(self.summary),
            "gates": dict(self.gates),
        }
        if self.span_summary is not None:
            payload["span_summary"] = self.span_summary
        return payload

    def history_entry(self) -> Dict[str, object]:
        """One ``PERF_HISTORY.jsonl`` line for this run."""
        return {
            "schema": BENCH_SCHEMA,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "suite": self.suite,
            "quick": self.quick,
            "cases": len(self.cases),
            "checks_passed": self.ok,
            "gates": dict(self.gates),
            "summary": dict(self.summary),
        }


class GridSuite:
    """Base class for one declarative benchmark grid.

    Subclasses implement :meth:`defaults` (sizes and axes per quick/full
    mode), :meth:`build` (expand the grid into cases plus a shared context),
    :meth:`run_case` (measure one cell) and :meth:`finish` (correctness
    checks + summary/gate metrics over all cells); :meth:`span_probe` may
    additionally record a per-phase :mod:`repro.obs` span summary outside
    the timed cells.
    """

    name = ""
    description = ""

    def defaults(self, quick: bool) -> Dict[str, object]:
        """The suite's default config (sizes, axes) for quick/full mode."""
        raise NotImplementedError

    def build(self, config: Dict[str, object]) -> Tuple[List[GridCase], Dict[str, object]]:
        """Expand the grid into ordered cases and build the shared context."""
        raise NotImplementedError

    def run_case(self, case: GridCase, config: Dict[str, object],
                 context: Dict[str, object]) -> CaseResult:
        """Measure one grid cell."""
        raise NotImplementedError

    def finish(self, results: List[CaseResult], config: Dict[str, object],
               context: Dict[str, object]) -> Tuple[List[CheckResult], Dict[str, object], Dict[str, object]]:
        """Derive ``(checks, summary, gates)`` from the finished cells."""
        raise NotImplementedError

    def span_probe(self, config: Dict[str, object],
                   context: Dict[str, object]) -> Optional[Dict[str, object]]:
        """Optional per-phase span summary recorded outside the timed cells."""
        return None


def timed(function: Callable[[], object], repeats: int = 1) -> Tuple[float, object]:
    """Best-of-``repeats`` wall-clock seconds and the (last) return value."""
    best = math.inf
    value = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        value = function()
        best = min(best, time.perf_counter() - started)
    return best, value


def capture_spans(function: Callable[[], object]) -> Dict[str, object]:
    """Run ``function`` with tracing forced on; returns the per-span-name
    summary (:func:`repro.obs.summarize_spans`) of every captured span."""
    from .. import obs

    sink = obs.ListSink()
    obs.add_sink(sink)
    previous = obs.set_enabled(True)
    try:
        function()
    finally:
        obs.set_enabled(previous)
        obs.remove_sink(sink)
    return obs.summarize_spans(sink.spans())


def _log(log: Optional[Callable[[str], object]], message: str) -> None:
    if log is not None:
        log(message)


def run_suite(name: str, quick: bool = False,
              overrides: Optional[Dict[str, object]] = None,
              spans: bool = True,
              log: Optional[Callable[[str], object]] = print) -> SuiteRun:
    """Run one grid suite end to end and return its :class:`SuiteRun`.

    ``overrides`` merges over the suite's :meth:`GridSuite.defaults` (the
    CLI exposes this as ``--set key=value``); ``spans=False`` skips the
    optional span probe.  A config value the suite cannot build from raises
    :class:`ConfigError`.
    """
    from .suites import get_suite

    suite = get_suite(name)
    config = dict(suite.defaults(quick))
    config.update(overrides or {})
    config["quick"] = bool(quick)
    try:
        cases, context = suite.build(config)
    except (TypeError, ValueError) as error:
        # build only expands the config, so a type or value error there is
        # a malformed override such as --set n_sweep=abc.
        raise ConfigError("suite %s: %s (overrides: %s)" % (
            suite.name, error, ", ".join(sorted(overrides or {})) or "none")) from error
    _log(log, "[%s] %d cases (%s)" % (suite.name, len(cases),
                                      "quick" if quick else "full"))
    results: List[CaseResult] = []
    for case in cases:
        result = suite.run_case(case, config, context)
        results.append(result)
        seconds = result.metrics.get("seconds")
        _log(log, "  %-58s %s" % (
            result.case_id,
            "%8.3fs" % seconds if isinstance(seconds, (int, float)) else ""))
    checks, summary, gates = suite.finish(results, config, context)
    span_summary = suite.span_probe(config, context) if spans else None
    for check in checks:
        _log(log, "  check %-50s [%s]%s" % (
            check.name, "ok" if check.passed else "FAIL",
            "" if check.passed else " " + check.detail))
    if summary:
        _log(log, "  summary: %s" % summary)
    return SuiteRun(suite=suite.name, quick=bool(quick), config=config,
                    cases=results, checks=checks, summary=summary,
                    gates=gates, span_summary=span_summary)


def run_grid(names: Optional[Sequence[str]] = None, quick: bool = False,
             output: str = "BENCH_grid.json",
             history: Optional[str] = None,
             overrides: Optional[Dict[str, object]] = None,
             spans: bool = True,
             log: Optional[Callable[[str], object]] = print) -> int:
    """Run the named suites (default: all), write one unified artifact and
    optionally append each suite's history line; returns the exit code
    (1 on any failed correctness check, else 0).

    The same ``overrides`` apply to every selected suite, so a key must be
    declared by at least one of them; otherwise :class:`ConfigError` is
    raised before anything runs.
    """
    from .suites import SUITES, get_suite

    wanted = list(names) if names else sorted(SUITES)
    declared = set()
    for name in wanted:
        declared.update(get_suite(name).defaults(quick))
    unknown = sorted(set(overrides or {}) - declared)
    if unknown:
        raise ConfigError("no selected suite (%s) declares %s"
                          % (", ".join(wanted), ", ".join(unknown)))
    runs = [run_suite(name, quick=quick, overrides=overrides,
                      spans=spans, log=log) for name in wanted]
    payload = {
        "schema": BENCH_SCHEMA,
        "quick": bool(quick),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "suites": [run.to_dict() for run in runs],
    }
    write_bench_json(payload, output)
    _log(log, "wrote %s" % output)
    if history:
        appended = append_history(history, [run.history_entry() for run in runs])
        _log(log, "appended %d entries to %s" % (appended, history))
    failed = [(run.suite, check) for run in runs
              for check in run.checks if not check.passed]
    if failed:
        for suite_name, check in failed:
            _log(log, "FAIL [%s] %s: %s" % (suite_name, check.name, check.detail))
        return 1
    return 0
