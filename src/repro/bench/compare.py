"""Noise-band regression comparison against the committed perf trajectory.

``repro bench compare`` loads the committed ``PERF_HISTORY.jsonl``
trajectory (one JSON line per suite run; see :mod:`repro.bench.grid`), picks
each suite's **latest matching baseline** (same suite name and quick/full
mode) and compares the current artifact's ``gates`` against it:

* gates carry only machine-portable *ratio* metrics (speedups, throughput
  ratios), never raw wall-clock seconds, so a baseline recorded on one
  machine remains meaningful on another;
* each metric's **direction** is inferred from its name: ``speedup``/
  ``per_sec``/``ratio``/``_over_`` metrics regress when they *drop*,
  ``seconds``/``latency`` metrics regress when they *rise*;
* a metric only regresses when it moves beyond the relative **noise band**
  (``--noise 0.25`` = 25 %): benchmark ratios jitter run to run, and a gate
  that fires inside the jitter band would train everyone to ignore it.

A failed correctness check in the current artifact is always a failure,
band or no band, and so is a baseline gate the current run does not
report: a renamed or dropped gate would otherwise compare nothing and
pass.  :func:`self_test` proves the comparator can actually fail
by synthesising a baseline from the current artifact and injecting a
regression twice the noise band -- CI runs it so a silently broken
comparator cannot keep passing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .recorder import load_history

__all__ = [
    "metric_direction",
    "latest_baselines",
    "compare_gates",
    "compare_artifact",
    "self_test",
    "Regression",
]

_LOWER_IS_BETTER = ("seconds", "latency", "_ms", "wait")
_HIGHER_IS_BETTER = ("speedup", "per_sec", "ratio", "_over_", "throughput")


def metric_direction(name: str) -> int:
    """+1 when higher values are better, -1 when lower values are better.

    Unknown names default to higher-is-better, matching the gate contract
    (gates are ratio metrics where bigger means faster).
    """
    lowered = name.lower()
    if any(token in lowered for token in _HIGHER_IS_BETTER):
        return 1
    if any(token in lowered for token in _LOWER_IS_BETTER):
        return -1
    return 1


@dataclass
class Regression:
    """One gate metric that moved beyond the noise band the wrong way, or
    that the current run no longer reports (``current`` is ``None``)."""

    suite: str
    metric: str
    baseline: float
    current: Optional[float]
    change: Optional[float]  # signed relative change, positive = improved

    def describe(self) -> str:
        if self.current is None:
            return ("%s/%s is missing from the current run (baseline %.3f)"
                    % (self.suite, self.metric, self.baseline))
        return ("%s/%s regressed %.0f%% beyond the noise band: "
                "baseline %.3f -> current %.3f"
                % (self.suite, self.metric, -100.0 * self.change,
                   self.baseline, self.current))


def latest_baselines(entries: Sequence[Dict[str, object]],
                     quick: Optional[bool] = None) -> Dict[str, Dict[str, object]]:
    """The last history entry per suite, filtered to one quick/full mode.

    History lines are appended chronologically, so "last wins" picks the
    most recent committed baseline for each suite.
    """
    baselines: Dict[str, Dict[str, object]] = {}
    for entry in entries:
        suite = entry.get("suite")
        if not isinstance(suite, str):
            continue
        if quick is not None and bool(entry.get("quick")) != bool(quick):
            continue
        baselines[suite] = entry
    return baselines


def compare_gates(suite: str, baseline_gates: Dict[str, object],
                  current_gates: Dict[str, object],
                  noise: float) -> List[Regression]:
    """Every numeric baseline gate metric that regressed beyond the relative
    noise band, honouring each metric's direction, or that the current
    gates lack (reported with ``current=None``)."""
    regressions: List[Regression] = []
    for metric, baseline_value in baseline_gates.items():
        if (not isinstance(baseline_value, (int, float))
                or isinstance(baseline_value, bool) or baseline_value == 0):
            continue
        current_value = current_gates.get(metric)
        if (not isinstance(current_value, (int, float))
                or isinstance(current_value, bool)):
            regressions.append(Regression(
                suite=suite, metric=metric, baseline=float(baseline_value),
                current=None, change=None))
            continue
        change = (float(current_value) - float(baseline_value)) \
            / abs(float(baseline_value))
        change *= metric_direction(metric)
        if change < -noise:
            regressions.append(Regression(
                suite=suite, metric=metric,
                baseline=float(baseline_value),
                current=float(current_value), change=change))
    return regressions


def compare_artifact(artifact: Dict[str, object],
                     history: Sequence[Dict[str, object]],
                     noise: float = 0.25,
                     log: Optional[Callable[[str], object]] = print) -> int:
    """Compare one ``repro-bench-grid`` artifact against the history.

    Returns the exit code: 1 when any suite regressed beyond the noise band
    or failed a correctness check, else 0.  Suites with no committed
    baseline are reported and skipped (the next history append becomes
    their baseline).
    """
    def _log(message: str) -> None:
        if log is not None:
            log(message)

    quick = bool(artifact.get("quick"))
    baselines = latest_baselines(history, quick=quick)
    failures = 0
    for suite_payload in artifact.get("suites", []):
        suite = suite_payload.get("suite", "?")
        checks = suite_payload.get("checks", [])
        failed_checks = [check for check in checks if not check.get("passed")]
        for check in failed_checks:
            _log("FAIL [%s] check %r: %s" % (suite, check.get("name"),
                                             check.get("detail", "")))
        failures += len(failed_checks)
        baseline = baselines.get(suite)
        if baseline is None:
            _log("[%s] no committed baseline (quick=%s); skipping gate "
                 "comparison" % (suite, quick))
            continue
        regressions = compare_gates(
            suite, baseline.get("gates", {}) or {},
            suite_payload.get("gates", {}) or {}, noise)
        for regression in regressions:
            _log("FAIL " + regression.describe())
        failures += len(regressions)
        compared = [metric for metric in (baseline.get("gates", {}) or {})
                    if metric in (suite_payload.get("gates", {}) or {})]
        if not regressions:
            _log("[%s] %d gate metrics within the %.0f%% noise band of the "
                 "%s baseline" % (suite, len(compared), 100.0 * noise,
                                  baseline.get("recorded_at", "committed")))
    return 1 if failures else 0


def self_test(artifact: Dict[str, object], noise: float = 0.25,
              log: Optional[Callable[[str], object]] = print) -> int:
    """Prove the comparator can fail: synthesise a baseline from the current
    artifact, inject a regression of twice the noise band into one gate
    metric per suite, and require the comparison to flag every injection.

    Machine-independent by construction (the baseline is this very run), so
    CI can run it on every push.  Returns 0 when the comparator caught all
    injected regressions, 1 otherwise.
    """
    def _log(message: str) -> None:
        if log is not None:
            log(message)

    injected = 0
    caught = 0
    for suite_payload in artifact.get("suites", []):
        suite = suite_payload.get("suite", "?")
        gates = {metric: value
                 for metric, value in (suite_payload.get("gates", {}) or {}).items()
                 if isinstance(value, (int, float))
                 and not isinstance(value, bool) and value != 0}
        if not gates:
            continue
        metric = sorted(gates)[0]
        # Move the metric exactly twice the band in its regressing
        # direction.  (Dividing by ``1 + 2*noise`` instead would shrink the
        # injected drop to ``2n/(1+2n)`` -- inside the band for any
        # ``noise >= 0.5``, so the self-test would fail itself.)
        base = float(gates[metric])
        degraded = dict(gates)
        degraded[metric] = base - metric_direction(metric) * 2.0 * noise * abs(base)
        injected += 1
        regressions = compare_gates(suite, gates, degraded, noise)
        if any(r.metric == metric for r in regressions):
            caught += 1
            _log("[self-test] %s/%s: injected %.0f%% regression caught"
                 % (suite, metric, 200.0 * noise))
        else:
            _log("[self-test] FAIL %s/%s: injected regression NOT caught"
                 % (suite, metric))
    if injected == 0:
        _log("[self-test] FAIL: no numeric gate metrics to inject into")
        return 1
    if caught != injected:
        return 1
    _log("[self-test] comparator caught %d/%d injected regressions"
         % (caught, injected))
    return 0


def load_artifact(path: str) -> Dict[str, object]:
    """Read one ``repro-bench-grid`` JSON artifact."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("%s: expected a JSON object artifact" % path)
    return payload


def run_compare(current: str, history: str, noise: float = 0.25,
                run_self_test: bool = False,
                log: Optional[Callable[[str], object]] = print) -> int:
    """The ``repro bench compare`` entry point: load artifact + history,
    compare (and optionally self-test); returns the exit code."""
    artifact = load_artifact(current)
    if run_self_test:
        status = self_test(artifact, noise=noise, log=log)
        if status != 0:
            return status
    try:
        entries = load_history(history)
    except FileNotFoundError:
        if log is not None:
            log("no history at %s; nothing to compare against" % history)
        return 0
    return compare_artifact(artifact, entries, noise=noise, log=log)
