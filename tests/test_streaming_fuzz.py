"""Seeded randomized stress suite for the streaming monitors.

Generated stream scenarios (uniform, clustered, drift, burst, adversarial
churn) are replayed through the dirty-shard monitors -- across kernel
backends and executors -- and differentially checked against the
from-scratch :class:`ExactRecomputeMonitor` oracle at every query point.

On failure the harness *shrinks* the stream: it bisects to the shortest
failing prefix and fails with a one-line repro recipe (scenario, seed,
prefix length), so a red CI run hands you a minimal deterministic
reproduction instead of a 400-event haystack.

The fast, fixed-seed leg runs in every CI matrix cell (and under the
``REPRO_BACKEND`` override).  The wide randomized sweep -- more seeds,
longer streams, the worker-process executor, windowed monitors -- is marked
``slow`` and runs on the scheduled workflow leg.
"""

import pytest

from repro.engine import Query
from repro.exact import maxrs_disk_exact
from repro.streaming import (
    ExactRecomputeMonitor,
    MultiQueryMonitor,
    ShardedMaxRSMonitor,
)

from streaming_scenarios import RADIUS, SCENARIOS

FAST_SEEDS = (11, 12)
SLOW_SEEDS = tuple(range(20, 28))
CHUNK_SIZE = 13  # deliberately misaligned with query_every


def _make_monitor(kind, backend, executor):
    if kind == "sharded":
        return ShardedMaxRSMonitor(radius=RADIUS, backend=backend, executor=executor)
    if kind == "multi":
        return MultiQueryMonitor({"main": Query.disk(RADIUS, backend=backend),
                                  "wide": Query.disk(1.8, backend=backend)},
                                 executor=executor)
    raise ValueError(kind)


def _monitor_value(monitor):
    result = monitor.current()
    if isinstance(result, dict):
        return result["main"].value
    return result.value


def _prefix_fails(events, make_monitor, chunk_size):
    """Replay a prefix; True if the monitor diverges from the oracle (or dies)."""
    monitor = make_monitor()
    oracle = ExactRecomputeMonitor(radius=RADIUS)
    try:
        try:
            for start in range(0, len(events), chunk_size):
                chunk = events[start:start + chunk_size]
                monitor.apply_batch(chunk, start)
                oracle.apply_batch(chunk, start)
                if _monitor_value(monitor) != oracle.current().value:
                    return True
            return False
        finally:
            if hasattr(monitor, "close"):
                monitor.close()
    except Exception:
        return True


def _shrink_prefix(events, make_monitor, chunk_size, failing_step):
    """Bisect to the shortest prefix that still fails (assumes the usual
    monotone-failure heuristic; returns ``failing_step`` if shrinking stalls)."""
    lo, hi = 1, failing_step
    while lo < hi:
        mid = (lo + hi) // 2
        if _prefix_fails(events[:mid], make_monitor, chunk_size):
            hi = mid
        else:
            lo = mid + 1
    return hi if _prefix_fails(events[:hi], make_monitor, chunk_size) else failing_step


def _run_case(scenario, seed, events_count, kind, backend, executor,
              chunk_size=CHUNK_SIZE):
    """Replay one generated scenario, querying monitor vs oracle after every
    chunk; on divergence, shrink to a minimal prefix and fail with a repro."""
    events = list(SCENARIOS[scenario](events_count, seed))

    def make_monitor():
        return _make_monitor(kind, backend, executor)

    monitor = make_monitor()
    oracle = ExactRecomputeMonitor(radius=RADIUS)
    failing_step = None
    queries = 0
    try:
        for start in range(0, len(events), chunk_size):
            chunk = events[start:start + chunk_size]
            monitor.apply_batch(chunk, start)
            oracle.apply_batch(chunk, start)
            queries += 1
            if _monitor_value(monitor) != oracle.current().value:
                failing_step = start + len(chunk)
                break
    finally:
        if hasattr(monitor, "close"):
            monitor.close()
    assert queries > 0

    if failing_step is not None:
        minimal = _shrink_prefix(events, make_monitor, chunk_size, failing_step)
        pytest.fail(
            "streaming fuzz divergence: scenario=%s seed=%d monitor=%s backend=%s "
            "executor=%s events=%d first_bad_step=%d shrunk_prefix=%d -- repro: "
            "replay SCENARIOS[%r](%d, %d).events[:%d] through %s and compare "
            "current() against ExactRecomputeMonitor"
            % (scenario, seed, kind, backend, executor, events_count, failing_step,
               minimal, scenario, events_count, seed, minimal, kind)
        )


# --------------------------------------------------------------------------- #
# fast leg: fixed seeds, every scenario x monitor x backend
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("seed", FAST_SEEDS)
@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("kind", ["sharded", "multi"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fuzz_fast(scenario, kind, backend, seed):
    _run_case(scenario, seed, 100, kind, backend, executor=None)


def test_fuzz_fast_threaded_executor_smoke():
    # The name predates the worker-process pool it now runs on.
    _run_case("clustered", FAST_SEEDS[0], 120, "sharded", "auto",
              executor="shared-process")
    _run_case("burst", FAST_SEEDS[0], 120, "multi", "auto",
              executor="shared-process")


# --------------------------------------------------------------------------- #
# slow leg: wide randomized sweep (scheduled CI)
# --------------------------------------------------------------------------- #

@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("kind", ["sharded", "multi"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fuzz_long(scenario, kind, backend, seed):
    _run_case(scenario, seed, 400, kind, backend, executor=None, chunk_size=40)


@pytest.mark.slow
@pytest.mark.parametrize("executor", ["shared-process"])
@pytest.mark.parametrize("seed", SLOW_SEEDS[:3])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fuzz_long_executors(scenario, seed, executor):
    _run_case(scenario, seed, 300, "sharded", "auto", executor=executor, chunk_size=60)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
@pytest.mark.parametrize("scenario", ["uniform", "drift"])
def test_fuzz_long_count_window_against_bruteforce(scenario, seed):
    """Windowed monitors against the brute-force window oracle (insert-only)."""
    window = 35
    stream = SCENARIOS[scenario](250, seed)
    inserts = [event for event in stream if event.kind == "insert"]
    monitor = ShardedMaxRSMonitor(radius=RADIUS, window=window)
    seen = []
    for index, event in enumerate(inserts):
        monitor.apply(event, index)
        seen.append(event.point)
        if (index + 1) % 25 == 0:
            expected = maxrs_disk_exact(seen[-window:], radius=RADIUS).value
            got = monitor.current().value
            assert got == expected, (
                "window fuzz divergence: scenario=%s seed=%d prefix=%d window=%d "
                "got=%r expected=%r" % (scenario, seed, index + 1, window, got, expected)
            )
