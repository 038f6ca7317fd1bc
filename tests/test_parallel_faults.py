"""Crash-recovery fuzz tests for the shared-memory worker pool.

A worker process dying mid-batch (OOM killer, segfault, operator
``kill -9``) permanently breaks a ``concurrent.futures`` process pool; the
contract of :class:`repro.parallel.SharedMemoryProcessExecutor` is that the
batch either completes after one transparent pool rebuild (transient
crashes) or raises the typed :class:`repro.parallel.WorkerCrashError`
(deterministic crashes) -- never a deadlock, never partial results -- and
that the executor and any engine built on it keep serving correctly
afterwards.  Poison tasks (ordinary exceptions) must propagate unchanged.

Every test body runs under an alarm-based watchdog so a regression that
deadlocks fails loudly instead of hanging the suite.  The randomized
kill-position sweep is marked `slow` for the scheduled workflow.
"""

import contextlib
import os
import random
import signal

import pytest

from repro.datasets import weighted_hotspot_points
from repro.engine import Query, QueryEngine
from repro.exact import maxrs_disk_exact
from repro.parallel import SharedMemoryProcessExecutor, WorkerCrashError


@contextlib.contextmanager
def watchdog(seconds=120):
    """Fail the test instead of deadlocking the suite."""

    def _timeout(signum, frame):  # pragma: no cover - only fires on regression
        raise TimeoutError("fault-injection test exceeded %ds: likely a "
                           "worker-pool deadlock" % seconds)

    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _echo_or_die(item):
    """Worker task: SIGKILL our own worker on the marker item."""
    if item == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return item * 2


def _echo_or_die_once(item):
    """Worker task: die on the marker only the first time (the marker is a
    sentinel path created just before the kill, so the retried batch
    survives -- a transient fault)."""
    if isinstance(item, str):
        if not os.path.exists(item):
            open(item, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return "survived"
    return item * 2


def _echo_or_raise(item):
    """Worker task: poison input raises an ordinary (typed) exception."""
    if item == "poison":
        raise ValueError("poison task")
    return item * 2


class TestPoolCrashRecovery:
    def test_transient_kill_completes_after_pool_restart(self, tmp_path):
        sentinel = str(tmp_path / "died-once")
        with watchdog():
            with SharedMemoryProcessExecutor(workers=2) as executor:
                out = executor.map(_echo_or_die_once, [1, sentinel, 2, 3])
                assert out == [2, "survived", 4, 6]
                assert executor.restarts == 1
                # the rebuilt pool keeps serving
                assert executor.map(_echo_or_die_once, [4, 5]) == [8, 10]

    def test_deterministic_kill_raises_typed_error_not_deadlock(self):
        with watchdog():
            with SharedMemoryProcessExecutor(workers=2) as executor:
                with pytest.raises(WorkerCrashError, match="crashed twice"):
                    executor.map(_echo_or_die, [1, "die", 2, 3])
                assert executor.restarts == 2
                # the executor survives its own typed failure
                assert executor.map(_echo_or_die, [1, 2, 3]) == [2, 4, 6]

    def test_poison_task_propagates_original_exception(self):
        with watchdog():
            with SharedMemoryProcessExecutor(workers=2) as executor:
                with pytest.raises(ValueError, match="poison task"):
                    executor.map(_echo_or_raise, [1, "poison", 2])
                # a poison task is not a crash: no restart, pool still live
                assert executor.restarts == 0
                assert executor.map(_echo_or_raise, [5, 6]) == [10, 12]


class TestEngineAfterCrash:
    def test_queries_after_crash_match_serial(self):
        """An engine whose pool was killed mid-flight keeps answering
        bit-identically to the direct solver once the pool is rebuilt."""
        points, weights = weighted_hotspot_points(200, dim=2, extent=10.0,
                                                  seed=501)
        reference = maxrs_disk_exact(points, radius=1.0, weights=weights)
        executor = SharedMemoryProcessExecutor(workers=2)
        with watchdog():
            with QueryEngine(points, weights=weights,
                             executor=executor) as engine:
                with pytest.raises(WorkerCrashError):
                    executor.map(_echo_or_die, ["die", "die", "die"])
                result = engine.solve(Query.disk(1.0))
        assert result.value == reference.value
        assert result.center == reference.center

    def test_store_survives_worker_crash(self):
        """Killing workers must not unlink the parent's shared segments --
        attachment is tracker-neutral (gh-82300)."""
        points, weights = weighted_hotspot_points(150, dim=2, extent=10.0,
                                                  seed=502)
        with watchdog():
            with QueryEngine(points, weights=weights,
                             executor="shared-process", workers=2) as engine:
                first = engine.solve(Query.rectangle(2.0, 1.5))
                names = engine.store.segment_names()
                with pytest.raises(WorkerCrashError):
                    engine._executor.map(_echo_or_die, ["die", "die"])
                assert all(os.path.exists("/dev/shm/%s" % n) for n in names
                           if os.path.isdir("/dev/shm"))
                again = engine.solve(Query.rectangle(2.0, 1.5))
        assert again.value == first.value and again.center == first.center


@pytest.mark.slow
@pytest.mark.parametrize("seed", [601, 602, 603, 604])
def test_slow_randomized_kill_positions(seed, tmp_path):
    """Fuzz leg: kill a random worker at a random batch position each round;
    every round must either complete after a restart or fail typed, and a
    correctness batch after each fault must be exact."""
    rng = random.Random(seed)
    points, weights = weighted_hotspot_points(180, dim=2, extent=10.0,
                                              seed=seed)
    reference = maxrs_disk_exact(points, radius=1.0, weights=weights)
    executor = SharedMemoryProcessExecutor(workers=2)
    with watchdog(300):
        with QueryEngine(points, weights=weights, executor=executor) as engine:
            for round_number in range(4):
                batch = list(range(8))
                position = rng.randrange(len(batch))
                transient = rng.random() < 0.5
                if transient:
                    batch[position] = str(tmp_path / ("s-%d-%d" % (seed, round_number)))
                    out = executor.map(_echo_or_die_once, batch)
                    assert out[position] == "survived", (
                        "seed=%d round=%d position=%d" % (seed, round_number, position))
                else:
                    batch[position] = "die"
                    with pytest.raises(WorkerCrashError):
                        executor.map(_echo_or_die, batch)
                result = engine.solve(Query.disk(1.0))
                assert result.value == reference.value, (
                    "post-fault drift: seed=%d round=%d transient=%s"
                    % (seed, round_number, transient))
