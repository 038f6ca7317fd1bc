"""Pool-reuse regression tests for the worker-process executor.

`SharedMemoryProcessExecutor` promises two things the engine's economics
depend on: the worker pool is created lazily and **reused across batches**
(a long-lived `QueryEngine` pays pool start-up once, not per solve), and
single-task batches take the **inline bypass** (no pool round-trip, no
pickle, no pool creation at all if none exists yet).  Both sides of the
bypass threshold are exercised here, with the pool store-less, bound to a
caller's store, and bound by an engine; a regression that silently
rebuilds pools per batch would erase the multi-core win without failing
any correctness test.

The parametrize ids ``ThreadPoolExecutor``, ``ProcessPoolExecutor`` and
``thread`` are stable test names; each now runs one of those bindings.
"""

from contextlib import contextmanager

import pytest

from repro.datasets import clustered_points
from repro.engine import Query, QueryEngine
from repro.parallel import SharedDatasetStore, SharedMemoryProcessExecutor


def _square(x):
    return x * x


@contextmanager
def _store_less():
    """A bare pool: tasks pickle their payloads (the monitors' mode)."""
    with SharedMemoryProcessExecutor(workers=2) as executor:
        yield executor


@contextmanager
def _caller_store():
    """A pool bound at construction to a store the caller owns, so a pool
    start pre-attaches it."""
    points = clustered_points(40, dim=2, extent=5.0, seed=903)
    with SharedDatasetStore(points) as store, \
            SharedMemoryProcessExecutor(workers=2, store=store) as executor:
        yield executor


@contextmanager
def _engine_bound():
    """An engine's pool, bound by the engine to the store it publishes."""
    points = clustered_points(60, dim=2, extent=10.0, seed=902)
    with QueryEngine(points, executor="shared-process", workers=2) as engine:
        assert engine._executor.store is engine.store
        yield engine._executor


class TestInlineBypass:
    @pytest.mark.parametrize("make_executor", [
        pytest.param(_caller_store, id="ThreadPoolExecutor"),
        pytest.param(_engine_bound, id="ProcessPoolExecutor"),
        pytest.param(_store_less, id="SharedMemoryProcessExecutor"),
    ])
    def test_single_task_runs_inline_without_a_pool(self, make_executor):
        with make_executor() as executor:
            assert executor.map(_square, [7]) == [49]
            assert executor._pool is None  # the bypass never started a pool

    @pytest.mark.parametrize("make_executor", [
        pytest.param(_caller_store, id="ThreadPoolExecutor"),
        pytest.param(_store_less, id="SharedMemoryProcessExecutor"),
    ])
    def test_multi_task_starts_a_pool_and_single_task_keeps_it(self, make_executor):
        with make_executor() as executor:
            assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
            pool = executor._pool
            assert pool is not None  # above the threshold: pooled
            # back below the threshold: inline again, pool left untouched
            assert executor.map(_square, [5]) == [25]
            assert executor._pool is pool

    def test_empty_batch_is_free(self):
        with SharedMemoryProcessExecutor(workers=2) as executor:
            assert executor.map(_square, []) == []
            assert executor._pool is None


class TestPoolIdentityAcrossEngineBatches:
    # ``thread``: a caller-made pool the engine binds its store to.
    @pytest.mark.parametrize("executor_spec", [
        pytest.param("caller-made", id="thread"),
        "shared-process",
    ])
    def test_pool_is_stable_across_successive_batches(self, executor_spec):
        points = clustered_points(220, dim=2, extent=10.0, seed=901)
        executor = executor_spec
        if executor_spec == "caller-made":
            executor = SharedMemoryProcessExecutor(workers=2)
        with QueryEngine(points, executor=executor, workers=2) as engine:
            engine.solve(Query.rectangle(2.0, 1.5))
            pool_after_first = engine._executor._pool
            assert pool_after_first is not None
            assert engine._executor.store is engine.store
            engine.solve(Query.disk(1.0))
            engine.solve(Query.rectangle(1.0, 1.0))
            assert engine._executor._pool is pool_after_first, (
                "the %s executor rebuilt its pool between engine batches"
                % executor_spec)

    def test_close_drops_the_pool_and_map_rebuilds_lazily(self):
        executor = SharedMemoryProcessExecutor(workers=2)
        assert executor.map(_square, [1, 2]) == [1, 4]
        executor.close()
        assert executor._pool is None
        # a closed executor is reusable: the next pooled batch restarts it
        assert executor.map(_square, [2, 3]) == [4, 9]
        executor.close()
