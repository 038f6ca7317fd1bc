"""Pool-reuse regression tests for the pooled executors.

The pooled executors (`_PooledExecutor` thread/process backends and the
shared-memory executor) promise two things the engine's economics depend
on: the worker pool is created lazily and **reused across batches** (a
long-lived `QueryEngine` pays pool start-up once, not per solve), and
single-task batches take the **inline bypass** (no pool round-trip, no
pickle, no pool creation at all if none exists yet).  Both sides of the
bypass threshold are exercised here; a regression that silently rebuilds
pools per batch would erase the multi-core win without failing any
correctness test.
"""

import pytest

from repro.datasets import clustered_points
from repro.engine import Query, QueryEngine, ThreadPoolExecutor
from repro.engine.executors import ProcessPoolExecutor
from repro.parallel import SharedMemoryProcessExecutor


def _square(x):
    return x * x


POOLED = [ThreadPoolExecutor, ProcessPoolExecutor, SharedMemoryProcessExecutor]


class TestInlineBypass:
    @pytest.mark.parametrize("executor_cls", POOLED)
    def test_single_task_runs_inline_without_a_pool(self, executor_cls):
        with executor_cls(workers=2) as executor:
            assert executor.map(_square, [7]) == [49]
            assert executor._pool is None  # the bypass never started a pool

    @pytest.mark.parametrize("executor_cls", [ThreadPoolExecutor,
                                              SharedMemoryProcessExecutor])
    def test_multi_task_starts_a_pool_and_single_task_keeps_it(self, executor_cls):
        with executor_cls(workers=2) as executor:
            assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
            pool = executor._pool
            assert pool is not None  # above the threshold: pooled
            # back below the threshold: inline again, pool left untouched
            assert executor.map(_square, [5]) == [25]
            assert executor._pool is pool

    def test_empty_batch_is_free(self):
        with ThreadPoolExecutor(workers=2) as executor:
            assert executor.map(_square, []) == []
            assert executor._pool is None


class TestPoolIdentityAcrossEngineBatches:
    @pytest.mark.parametrize("executor_name", ["thread", "shared-process"])
    def test_pool_is_stable_across_successive_batches(self, executor_name):
        points = clustered_points(220, dim=2, extent=10.0, seed=901)
        with QueryEngine(points, executor=executor_name, workers=2) as engine:
            engine.solve(Query.rectangle(2.0, 1.5))
            pool_after_first = engine._executor._pool
            assert pool_after_first is not None
            engine.solve(Query.disk(1.0))
            engine.solve(Query.rectangle(1.0, 1.0))
            assert engine._executor._pool is pool_after_first, (
                "the %s executor rebuilt its pool between engine batches"
                % executor_name)

    def test_close_drops_the_pool_and_map_rebuilds_lazily(self):
        executor = ThreadPoolExecutor(workers=2)
        assert executor.map(_square, [1, 2]) == [1, 4]
        executor.close()
        assert executor._pool is None
        # a closed executor is reusable: the next pooled batch restarts it
        assert executor.map(_square, [2, 3]) == [4, 9]
        executor.close()
