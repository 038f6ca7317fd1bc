"""Leak regression tests for the shared-memory dataset store lifecycle.

Three ways a shared-memory design rots, each pinned here:

* **orphaned segments** -- ``/dev/shm`` entries that outlive ``close()`` /
  context exit (checked against the store's own segment names, so parallel
  test processes cannot cause false failures);
* **resource-tracker noise** -- a subprocess runs a full
  publish / solve / release cycle with warnings-as-errors and asserts the
  interpreter exits silently (no "leaked shared_memory" complaints, no
  tracker KeyError tracebacks: attachment must stay tracker-neutral);
* **unbounded caches** -- repeated register/release cycles must not grow
  the process's attachment or materialisation caches (checked exactly) nor
  its RSS high-water mark (checked against a generous bound).
"""

import os
import subprocess
import sys
from multiprocessing import shared_memory

import pytest

from repro.datasets import uniform_weighted_points
from repro.engine import Query, QueryEngine
from repro.parallel import (SharedDatasetStore, SharedMemoryProcessExecutor,
                            attached_segment_count)
from repro.parallel import store as store_module

SHM_DIR = "/dev/shm"
needs_shm_dir = pytest.mark.skipif(not os.path.isdir(SHM_DIR),
                                   reason="needs a POSIX /dev/shm")


def segment_exists(name):
    return os.path.exists(os.path.join(SHM_DIR, name))


def _resolve_coords(descriptor):
    """Worker task: the coordinates a shard descriptor resolves to."""
    return descriptor.resolve()[0]


class TestSegmentLifecycle:
    @needs_shm_dir
    def test_engine_close_unlinks_every_segment(self):
        points, weights = uniform_weighted_points(300, dim=2, extent=10.0,
                                                  seed=801)
        engine = QueryEngine(points, weights=weights,
                             executor="shared-process", workers=2)
        engine.solve_batch([Query.rectangle(2.0, 1.5), Query.disk(1.0)])
        names = engine.store.segment_names()
        # dataset coords + weights, plus one index block per sharding plan
        assert len(names) >= 4
        assert all(segment_exists(n) for n in names)
        engine.close()
        assert engine.store is None
        assert not any(segment_exists(n) for n in names)

    @needs_shm_dir
    def test_context_exit_unlinks_store(self):
        points, _ = uniform_weighted_points(100, dim=2, extent=8.0, seed=802)
        with SharedDatasetStore(points) as store:
            block = store.publish_index_block([0, 3, 5], [0, 1, 2, 3, 4])
            names = store.segment_names()
            assert block.shard_count == 2 and block.total == 5
            assert all(segment_exists(n) for n in names)
        assert store.closed
        assert not any(segment_exists(n) for n in names)

    def test_refcount_keeps_segments_until_last_release(self):
        points, _ = uniform_weighted_points(50, dim=2, extent=8.0, seed=803)
        store = SharedDatasetStore(points)
        store.register()
        assert store.refcount == 2
        store.release()
        assert not store.closed  # one owner still holds it
        store.release()
        assert store.closed
        store.release()  # releasing a closed store is a tolerated no-op
        with pytest.raises(ValueError, match="closed"):
            store.handle()

    @needs_shm_dir
    def test_store_dropped_without_release_is_reclaimed_by_gc(self):
        """A store garbage-collected without release() must clean up after
        itself (the atexit hook only sees stores still alive at exit)."""
        import gc

        points, _ = uniform_weighted_points(40, dim=2, extent=8.0, seed=808)
        store = SharedDatasetStore(points)
        names = store.segment_names()
        assert all(segment_exists(n) for n in names)
        del store
        gc.collect()
        assert not any(segment_exists(n) for n in names)

    @needs_shm_dir
    def test_plan_memo_evicts_and_unlinks_index_blocks(self):
        """200 distinct extents must not leave 200 plans and index-block
        segments behind: the plan memo is an LRU bounded by indexed points,
        and evicting a plan unlinks its block."""
        points, weights = uniform_weighted_points(300, dim=2, extent=10.0,
                                                  seed=809)
        budget = 16 * len(points)
        attached = attached_segment_count()
        with QueryEngine(points, weights=weights, executor="shared-process",
                         workers=2) as engine:
            dataset_segments = set(engine.store.segment_names())
            engine.solve(Query.rectangle(1.0, 1.0))
            first_blocks = set(engine.store.segment_names()) - dataset_segments
            for index in range(200):
                engine.solve(Query.rectangle(1.0 + 0.01 * index, 1.5))
                blocks = set(engine.store.segment_names()) - dataset_segments
                plans = list(engine._plans.values())
                assert len(blocks) <= len(plans)
                assert sum(len(plan.indices) for plan in plans) <= budget
            assert len(blocks) < 20
            assert not any(segment_exists(n) for n in first_blocks)
            assert all(segment_exists(n) for n in blocks | dataset_segments)
            # index blocks are never kept attached
            assert attached_segment_count() <= attached + len(dataset_segments)

    @needs_shm_dir
    def test_reused_block_name_resolves_new_indices(self, monkeypatch):
        """Segment names come back into use once a block is unlinked.  A
        block re-published under an evicted block's name must resolve to
        its own indices in a worker that cached the old block's shards."""
        points, _ = uniform_weighted_points(40, dim=2, extent=8.0, seed=810)
        with SharedDatasetStore(points) as store, \
                SharedMemoryProcessExecutor(workers=1, store=store) as executor:
            reused = shared_memory._SHM_NAME_PREFIX + "t%08x" % (os.getpid() & 0xffffffff)
            monkeypatch.setattr(shared_memory, "_make_filename", lambda: reused)
            dataset = store.handle()
            old = store.publish_index_block([0, 2, 4], [0, 1, 2, 3])
            assert executor.map(
                _resolve_coords, [old.descriptor(dataset, i) for i in range(2)]
            ) == [points[0:2], points[2:4]]
            store.release_index_block(old)
            new = store.publish_index_block([0, 2, 4], [10, 11, 12, 13])
            assert new.name == old.name and new.serial != old.serial
            store.release_index_block(old)  # stale handle: the new block stays
            assert segment_exists(new.name)
            resolved = executor.map(
                _resolve_coords, [new.descriptor(dataset, i) for i in range(2)])
            assert resolved == [points[10:12], points[12:14]]

    def test_double_close_of_engine_is_idempotent(self):
        points, _ = uniform_weighted_points(60, dim=2, extent=8.0, seed=804)
        engine = QueryEngine(points, executor="shared-process", workers=2)
        engine.solve(Query.disk(1.0))
        engine.close()
        engine.close()


class TestResourceTrackerSilence:
    def test_full_cycle_subprocess_exits_clean(self):
        """A publish / parallel-solve / release cycle must leave the
        resource tracker with nothing to complain about: empty stderr (any
        'leaked shared_memory' warning or tracker traceback fails) and a
        zero exit status under -W error."""
        script = (
            "import warnings; warnings.simplefilter('error');\n"
            "from repro.datasets import uniform_weighted_points\n"
            "from repro.engine import Query, QueryEngine\n"
            "points, weights = uniform_weighted_points(250, dim=2, extent=10.0, seed=805)\n"
            "with QueryEngine(points, weights=weights, executor='shared-process',\n"
            "                 workers=2) as engine:\n"
            "    engine.solve_batch([Query.rectangle(2.0, 1.5), Query.disk(1.0)])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p]
            + [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")])
        completed = subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True, timeout=300)
        assert completed.returncode == 0, completed.stderr
        assert "leaked shared_memory" not in completed.stderr, completed.stderr
        assert "Traceback" not in completed.stderr, completed.stderr


class TestBoundedCaches:
    def test_register_release_cycles_do_not_grow_caches(self):
        points, weights = uniform_weighted_points(400, dim=2, extent=10.0,
                                                  seed=806)
        # Warm-up cycle: steady-state allocator and cache shapes.
        with QueryEngine(points, weights=weights, executor="shared-process",
                         workers=2) as engine:
            engine.solve(Query.rectangle(2.0, 1.5))
        attachments = attached_segment_count()
        materialized = len(store_module._MATERIALIZED)
        for cycle in range(8):
            with QueryEngine(points, weights=weights,
                             executor="shared-process", workers=2) as engine:
                engine.solve(Query.rectangle(2.0, 1.5))
            assert attached_segment_count() == attachments, (
                "attachment cache grew on cycle %d" % cycle)
            assert len(store_module._MATERIALIZED) == materialized, (
                "materialisation cache grew on cycle %d" % cycle)

    def test_repeated_cycles_keep_rss_bounded(self):
        import resource

        points, weights = uniform_weighted_points(20_000, dim=2, extent=50.0,
                                                  seed=807)
        def cycle():
            with SharedDatasetStore(points, weights=weights) as store:
                block = store.publish_index_block([0, 10_000, 20_000],
                                                  range(20_000))
                # materialise both shards in this process (the inline path)
                for ordinal in range(block.shard_count):
                    block.descriptor(store.handle(), ordinal).resolve()

        for _ in range(3):  # warm-up: allocator high-water settles
            cycle()
        baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for _ in range(15):
            cycle()
        grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # 15 leaked cycles of two materialised 10k-point shards plus their
        # segments would be hundreds of MB; steady state is ~none.
        assert grown_kb - baseline_kb < 100_000, (
            "RSS high-water grew %.1f MB over 15 register/release cycles"
            % ((grown_kb - baseline_kb) / 1024.0))
