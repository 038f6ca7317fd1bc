"""Batch-vs-single-event equivalence for the streaming monitors.

The batched ingestion contract (:mod:`repro.streaming.base`) promises that
chunking is invisible: any stream chunked at any size must leave a monitor
in the same state as event-at-a-time application, so snapshots taken at the
same query positions are identical.  These tests pin that contract at chunk
sizes {1, 7, all} for every monitor, check the dirty-shard accounting drains
on every query, and check ``observe_batch`` against an ``observe`` loop.
"""

import pytest

from repro.engine import Query
from repro.exact import maxrs_disk_exact
from repro.streaming import (
    ApproximateMaxRSMonitor,
    ExactRecomputeMonitor,
    MultiQueryMonitor,
    ShardedMaxRSMonitor,
)

from streaming_scenarios import RADIUS, SCENARIOS

EVENTS = 150
QUERY_EVERY = 25
SEED = 77
CHUNK_SIZES = (1, 7, EVENTS)


def _monitor_factories():
    return {
        "sharded": lambda: ShardedMaxRSMonitor(radius=RADIUS),
        "sharded-numpy": lambda: ShardedMaxRSMonitor(radius=RADIUS, backend="numpy"),
        "sharded-window": lambda: ShardedMaxRSMonitor(radius=RADIUS, window=30),
        "exact": lambda: ExactRecomputeMonitor(radius=RADIUS),
    }


def _snapshot_key(snapshot):
    """The comparable payload of a snapshot (handles both snapshot types)."""
    if hasattr(snapshot, "results"):
        return (snapshot.step, snapshot.live_points,
                tuple((name, result.value, result.center)
                      for name, result in sorted(snapshot.results.items())))
    return (snapshot.step, snapshot.value, snapshot.center, snapshot.live_points)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("monitor_name", sorted(_monitor_factories()))
def test_chunk_size_is_invisible(scenario, monitor_name):
    stream = SCENARIOS[scenario](EVENTS, SEED)
    factory = _monitor_factories()[monitor_name]
    reference = None
    for chunk_size in CHUNK_SIZES:
        snapshots = factory().apply_stream(stream, chunk_size=chunk_size,
                                           query_every=QUERY_EVERY)
        keys = [_snapshot_key(snapshot) for snapshot in snapshots]
        assert len(keys) == EVENTS // QUERY_EVERY
        if reference is None:
            reference = keys
        else:
            assert keys == reference, "chunk_size=%d diverged" % chunk_size


def test_approx_monitor_chunk_size_is_invisible():
    # The dynamic-structure monitor batches via the base-class loop, so one
    # scenario pins the contract without re-paying its heavy inserts 15x.
    stream = SCENARIOS["uniform"](EVENTS, SEED)

    def factory():
        return ApproximateMaxRSMonitor(dim=2, radius=RADIUS, epsilon=0.3, seed=SEED)

    reference = [_snapshot_key(s) for s in
                 factory().apply_stream(stream, chunk_size=1, query_every=QUERY_EVERY)]
    for chunk_size in CHUNK_SIZES[1:]:
        keys = [_snapshot_key(s) for s in
                factory().apply_stream(stream, chunk_size=chunk_size,
                                       query_every=QUERY_EVERY)]
        assert keys == reference, "chunk_size=%d diverged" % chunk_size


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_multi_query_chunk_size_is_invisible(scenario):
    stream = SCENARIOS[scenario](EVENTS, SEED)

    def factory():
        return MultiQueryMonitor({"narrow": Query.disk(0.6), "wide": Query.disk(1.5)})

    reference = None
    for chunk_size in CHUNK_SIZES:
        snapshots = factory().apply_stream(stream, chunk_size=chunk_size,
                                           query_every=QUERY_EVERY)
        keys = [_snapshot_key(snapshot) for snapshot in snapshots]
        if reference is None:
            reference = keys
        else:
            assert keys == reference, "chunk_size=%d diverged" % chunk_size


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_dirty_accounting_drains_on_every_query(scenario):
    stream = SCENARIOS[scenario](EVENTS, SEED)
    sharded = ShardedMaxRSMonitor(radius=RADIUS)
    multi = MultiQueryMonitor([Query.disk(RADIUS)])
    events = list(stream)
    for start in range(0, len(events), QUERY_EVERY):
        chunk = events[start:start + QUERY_EVERY]
        sharded.apply_batch(chunk, start)
        multi.apply_batch(chunk, start)
        if sharded.shard_count:
            assert sharded.dirty_shard_count > 0  # the chunk touched something
        sharded.current()
        multi.current()
        assert sharded.dirty_shard_count == 0
        assert multi.dirty_shard_count == 0
        # a clean query recomputes nothing
        assert sharded.current().meta["recomputed"] == 0


def test_observe_batch_equals_observe_loop():
    points = [(0.3 * i % 5.0, 0.7 * i % 4.0) for i in range(80)]
    weights = [1.0 + (i % 3) for i in range(80)]
    one = ShardedMaxRSMonitor(radius=RADIUS)
    for point, weight in zip(points, weights):
        one.observe(point, weight)
    batched = ShardedMaxRSMonitor(radius=RADIUS)
    handles = batched.observe_batch(points, weights)
    assert handles == list(range(80))
    assert len(one) == len(batched)
    assert one.shard_count == batched.shard_count
    first, second = one.current(), batched.current()
    assert first.value == second.value
    assert first.center == second.center


def test_observe_batch_equals_observe_loop_with_window():
    points = [(float(i % 9), float(i // 9)) for i in range(60)]
    one = ShardedMaxRSMonitor(radius=RADIUS, window=15)
    for point in points:
        one.observe(point)
    batched = ShardedMaxRSMonitor(radius=RADIUS, window=15)
    batched.observe_batch(points)
    assert len(one) == len(batched) == 15
    assert sorted(one._store.live) == sorted(batched._store.live)
    assert one.current().value == batched.current().value


def test_batch_tile_keys_match_engine_tiling():
    """The store's vectorised key pass must agree with the engine's
    tile_keys_for_point on every point (the source of the exactness proof)."""
    from repro.core.sampling import default_rng
    from repro.engine import tile_keys_for_point
    from repro.streaming._shards import LiveShardStore

    rng = default_rng(3)
    points = [tuple(float(c) for c in rng.uniform(-20.0, 20.0, size=2))
              for _ in range(200)]
    # include exact tile-boundary points, the floor-arithmetic edge case
    points += [(0.0, 0.0), (4.0, 4.0), (-4.0, 8.0), (1.0, -1.0)]
    halo, sides = (1.0, 1.0), (4.0, 4.0)
    batched = LiveShardStore(halo, sides)
    batched.insert_batch(list(range(len(points))), points)
    for index, point in enumerate(points):
        expected = sorted(tile_keys_for_point(point, halo, sides))
        assert sorted(batched.membership[index]) == expected, point

    # With sides equal to twice the halo, floor((x - h) / side) and
    # floor((x + h) / side) can land two tiles apart at float boundaries:
    # the point also belongs to the tile between them, its own.
    halo, sides = (0.1, 0.1), (0.2, 0.2)
    boundary = [(-1.5000000000000002, 0.5), (-1.58, 0.5), (-1.42, 0.5)]
    far = [(5.0 + 0.5 * i, 5.0) for i in range(40)]
    batched = LiveShardStore(halo, sides)
    batched.insert_batch(list(range(len(boundary + far))), boundary + far)
    for index, point in enumerate(boundary + far):
        expected = sorted(tile_keys_for_point(point, halo, sides))
        assert sorted(batched.membership[index]) == expected, point
    assert len(batched.membership[0]) == 3

    one, many = (ShardedMaxRSMonitor(radius=0.1, tile_side=0.2) for _ in range(2))
    for point in boundary + far:
        one.observe(point)
    many.observe_batch(boundary + far)
    exact = maxrs_disk_exact(boundary + far, radius=0.1).value
    assert many.current().value == one.current().value == exact == 3.0


def test_observe_batch_validates_parallel_lists():
    monitor = ShardedMaxRSMonitor(radius=RADIUS)
    with pytest.raises(ValueError):
        monitor.observe_batch([(0.0, 0.0)], weights=[1.0, 2.0])
    with pytest.raises(ValueError):
        monitor.observe_batch([(0.0, 0.0)], timestamps=[1.0, 2.0])
    with pytest.raises(ValueError):
        monitor.observe_batch([(0.0, 0.0, 0.0)] * 40)  # planar only, batch path


def test_unwindowed_monitor_keeps_no_order_bookkeeping():
    """Without a window the monitor must not accumulate per-insert state
    beyond the live set (a long-running monitor would leak otherwise)."""
    monitor = ShardedMaxRSMonitor(radius=RADIUS)
    for i in range(200):
        handle = monitor.observe((float(i % 5), float(i % 3)))
        monitor.expire(handle)
    assert len(monitor) == 0
    assert len(monitor._order) == 0


def test_windowed_order_deque_stays_bounded_under_churn():
    monitor = ShardedMaxRSMonitor(radius=RADIUS, window=10)
    for i in range(1000):
        handle = monitor.observe((float(i % 7), 0.0))
        monitor.expire(handle)  # live set never reaches the window
    assert len(monitor) == 0
    assert len(monitor._order) < 200  # compacted, not 1000


def test_time_window_batch_rejects_missing_timestamps_atomically():
    monitor = ShardedMaxRSMonitor(radius=RADIUS, time_window=5.0, window=3)
    with pytest.raises(ValueError):
        monitor.observe_batch([(0.0, 0.0)] * 40)  # vectorised path
    assert len(monitor) == 0  # nothing half-applied
    with pytest.raises(ValueError):
        monitor.observe((0.0, 0.0))  # single path, no timestamp
    assert len(monitor) == 0
    monitor.observe_batch([(0.1 * i, 0.0) for i in range(5)],
                          timestamps=[float(i) for i in range(5)])
    assert len(monitor) == 3  # count window applied, monitor fully usable


def test_steps_count_applied_prefix_on_mid_batch_failure():
    from repro.datasets import UpdateEvent

    events = [UpdateEvent(kind="insert", point=(0.0, 0.0)),
              UpdateEvent(kind="insert", point=(1.0, 0.0)),
              UpdateEvent(kind="delete", target=999),  # bogus: strict KeyError
              UpdateEvent(kind="insert", point=(2.0, 0.0))]
    monitor = ShardedMaxRSMonitor(radius=RADIUS)
    with pytest.raises(KeyError):
        monitor.apply_batch(events, 0)
    # the applied prefix is counted, exactly as event-at-a-time would
    assert monitor.steps == 2
    assert len(monitor) == 2


def test_apply_stream_rejects_bad_parameters():
    monitor = ShardedMaxRSMonitor(radius=RADIUS)
    with pytest.raises(ValueError):
        monitor.apply_stream([], chunk_size=0)
    with pytest.raises(ValueError):
        monitor.apply_stream([], query_every=0)


def test_apply_stream_without_query_every_snapshots_per_chunk():
    stream = SCENARIOS["clustered"](40, SEED)
    monitor = ShardedMaxRSMonitor(radius=RADIUS)
    snapshots = monitor.apply_stream(stream, chunk_size=16)
    assert [snapshot.step for snapshot in snapshots] == [16, 32, 40]
