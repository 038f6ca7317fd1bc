"""Oracle differential tests for the streaming monitors.

Every scenario class from the shared registry is replayed through every
monitor and checked, *at every query point*, against an independent oracle:

* exact monitors (:class:`ShardedMaxRSMonitor`, :class:`MultiQueryMonitor`
  with exact standing queries) must match the from-scratch
  :class:`ExactRecomputeMonitor` bit-for-bit on the objective value (unit
  weights make the float sums exact), and every reported placement must
  independently re-score to at least the claimed value;
* sliding-window monitors are checked against a brute-force window oracle
  that recomputes the exact optimum over exactly the observations the window
  semantics say are alive;
* approximate monitors must respect the paper's ``(1/2 - eps)`` guarantee at
  every query point and never exceed the exact optimum.
"""

import pytest

from repro.datasets import drift_stream
from repro.engine import Query
from repro.exact import maxrs_disk_exact, maxrs_rectangle_exact
from repro.streaming import (
    ApproximateMaxRSMonitor,
    ExactRecomputeMonitor,
    MultiQueryMonitor,
    ShardedMaxRSMonitor,
    SlidingWindowMaxRSMonitor,
)

from streaming_scenarios import (
    INSERT_ONLY_SCENARIOS,
    RADIUS,
    SCENARIOS,
    live_set,
    rescore_disk,
)

EVENTS = 160
QUERY_EVERY = 16
SEED = 101


# --------------------------------------------------------------------------- #
# exact monitors vs from-scratch recomputation
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_sharded_matches_exact_recompute_bit_for_bit(scenario):
    stream = SCENARIOS[scenario](EVENTS, SEED)
    monitor = ShardedMaxRSMonitor(radius=RADIUS)
    oracle = ExactRecomputeMonitor(radius=RADIUS)
    events = list(stream)
    for prefix in range(QUERY_EVERY, len(events) + 1, QUERY_EVERY):
        chunk = events[prefix - QUERY_EVERY:prefix]
        monitor.apply_batch(chunk, prefix - QUERY_EVERY)
        oracle.apply_batch(chunk, prefix - QUERY_EVERY)
        ours, reference = monitor.current(), oracle.current()
        assert ours.value == reference.value  # unit weights: sums are exact
        assert ours.exact and reference.exact
        coords, weights = live_set(stream, prefix)
        assert rescore_disk(ours.center, coords, weights) >= ours.value - 1e-9


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_multi_query_matches_independent_oracles(scenario):
    stream = SCENARIOS[scenario](EVENTS, SEED)
    monitor = MultiQueryMonitor({
        "small": Query.disk(0.7),
        "large": Query.disk(1.6),
        "rect": Query.rectangle(1.2, 0.8),
    })
    events = list(stream)
    for prefix in range(QUERY_EVERY, len(events) + 1, QUERY_EVERY):
        monitor.apply_batch(events[prefix - QUERY_EVERY:prefix], prefix - QUERY_EVERY)
        answers = monitor.current()
        coords, weights = live_set(stream, prefix)
        if coords:
            small = maxrs_disk_exact(coords, radius=0.7, weights=weights).value
            large = maxrs_disk_exact(coords, radius=1.6, weights=weights).value
            rect = maxrs_rectangle_exact(coords, width=1.2, height=0.8,
                                         weights=weights).value
        else:
            small = large = rect = 0.0
        assert answers["small"].value == small
        assert answers["large"].value == large
        assert answers["rect"].value == rect
        assert all(result.exact for result in answers.values())


def test_multi_query_colored_standing_query():
    from repro.exact import colored_maxrs_disk_sweep

    monitor = MultiQueryMonitor({"colored": Query.colored_disk(RADIUS),
                                 "weighted": Query.disk(RADIUS)})
    points = [(0.2 * (i % 7), 0.3 * (i // 7)) for i in range(21)]
    colors = [i % 3 for i in range(21)]
    monitor.observe_batch(points, colors=colors)
    answers = monitor.current()
    expected = colored_maxrs_disk_sweep(points, radius=RADIUS, colors=colors).value
    assert answers["colored"].value == expected
    assert answers["weighted"].value == maxrs_disk_exact(points, radius=RADIUS).value


def test_multi_query_uncolored_points_reject_colored_query():
    monitor = MultiQueryMonitor({"colored": Query.colored_disk(RADIUS)})
    monitor.observe((0.0, 0.0))
    with pytest.raises(ValueError):
        monitor.current()


def test_multi_query_approximate_standing_query_respects_guarantee():
    epsilon = 0.3
    monitor = MultiQueryMonitor({"approx": Query.disk_approx(RADIUS, epsilon=epsilon),
                                 "exact": Query.disk(RADIUS)})
    stream = SCENARIOS["clustered"](100, SEED)
    monitor.apply_batch(list(stream), 0)
    answers = monitor.current()
    assert not answers["approx"].exact
    assert answers["approx"].value >= (0.5 - epsilon) * answers["exact"].value - 1e-9
    assert answers["approx"].value <= answers["exact"].value + 1e-9


def test_multi_query_rejects_non_planar_and_empty_sets():
    with pytest.raises(ValueError):
        MultiQueryMonitor({})
    with pytest.raises(ValueError):
        MultiQueryMonitor({"interval": Query.interval(1.0)})


# --------------------------------------------------------------------------- #
# failed reads never leave stale answers; rejected input changes nothing
# --------------------------------------------------------------------------- #

def test_sharded_read_after_a_failed_solve_is_not_stale(monkeypatch):
    import repro.streaming.sharded as sharded

    monitor = ShardedMaxRSMonitor(radius=0.5)
    monitor.observe((10.0, 10.0))
    monitor.observe((10.2, 10.0))
    assert monitor.current().value == 2.0
    for i in range(4):
        monitor.observe((20.0 + 0.01 * i, 20.0))
    solve = sharded.maxrs_disk_exact_segments
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("solver crashed")
        return solve(*args, **kwargs)

    monkeypatch.setattr(sharded, "maxrs_disk_exact_segments", fail_once)
    with pytest.raises(RuntimeError):
        monitor.current()
    assert monitor.dirty_shard_count > 0  # the failed tiles stay dirty
    result = monitor.current()
    assert result.value == 4.0
    assert result.meta["recomputed"] > 0
    assert monitor.dirty_shard_count == 0


def test_multi_query_read_after_a_failed_solve_is_not_stale():
    monitor = MultiQueryMonitor({"d": Query.disk(0.5)})
    monitor.observe((10.0, 10.0))
    monitor.observe((10.2, 10.0))
    assert monitor.current()["d"].value == 2.0
    negative = monitor.observe((0.0, 0.0), weight=-1.0)
    for i in range(4):
        monitor.observe((20.0 + 0.01 * i, 20.0))
    with pytest.raises(ValueError):
        monitor.current()
    with pytest.raises(ValueError):
        monitor.current()  # still failing, not a silently stale 2.0
    monitor.expire(negative)
    assert monitor.current()["d"].value == 4.0


def test_sharded_read_solves_its_dirty_shards_in_one_call(monkeypatch):
    """Three dirty tiles of 8 points each: one segmented sweep, resolved to
    NumPy on the 24-point total although each tile is under the threshold."""
    from repro import kernels

    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    calls = []
    for name in ("python", "numpy"):
        module = kernels.get_backend(name)
        real = module.disk_sweep_segments
        monkeypatch.setattr(
            module, "disk_sweep_segments",
            lambda coords, weights, radius, offsets, _real=real, _name=name: (
                calls.append((_name, len(offsets) - 1))
                or _real(coords, weights, radius, offsets)))
    monitor = ShardedMaxRSMonitor(radius=0.25)
    for tile in range(3):
        monitor.observe_batch([(10.0 * tile + 0.43 + 0.02 * i, 0.5)
                               for i in range(8)])
    assert 8 < kernels.KERNEL_AUTO_THRESHOLDS["disk_sweep"] <= 24
    result = monitor.current()
    assert calls == [("numpy", 3)]
    assert result.value == 8.0 and result.meta["recomputed"] == 3


def test_sharded_monitor_rejects_negative_weights_before_any_change():
    from repro.datasets import UpdateEvent

    monitor = ShardedMaxRSMonitor(radius=0.5)
    monitor.observe((10.0, 10.0))
    monitor.observe((10.2, 10.0))
    with pytest.raises(ValueError, match="non-negative"):
        monitor.observe((0.0, 0.0), weight=-1.0)
    with pytest.raises(ValueError, match="non-negative"):
        monitor.observe_batch([(1.0, 1.0)] * 40, [1.0] * 39 + [-1.0])
    with pytest.raises(ValueError, match="non-negative"):
        monitor.apply_batch([UpdateEvent(kind="insert", point=(2.0, 2.0)),
                             UpdateEvent(kind="delete", target=0),
                             UpdateEvent(kind="insert", point=(3.0, 3.0),
                                         weight=-0.5)], 2)
    assert len(monitor) == 2 and monitor.steps == 2
    assert sorted(monitor._store.live) == [0, 1]
    assert monitor.current().value == 2.0


# --------------------------------------------------------------------------- #
# sliding windows vs the brute-force window oracle
# --------------------------------------------------------------------------- #

def _window_oracle(points, radius):
    if not points:
        return 0.0
    return maxrs_disk_exact(points, radius=radius).value


@pytest.mark.parametrize("scenario", sorted(INSERT_ONLY_SCENARIOS))
def test_sharded_count_window_matches_bruteforce_oracle(scenario):
    stream = INSERT_ONLY_SCENARIOS[scenario](120, SEED)
    window = 25
    monitor = ShardedMaxRSMonitor(radius=RADIUS, window=window)
    inserted = []
    for index, event in enumerate(stream):
        monitor.apply(event, index)
        inserted.append(event.point)
        if (index + 1) % 10 == 0:
            expected = _window_oracle(inserted[-window:], RADIUS)
            result = monitor.current()
            assert len(monitor) == min(len(inserted), window)
            assert result.value == expected


@pytest.mark.parametrize("scenario", sorted(INSERT_ONLY_SCENARIOS))
def test_sharded_time_window_matches_bruteforce_oracle(scenario):
    stream = INSERT_ONLY_SCENARIOS[scenario](120, SEED)
    horizon = 30.0
    monitor = ShardedMaxRSMonitor(radius=RADIUS, time_window=horizon)
    seen = []  # (timestamp, point)
    for index, event in enumerate(stream):
        monitor.apply(event, index)
        seen.append((event.timestamp, event.point))
        if (index + 1) % 10 == 0:
            clock = max(stamp for stamp, _ in seen)
            alive = [point for stamp, point in seen if stamp > clock - horizon]
            result = monitor.current()
            assert len(monitor) == len(alive)
            assert result.value == _window_oracle(alive, RADIUS)


def test_time_window_advance_to_evicts_without_inserting():
    monitor = ShardedMaxRSMonitor(radius=RADIUS, time_window=10.0)
    monitor.observe((0.0, 0.0), timestamp=0.0)
    monitor.observe((0.5, 0.0), timestamp=5.0)
    assert monitor.current().value == 2.0
    monitor.advance_to(12.0)  # evicts the t=0 observation only
    assert len(monitor) == 1
    assert monitor.current().value == 1.0
    monitor.advance_to(20.0)
    assert monitor.current().value == 0.0
    # the clock is monotone: advancing backwards is a no-op
    monitor.advance_to(3.0)
    assert len(monitor) == 0


def test_sliding_window_approx_monitor_respects_guarantee():
    epsilon = 0.3
    window = 20
    stream = INSERT_ONLY_SCENARIOS["drift"](60, SEED)
    monitor = SlidingWindowMaxRSMonitor(window=window, dim=2, radius=RADIUS,
                                        epsilon=epsilon, seed=SEED)
    inserted = []
    for index, event in enumerate(stream):
        monitor.observe(event.point)
        inserted.append(event.point)
        if (index + 1) % 10 == 0:
            exact = _window_oracle(inserted[-window:], RADIUS)
            value = monitor.current().value
            assert value >= (0.5 - epsilon) * exact - 1e-9
            assert value <= exact + 1e-9


# --------------------------------------------------------------------------- #
# approximate monitor guarantee on every scenario class
# --------------------------------------------------------------------------- #

def _check_approx_guarantee(scenario, events):
    epsilon = 0.3
    stream = SCENARIOS[scenario](events, SEED)
    monitor = ApproximateMaxRSMonitor(dim=2, radius=RADIUS, epsilon=epsilon, seed=SEED)
    oracle = ExactRecomputeMonitor(radius=RADIUS)
    approx_snaps = monitor.replay(stream, query_every=20)
    exact_snaps = oracle.replay(stream, query_every=20)
    assert len(approx_snaps) == len(exact_snaps) > 0
    for ours, reference in zip(approx_snaps, exact_snaps):
        assert ours.step == reference.step
        assert ours.value >= (0.5 - epsilon) * reference.value - 1e-9
        assert ours.value <= reference.value + 1e-9


# The dynamic structure's updates are the expensive part, so the fast leg
# checks the two most distinctive scenario classes; the full sweep runs on
# the scheduled slow leg.
@pytest.mark.parametrize("scenario", ["clustered", "drift"])
def test_approximate_monitor_guarantee_everywhere(scenario):
    _check_approx_guarantee(scenario, 80)


@pytest.mark.slow
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_approximate_monitor_guarantee_everywhere_all_scenarios(scenario):
    _check_approx_guarantee(scenario, 150)


# --------------------------------------------------------------------------- #
# windowed deletes interact sanely with explicit deletes
# --------------------------------------------------------------------------- #

def test_windowed_monitor_ignores_deletes_of_evicted_targets():
    monitor = ShardedMaxRSMonitor(radius=RADIUS, window=2)
    from repro.datasets import UpdateEvent
    monitor.apply(UpdateEvent(kind="insert", point=(0.0, 0.0)), 0)
    monitor.apply(UpdateEvent(kind="insert", point=(1.0, 0.0)), 1)
    monitor.apply(UpdateEvent(kind="insert", point=(2.0, 0.0)), 2)  # evicts 0
    monitor.apply(UpdateEvent(kind="delete", target=0), 3)  # already evicted: no-op
    assert len(monitor) == 2
    monitor.apply(UpdateEvent(kind="delete", target=2), 4)  # still alive: deleted
    assert len(monitor) == 1


def test_unwindowed_monitor_still_raises_on_dead_deletes():
    monitor = ShardedMaxRSMonitor(radius=RADIUS)
    from repro.datasets import UpdateEvent
    monitor.apply(UpdateEvent(kind="insert", point=(0.0, 0.0)), 0)
    monitor.apply(UpdateEvent(kind="delete", target=0), 1)
    with pytest.raises(KeyError):
        monitor.apply(UpdateEvent(kind="delete", target=0), 2)


def test_drift_stream_timestamps_are_non_decreasing():
    stream = drift_stream(200, seed=3)
    stamps = [event.timestamp for event in stream]
    assert all(s is not None for s in stamps)
    assert stamps == sorted(stamps)
