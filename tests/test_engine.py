"""Tests for the sharded parallel execution engine (`repro.engine`).

The load-bearing property is *sharded == serial*: on every exact solver the
engine's merged answer must equal the direct one-shot solver's value, for
adversarial Hypothesis inputs and for the library's uniform / clustered /
hotspot workload generators.  The rest covers the planner's serving
behaviour (in-batch dedup, no result cache below the service's TTL cache,
fingerprints), executor equivalence, merge semantics, sharding invariants
and the dirty-shard streaming monitor.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import MaxRSResult
from repro.datasets import (
    clustered_points,
    hotspot_monitoring_stream,
    trajectory_colored_points,
    uniform_points,
    uniform_weighted_points,
    weighted_hotspot_points,
)
from repro.engine import (
    Query,
    QueryEngine,
    SerialExecutor,
    dataset_fingerprint,
    get_executor,
    merge_shard_results,
    plan_shards,
    solve_query,
    tile_keys_for_point,
)
from repro.engine.sharding import ShardArrays, encode_colors
from repro.exact import (
    colored_maxrs_disk_sweep,
    maxrs_disk_exact,
    maxrs_interval_exact,
    maxrs_rectangle_exact,
)
from repro.parallel import SharedDatasetStore, SharedMemoryProcessExecutor
from repro.service import MISSING, MaxRSService, ServiceRequest, TTLCache
from repro.streaming import ExactRecomputeMonitor, ShardedMaxRSMonitor

planar_points = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    min_size=1,
    max_size=18,
).map(lambda rows: [(0.8 * x, 0.8 * y) for x, y in rows])


def workload(kind, n, seed):
    """The three random workload families the acceptance criteria name."""
    if kind == "uniform":
        return uniform_weighted_points(n, dim=2, extent=10.0, seed=seed)
    if kind == "clustered":
        return clustered_points(n, dim=2, extent=10.0, clusters=3, seed=seed), None
    return weighted_hotspot_points(n, dim=2, extent=10.0, seed=seed)


# --------------------------------------------------------------------------- #
# sharding
# --------------------------------------------------------------------------- #

def shard_lists(plan):
    """``(key, indices)`` per shard, in plan order, as plain lists."""
    return [(tuple(key), plan.shard_indices(ordinal).tolist())
            for ordinal, key in enumerate(plan.keys.tolist())]


class TestSharding:
    def test_every_point_is_in_its_anchor_tile_shard(self):
        points = uniform_points(120, dim=2, extent=10.0, seed=1)
        plan = plan_shards(points, (1.0, 1.0), target_shards=16)
        for index, point in enumerate(points):
            anchor_key = tuple(
                int(math.floor(c / side)) for c, side in zip(point, plan.tile_sides)
            )
            indices = next(i for key, i in shard_lists(plan) if key == anchor_key)
            assert index in indices

    def test_halo_covering_property(self):
        """Any point within the halo of an anchor in tile T belongs to shard T."""
        points = uniform_points(80, dim=2, extent=6.0, seed=2)
        halo = (1.0, 1.0)
        plan = plan_shards(points, halo, target_shards=9)
        by_key = {key: set(indices) for key, indices in shard_lists(plan)}
        anchors = uniform_points(40, dim=2, extent=6.0, seed=3)
        for anchor in anchors:
            key = tuple(int(math.floor(c / side)) for c, side in zip(anchor, plan.tile_sides))
            coverable = {
                i for i, p in enumerate(points)
                if all(abs(pc - ac) <= h for pc, ac, h in zip(p, anchor, halo))
            }
            assert coverable <= by_key.get(key, set())

    def test_replication_bounded(self):
        points = uniform_points(200, dim=2, extent=10.0, seed=4)
        plan = plan_shards(points, (0.5, 0.5), target_shards=25)
        # tile sides >= 2 * halo caps replication at 2 per axis = 4 in the plane
        assert 1.0 <= plan.replication <= 4.0
        assert len(plan.indices) >= len(points)

    def test_weights_and_colors_travel_with_points(self):
        """A shard's payload -- its index slice of the dataset columns --
        resolves to exactly the indexed points' coords, weights and colors."""
        points, weights = uniform_weighted_points(50, dim=2, extent=5.0, seed=5)
        colors = ["c%d" % (i % 4) for i in range(50)]
        codes, palette = encode_colors(colors)
        coords, weight_arr = np.asarray(points), np.asarray(weights)
        plan = plan_shards(points, (1.0, 1.0))
        for ordinal in range(len(plan)):
            indices = plan.shard_indices(ordinal)
            payload = ShardArrays(coords[indices], weight_arr[indices],
                                  codes[indices], palette)
            shard_coords, shard_weights, shard_colors = payload.resolve()
            for position, index in enumerate(indices.tolist()):
                assert shard_coords[position] == points[index]
                assert shard_weights[position] == weights[index]
                assert shard_colors[position] == colors[index]

    def test_tile_keys_for_point_near_boundary(self):
        # A point exactly on a tile edge with halo touching both neighbours.
        keys = tile_keys_for_point((2.0,), (1.0,), (2.0,))
        assert set(keys) == {(0,), (1,)}

    def test_rejects_nonpositive_halo_and_thin_tiles(self):
        with pytest.raises(ValueError):
            plan_shards([(0.0, 0.0)], (0.0, 1.0))
        with pytest.raises(ValueError):
            plan_shards([(0.0, 0.0)], (1.0, 1.0), tile_sides=(1.0, 4.0))

    def test_empty_input(self):
        plan = plan_shards([], (1.0, 1.0))
        assert len(plan) == 0 and plan.replication == 0.0


def reference_plan(points, halo, tile_sides):
    """The per-point planner the vectorised one replaced: bucket every point
    under each of its tile_keys_for_point keys, shards in key order."""
    buckets = {}
    for index, point in enumerate(points):
        for key in tile_keys_for_point(point, halo, tile_sides):
            buckets.setdefault(key, []).append(index)
    return [(key, buckets[key]) for key in sorted(buckets)]


def _clustered(seed):
    return clustered_points(500, dim=2, extent=12.0, clusters=4, seed=seed)


def _negative(seed):
    return [(x - 20.0, y - 7.5)
            for x, y in uniform_points(300, dim=2, extent=15.0, seed=seed)]


def _boundary(seed):
    # -1.5000000000000002 +- 0.1 floors three tiles apart at side 0.2, so
    # the point also lands in the middle tile it lies in.
    return [(-1.5000000000000002, 0.5), (-1.58, 0.5), (-1.42, 0.5),
            (-0.2, -0.2), (0.0, 0.0), (0.2, 0.2)] + _negative(seed)[:40]


class TestVectorisedPlanner:
    """plan_shards' index block against the per-point reference: same keys,
    same shard order, same indices per shard."""

    @pytest.mark.parametrize("make, halo, tile_sides, target", [
        (_clustered, (0.5, 0.5), None, 16),
        (_clustered, (1.0, 0.3), None, 40),
        (_clustered, (0.25, 0.25), (0.5, 0.5), 16),   # sides == 2 * halo
        (_negative, (0.75, 0.75), None, 25),
        (_negative, (0.1, 0.1), (0.2, 0.2), 16),      # sides == 2 * halo
        (_boundary, (0.1, 0.1), (0.2, 0.2), 16),
        (_boundary, (0.1, 0.1), None, 9),
    ])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_matches_per_point_reference(self, make, halo, tile_sides, target, seed):
        points = make(seed)
        plan = plan_shards(points, halo, tile_sides=tile_sides, target_shards=target)
        expected = reference_plan(points, halo, plan.tile_sides)
        assert shard_lists(plan) == expected
        assert plan.keys.tolist() == [list(key) for key, _ in expected]
        assert plan.offsets[-1] == len(plan.indices) == sum(len(i) for _, i in expected)

    def test_boundary_point_lands_in_three_tiles_per_axis(self):
        plan = plan_shards([(-1.5000000000000002, 0.5)], (0.1, 0.1),
                           tile_sides=(0.2, 0.2))
        assert plan.keys[:, 0].tolist() == [-9, -8, -7]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_other_dimensions(self, dim):
        rng = np.random.default_rng(dim)
        points = [tuple(row) for row in rng.normal(0.0, 3.0, (200, dim)).tolist()]
        halo = (0.4,) * dim
        plan = plan_shards(points, halo, target_shards=27)
        expected = reference_plan(points, halo, plan.tile_sides)
        assert shard_lists(plan) == expected


# --------------------------------------------------------------------------- #
# merge
# --------------------------------------------------------------------------- #

def _result(value, exact=True):
    return MaxRSResult(value=value, center=(0.0, 0.0), shape="ball", exact=exact,
                       meta={"n": 1})


class TestMerge:
    def test_picks_maximum_and_counts_shards(self):
        merged = merge_shard_results([_result(1.0), _result(5.0), _result(3.0)])
        assert merged.value == 5.0
        assert merged.meta["shards"] == 3
        assert merged.meta["sharded"] is True

    def test_first_winner_on_ties_is_deterministic(self):
        a = MaxRSResult(value=2.0, center=(1.0, 0.0), shape="ball")
        b = MaxRSResult(value=2.0, center=(9.0, 9.0), shape="ball")
        assert merge_shard_results([a, b]).center == (1.0, 0.0)

    def test_exactness_requires_all_shards_exact(self):
        assert merge_shard_results([_result(1.0), _result(2.0)]).exact is True
        assert merge_shard_results([_result(1.0), _result(2.0, exact=False)]).exact is False

    def test_empty_fallback(self):
        empty = MaxRSResult(value=0.0, center=None, shape="ball", exact=True, meta={})
        merged = merge_shard_results([], empty=empty)
        assert merged.is_empty and merged.value == 0.0 and merged.meta["shards"] == 0
        with pytest.raises(ValueError):
            merge_shard_results([])


# --------------------------------------------------------------------------- #
# engine == serial solvers (the acceptance property)
# --------------------------------------------------------------------------- #

class TestEngineMatchesExactSolvers:
    @given(planar_points)
    @settings(max_examples=25, deadline=None)
    def test_disk_property(self, points):
        with QueryEngine(points, target_shards=9) as engine:
            sharded = engine.solve(Query.disk(1.0))
        assert sharded.value == maxrs_disk_exact(points, radius=1.0).value

    @given(planar_points)
    @settings(max_examples=25, deadline=None)
    def test_rectangle_property(self, points):
        with QueryEngine(points, target_shards=9) as engine:
            sharded = engine.solve(Query.rectangle(1.5, 2.5))
        direct = maxrs_rectangle_exact(points, width=1.5, height=2.5)
        assert abs(sharded.value - direct.value) < 1e-9

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "hotspot"])
    @pytest.mark.parametrize("seed", [21, 22])
    def test_disk_on_random_workloads(self, kind, seed):
        points, weights = workload(kind, 250, seed)
        with QueryEngine(points, weights=weights) as engine:
            sharded = engine.solve(Query.disk(1.0))
        direct = maxrs_disk_exact(points, radius=1.0, weights=weights)
        assert abs(sharded.value - direct.value) < 1e-9
        assert sharded.exact

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "hotspot"])
    @pytest.mark.parametrize("seed", [31, 32])
    def test_rectangle_on_random_workloads(self, kind, seed):
        points, weights = workload(kind, 300, seed)
        with QueryEngine(points, weights=weights) as engine:
            sharded = engine.solve(Query.rectangle(2.0, 1.5))
        direct = maxrs_rectangle_exact(points, width=2.0, height=1.5, weights=weights)
        assert abs(sharded.value - direct.value) < 1e-9

    @pytest.mark.parametrize("kind", ["uniform", "hotspot"])
    def test_numpy_rectangle_shards_reproduce_the_direct_value(self, kind):
        """Real weights on the NumPy kernels: each halo shard sweeps its
        own schedule, yet the sharded value is the direct one bit for bit."""
        points, weights = workload(kind, 1500, 41)
        query = Query.rectangle(2.0, 1.5, backend="numpy")
        with QueryEngine(points, weights=weights, target_shards=9) as engine:
            assert engine.solve(query).value == engine.solve_direct(query).value

    def test_interval_matches_serial(self):
        xs = [(x * 0.37 % 11.0,) for x in range(200)]
        with QueryEngine(xs) as engine:
            sharded = engine.solve(Query.interval(1.3))
        direct = maxrs_interval_exact([x[0] for x in xs], length=1.3)
        assert abs(sharded.value - direct.value) < 1e-9

    def test_colored_disk_matches_serial(self):
        points, colors = trajectory_colored_points(10, samples_per_entity=8,
                                                   dim=2, extent=8.0, seed=33)
        with QueryEngine(points, colors=colors) as engine:
            sharded = engine.solve(Query.colored_disk(1.5))
        direct = colored_maxrs_disk_sweep(points, radius=1.5, colors=colors)
        assert sharded.value == direct.value

    def test_solve_direct_is_the_unsharded_reference(self):
        points = clustered_points(150, dim=2, extent=8.0, seed=40)
        with QueryEngine(points) as engine:
            assert engine.solve_direct(Query.disk(1.0)).value == \
                engine.solve(Query.disk(1.0)).value
            assert "sharded" not in engine.solve_direct(Query.disk(1.0)).meta

    def test_empty_dataset_matches_serial_empty(self):
        with QueryEngine([]) as engine:
            result = engine.solve(Query.disk(1.0))
        assert result.is_empty and result.value == 0.0 and result.meta["shards"] == 0


class TestEngineApproximateGuarantees:
    @pytest.mark.parametrize("kind", ["uniform", "clustered", "hotspot"])
    def test_ball_approx_sandwich(self, kind):
        """Merging preserves the (1/2 - eps) guarantee of Theorem 1.2."""
        epsilon = 0.35
        points, weights = workload(kind, 200, 55)
        exact = maxrs_disk_exact(points, radius=1.0, weights=weights).value
        with QueryEngine(points, weights=weights) as engine:
            approx = engine.solve(Query.disk_approx(1.0, epsilon=epsilon, seed=7))
        assert approx.value <= exact + 1e-9
        assert approx.value >= (0.5 - epsilon) * exact - 1e-9
        assert not approx.exact


# --------------------------------------------------------------------------- #
# planner serving behaviour
# --------------------------------------------------------------------------- #

class TestColumnarDataset:
    """The engine holds its dataset as arrays: NumPy-bound direct solves
    take them as-is and must answer exactly like the solver on tuple lists;
    the lists are built once, only when a solver needs them."""

    def test_numpy_bound_direct_solves_match_list_inputs(self):
        points, weights = uniform_weighted_points(700, dim=2, extent=12.0, seed=91)
        xs = [(x,) for x, _ in points]
        cases = [
            (points, weights, Query.rectangle(1.5, 1.0, backend="numpy")),
            (points, weights, Query.disk(0.6, backend="numpy")),
            (points, weights, Query.batched_rectangles([(1.0, 1.0), (2.0, 0.5)],
                                                       backend="numpy")),
            (xs, weights, Query.interval(0.8, backend="numpy")),
        ]
        for data, data_weights, query in cases:
            reference = solve_query(query, list(data), list(data_weights), None)
            with QueryEngine(data, weights=data_weights) as engine:
                result = engine.solve_direct(query)
                assert engine._lists is None  # the arrays went straight through
            assert (result.value, result.center, result.meta) == \
                (reference.value, reference.center, reference.meta), query.describe()

    def test_lists_are_built_once_for_python_solvers(self):
        points = clustered_points(80, dim=2, extent=6.0, seed=92)
        with QueryEngine(points) as engine:
            first = engine.solve_direct(Query.disk(1.0, backend="python"))
            lists = engine._lists
            assert lists is not None and lists[0] == list(points)
            engine.solve_direct(Query.rectangle(1.0, 1.0, backend="python"))
            assert engine._lists is lists
        assert first.value == maxrs_disk_exact(points, radius=1.0, backend="python").value

    def test_engine_does_not_alias_caller_arrays(self):
        coords = np.array(uniform_points(60, dim=2, extent=5.0, seed=93))
        with QueryEngine(coords) as engine:
            before = engine.solve(Query.disk(1.0))
            coords[:] = 0.0  # every point on top of each other
            assert engine.solve(Query.disk(1.0)).value == before.value


class TestCachingAndDedup:
    """The service's TTL cache is the only result cache; the engine
    re-solves every batch and deduplicates only within one."""

    def test_repeat_query_is_a_cache_hit(self):
        points = clustered_points(100, dim=2, extent=8.0, seed=61)
        request = ServiceRequest.static(Query.disk(1.0))
        with MaxRSService(points, routing="sharded") as service:
            first = service.request(request)
            solved_once = service.engine.stats["shards_solved"]
            second = service.request(request)
            assert second.served_from == "cache"
            assert service.cache_stats["hits"] == 1
            # no new solver work
            assert service.engine.stats["shards_solved"] == solved_once
        assert first.result.value == second.result.value

    def test_batch_deduplicates_identical_queries(self):
        points = clustered_points(100, dim=2, extent=8.0, seed=62)
        disk, rect = Query.disk(1.0), Query.rectangle(2.0, 2.0)
        with QueryEngine(points) as engine:
            results = engine.solve_batch([disk, rect, disk])
            # shards of the two *unique* queries, each solved once
            assert engine.stats["shards_solved"] == (
                len(engine.shard_plan(disk)) + len(engine.shard_plan(rect)))
            assert engine.stats["queries"] == 3
        assert results[0].value == results[2].value

    def test_clear_cache_forces_resolve(self):
        # The engine keeps no answers: a repeat re-runs every shard.
        points = clustered_points(80, dim=2, extent=8.0, seed=63)
        with QueryEngine(points) as engine:
            first = engine.solve(Query.disk(1.0))
            solved_once = engine.stats["shards_solved"]
            second = engine.solve(Query.disk(1.0))
            assert engine.stats["shards_solved"] == 2 * solved_once > 0
        assert (first.value, first.center) == (second.value, second.center)

    def test_fingerprint_tracks_content(self):
        points = [(0.0, 0.0), (1.0, 1.0)]
        assert dataset_fingerprint(points) == dataset_fingerprint(list(points))
        assert dataset_fingerprint(points) != dataset_fingerprint([(0.0, 0.0), (1.0, 1.5)])
        assert dataset_fingerprint(points) != dataset_fingerprint(points, weights=[1.0, 2.0])
        assert dataset_fingerprint(points, colors=[0, 1]) != \
            dataset_fingerprint(points, colors=[0, 2])

    def test_lru_eviction_and_counters(self):
        cache = TTLCache(maxsize=2, ttl=100.0)
        cache.put("a", 1, now=0.0)
        cache.put("b", 2, now=0.0)
        assert cache.get("a", now=1.0) == 1
        cache.put("c", 3, now=1.0)  # evicts "b", the least recently used
        assert cache.get("b", now=2.0) is MISSING
        assert cache.get("a", now=2.0) == 1 and cache.get("c", now=2.0) == 3
        assert cache.stats == {"hits": 3, "misses": 1, "expirations": 0,
                               "size": 2}

    def test_cache_size_zero_disables_caching(self):
        points = clustered_points(60, dim=2, extent=8.0, seed=64)
        request = ServiceRequest.static(Query.disk(1.0))
        with MaxRSService(points, cache_size=0) as service:
            first = service.request(request)
            second = service.request(request)
            assert [first.served_from, second.served_from] == ["solver", "solver"]
            assert service.snapshot()["solver_calls"] == 2
            assert service.cache_stats["size"] == 0


class TestValidation:
    def test_negative_weights_rejected_at_construction(self):
        """The max-merge is unsound with negative weights (a shard blind to a
        nearby guard point overestimates), so the engine refuses them."""
        with pytest.raises(ValueError, match="non-negative"):
            QueryEngine([(0.0,), (1.0,)], weights=[1.0, -1.0])

    def test_merged_meta_reports_dataset_size(self):
        points = clustered_points(200, dim=2, extent=8.0, seed=65)
        with QueryEngine(points) as engine:
            result = engine.solve(Query.disk(1.0))
        assert result.meta["n"] == 200  # the dataset, not the winning shard

    def test_colored_query_needs_colors(self):
        with QueryEngine([(0.0, 0.0)]) as engine:
            with pytest.raises(ValueError, match="without colors"):
                engine.solve(Query.colored_disk(1.0))

    def test_interval_needs_1d_data(self):
        with QueryEngine([(0.0, 0.0)]) as engine:
            with pytest.raises(ValueError, match="1-d"):
                engine.solve(Query.interval(1.0))

    def test_exact_disk_needs_planar_data(self):
        with QueryEngine([(0.0, 0.0, 0.0)]) as engine:
            with pytest.raises(ValueError, match="planar"):
                engine.solve(Query.disk(1.0))

    def test_query_constructor_validation(self):
        with pytest.raises(ValueError):
            Query.disk(0.0)
        with pytest.raises(ValueError):
            Query.rectangle(1.0, -1.0)
        with pytest.raises(ValueError):
            Query.interval(0.0)
        with pytest.raises(ValueError):
            Query(shape="disk", exact=False, radius=1.0)  # approx without epsilon
        with pytest.raises(ValueError):
            Query(shape="triangle")

    def test_queries_are_hashable_and_descriptive(self):
        assert Query.disk(1.0) == Query.disk(1.0)
        assert len({Query.disk(1.0), Query.disk(1.0), Query.disk(2.0)}) == 2
        assert "disk" in Query.disk(1.0).describe()
        assert "eps" in Query.disk_approx(1.0, 0.3).describe()


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #

class TestExecutors:
    def test_get_executor_resolution(self, monkeypatch):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("shared-process", workers=2),
                          SharedMemoryProcessExecutor)
        # Exactly two names resolve; the retired pool names are unknown.
        for retired in ("thread", "process"):
            with pytest.raises(ValueError, match="unknown executor"):
                get_executor(retired, workers=2)
        serial = SerialExecutor()
        assert get_executor(serial) is serial
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert isinstance(get_executor(None), SerialExecutor)
        # REPRO_EXECUTOR picks the *default*; explicit names still win.
        monkeypatch.setenv("REPRO_EXECUTOR", "shared-process")
        assert isinstance(get_executor(None), SharedMemoryProcessExecutor)
        assert isinstance(get_executor("serial"), SerialExecutor)
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor("gpu")
        with pytest.raises(ValueError):
            SharedMemoryProcessExecutor(workers=0)

    def test_map_preserves_order(self):
        items = list(range(23))
        for executor in (SerialExecutor(), SharedMemoryProcessExecutor(workers=2)):
            with executor:
                assert executor.map(_square, items) == [i * i for i in items]

    # ``thread`` and ``process`` keep their ids; they now hand the engine a
    # caller-made pool instead of a name: unbound (the engine binds its own
    # store) and bound to a store the engine does not own (the engine keeps
    # that binding; its descriptors attach lazily to its own store).
    @pytest.mark.parametrize("backend", [
        "serial",
        pytest.param("unbound-pool", id="thread"),
        pytest.param("foreign-store-pool", id="process"),
        "shared-process",
    ])
    def test_executor_equivalence_on_exact_solves(self, backend):
        points, weights = weighted_hotspot_points(220, dim=2, extent=10.0, seed=71)
        reference = maxrs_disk_exact(points, radius=1.0, weights=weights).value
        foreign = (SharedDatasetStore(points[:10])
                   if backend == "foreign-store-pool" else None)
        executor = backend
        if backend.endswith("-pool"):
            executor = SharedMemoryProcessExecutor(workers=2, store=foreign)
        try:
            with QueryEngine(points, weights=weights, executor=executor,
                             workers=2) as engine:
                result = engine.solve(Query.disk(1.0))
                if backend.endswith("-pool"):
                    assert engine._executor is executor
                    assert executor.store is (
                        engine.store if foreign is None else foreign)
        finally:
            if foreign is not None:
                foreign.release()
        assert result.meta["executor"] == ("serial" if backend == "serial"
                                           else "shared-process")
        assert abs(result.value - reference) < 1e-9


def _square(x):
    return x * x


# --------------------------------------------------------------------------- #
# sharded streaming monitor
# --------------------------------------------------------------------------- #

class TestShardedMonitor:
    def test_matches_exact_recompute_monitor_on_stream(self):
        stream = hotspot_monitoring_stream(120, dim=2, extent=8.0, seed=81)
        sharded = ShardedMaxRSMonitor(radius=1.0)
        exact = ExactRecomputeMonitor(radius=1.0)
        for ours, reference in zip(sharded.replay(stream, query_every=10),
                                   exact.replay(stream, query_every=10)):
            assert abs(ours.value - reference.value) < 1e-9
            assert ours.live_points == reference.live_points

    def test_localized_update_recomputes_few_shards(self):
        monitor = ShardedMaxRSMonitor(radius=1.0)
        for i in range(100):
            monitor.observe((2.0 * (i % 10), 2.0 * (i // 10)))
        monitor.current()                      # settle: everything recomputed once
        monitor.observe((0.1, 0.1))
        result = monitor.current()
        assert result.meta["recomputed"] <= 4  # a point touches at most 4 tiles
        assert result.meta["recomputed"] < monitor.shard_count

    def test_clean_query_recomputes_nothing(self):
        monitor = ShardedMaxRSMonitor(radius=1.0)
        for i in range(30):
            monitor.observe((float(i % 6), float(i // 6)))
        monitor.current()
        assert monitor.current().meta["recomputed"] == 0

    def test_observe_expire_roundtrip(self):
        monitor = ShardedMaxRSMonitor(radius=1.0)
        handle = monitor.observe((1.0, 1.0), weight=2.0)
        keep = monitor.observe((5.0, 5.0))
        assert len(monitor) == 2
        monitor.expire(handle)
        assert len(monitor) == 1
        result = monitor.current()
        assert result.value == 1.0
        with pytest.raises(KeyError):
            monitor.expire(handle)
        monitor.expire(keep)
        assert monitor.current().is_empty

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ShardedMaxRSMonitor(radius=0.0)
        monitor = ShardedMaxRSMonitor(radius=1.0)
        with pytest.raises(ValueError):
            monitor.observe((1.0, 2.0, 3.0))


# --------------------------------------------------------------------------- #
# batch planning hook (the serving layer's routing signal)
# --------------------------------------------------------------------------- #

class TestBatchPlan:
    """QueryEngine.batch_plan: plan a batch without executing it."""

    def _engine(self):
        return QueryEngine(clustered_points(120, dim=2, extent=8.0, seed=5))

    def test_plan_deduplicates_and_counts_shard_tasks(self):
        with self._engine() as engine:
            disk, rect = Query.disk(1.0), Query.rectangle(2.0, 2.0)
            plan = engine.batch_plan([disk, rect, disk, disk])
            assert plan.unique == (disk, rect)
            assert plan.duplicates == 2
            assert plan.shard_tasks == (len(engine.shard_plan(disk))
                                        + len(engine.shard_plan(rect)))
            # neighbour-grid pruned disk sweeps shard coarsely, like the
            # linearithmic sweeps; only the unpruned colored sweeps are
            # quadratic
            assert disk.cost_class == "linearithmic"
            assert rect.cost_class == "linearithmic"
            assert Query.colored_disk(1.0).cost_class == "linearithmic"
            assert Query.colored_rectangle(1.0, 1.0).cost_class == "quadratic"
            assert Query.colored_box3d(1.0, 1.0, 1.0).cost_class == "quadratic"

    def test_plan_sees_cached_results_without_touching_counters(self):
        # Planning is not solving: batch_plan leaves engine.stats unchanged,
        # and a solved query is planned again in full (the engine keeps no
        # answers to skip it by).
        with self._engine() as engine:
            disk = Query.disk(1.0)
            engine.solve(disk)
            before = dict(engine.stats)
            rect = Query.rectangle(1.0, 1.0)
            plan = engine.batch_plan([disk, rect])
            assert plan.shard_tasks == (len(engine.shard_plan(disk))
                                        + len(engine.shard_plan(rect)))
            assert engine.stats == before

    def test_plan_validates_queries(self):
        with self._engine() as engine:
            with pytest.raises(ValueError):
                engine.batch_plan([Query.colored_disk(1.0)])  # no colors

    def test_lru_peek_does_not_refresh_recency(self):
        # The service looks in its cache before planning: a repeat answered
        # from the cache plans nothing and runs no shard.
        query = ServiceRequest.static(Query.colored_rectangle(2.0, 2.0))
        points = clustered_points(120, dim=2, extent=8.0, seed=5)
        colors = [index % 5 for index in range(len(points))]
        with MaxRSService(points, colors=colors, routing="auto") as service:
            service.request(query)
            planned = service.snapshot()["planned_shard_tasks"]
            engine_stats = dict(service.engine.stats)
            assert service.request(query).served_from == "cache"
            assert service.snapshot()["planned_shard_tasks"] == planned > 0
            assert service.engine.stats == engine_stats
