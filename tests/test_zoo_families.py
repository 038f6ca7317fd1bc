"""Differential suite for the long-tail query families (the solver zoo).

The engine and service route four families beyond the single-placement
queries -- ``topk`` (per-round sharded re-peel), ``batched`` (component-wise
halo merge), ``decayed`` (always routed direct: weights depend on global
arrival order) and ``colored_box3d`` (exact z-slab sweep).  This suite pins:

* the routing bugfixes that motivated the work: ``top_k_maxrs_*`` forward
  ``backend=`` to the exact sweeps, ``Query`` rejects the colored-interval
  approximate combination instead of silently serving an exact answer, and
  `DecayingMaxRSMonitor` survives long tick horizons without scale
  underflow;
* engine answers vs the direct ``regions``/``batched``/``boxes`` functions,
  across every executor (including ``shared-process``), in the style of
  ``tests/test_parallel_equivalence.py``;
* the serving acceptance path: a mixed trace of zoo requests replayed
  through ``MaxRSService`` with ``routing="direct"`` must serve every
  answer bit-identical to a fresh direct solver call, and JSONL traces
  must round-trip the new query fields.
"""

import math

import pytest

from repro.boxes import colored_maxrs_box3d_exact
from repro.batched import batched_maxrs_1d, batched_maxrs_rectangles
from repro.datasets import (
    clustered_points,
    trajectory_colored_points,
    uniform_weighted_points,
)
from repro.datasets.requests import load_trace, request_trace, save_trace, zoo_query_catalog
from repro.core import weighted_depth
from repro.engine import Query, QueryEngine, solve_query
from repro.exact import maxrs_disk_exact, maxrs_rectangle_exact
from repro.regions import DecayingMaxRSMonitor, decayed_maxrs
from repro.regions.topk import top_k_maxrs_disk, top_k_maxrs_rectangle
from repro.service import MaxRSService, ServiceRequest
from repro.streaming import ShardedMaxRSMonitor

EXECUTORS = ["serial", "shared-process"]


def planar_workload(n=160, seed=421):
    return clustered_points(n, dim=2, extent=10.0, clusters=4, seed=seed)


def box_workload(n=180, seed=422):
    entities = 9
    return trajectory_colored_points(entities, samples_per_entity=n // entities,
                                     dim=3, extent=8.0, seed=seed)


# --------------------------------------------------------------------------- #
# satellite bugfixes
# --------------------------------------------------------------------------- #

class TestTopKBackendForwarding:
    """`top_k_maxrs_*` must accept and forward ``backend=`` (it used to be
    silently dropped, so explicit backend requests never reached the sweeps)."""

    def test_rectangle_numpy_bit_identical_to_python(self):
        points = planar_workload()
        weights = [1.0 + (i % 5) * 0.25 for i in range(len(points))]
        python = top_k_maxrs_rectangle(points, 1.5, 1.0, 3, weights=weights,
                                       backend="python")
        numpy_ = top_k_maxrs_rectangle(points, 1.5, 1.0, 3, weights=weights,
                                       backend="numpy")
        assert [(p.rank, p.value, p.center, p.covered_points) for p in python] == \
               [(p.rank, p.value, p.center, p.covered_points) for p in numpy_]

    def test_disk_numpy_bit_identical_to_python(self):
        points = planar_workload(seed=423)
        # Quarter-step weights: sums stay exact in binary floating point,
        # and the spread breaks the optimum ties unit weights would leave
        # (tie-breaking order is the one thing the backends do not share).
        weights = [1.0 + ((i * 7) % 16) * 0.25 for i in range(len(points))]
        python = top_k_maxrs_disk(points, 0.8, 2, weights=weights,
                                  backend="python")
        numpy_ = top_k_maxrs_disk(points, 0.8, 2, weights=weights,
                                  backend="numpy")
        # Disk optima are whole arrangement cells, so each backend may report
        # a different representative center for the same optimal cell; the
        # scores must still agree bit-for-bit, and every reported center must
        # actually achieve its claimed rank-1 value.
        assert [(p.rank, p.value, p.covered_points) for p in python] == \
               [(p.rank, p.value, p.covered_points) for p in numpy_]
        for result in (python, numpy_):
            assert weighted_depth(result[0].center, points, weights,
                                  radius=0.8) == result[0].value

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            top_k_maxrs_rectangle(planar_workload(n=20), 1.0, 1.0, 1,
                                  backend="fortran")


class TestColoredIntervalApproxRejected:
    """colored+interval+approx used to fall through `_route_query` to the
    *exact* colored interval sweep -- an approximate request silently served
    exactly.  The combination is now rejected at construction."""

    def test_query_construction_rejects(self):
        with pytest.raises(ValueError, match="approximate colored interval"):
            Query(shape="interval", length=1.0, colored=True, exact=False)

    def test_exact_colored_interval_still_constructs(self):
        query = Query.colored_interval(1.0)
        assert query.colored and query.exact


class TestDecayLongHorizon:
    """Long tick horizons must never underflow the global scale to 0.0
    (which zeroed every stored weight) nor let stored weights blow up."""

    def _monitor(self, decay, prune_below=0.0, epsilon=0.25):
        monitor = DecayingMaxRSMonitor(decay=decay, radius=1.0, seed=17,
                                       epsilon=epsilon, prune_below=prune_below)
        for i in range(12):
            monitor.observe((0.05 * i, 0.0), weight=3.0)   # heavy cluster
        for i in range(6):
            monitor.observe((6.0 + 0.05 * i, 0.0), weight=1.0)
        return monitor

    def _assert_finite_internals(self, monitor):
        assert math.isfinite(monitor._scale) and monitor._scale > 0.0
        snapshot = monitor._structure.points()
        assert len(snapshot) == len(monitor)
        for _, (point, stored) in snapshot.items():
            assert math.isfinite(stored) and stored > 0.0
            assert all(math.isfinite(c) for c in point)

    def test_one_shot_huge_tick_keeps_weights_finite_and_argmax(self):
        monitor = self._monitor(decay=0.999)
        before = monitor.current()
        # 0.999 ** 500_000 ~ 1e-218: far below the old single-shot
        # renormalization trigger's safety margin, still representable.
        monitor.tick(500_000)
        self._assert_finite_internals(monitor)
        after = monitor.current()
        # Uniform decay rescales every candidate equally: the answer's value
        # shrinks by exactly decay**ticks (still representable: ~1e-218) and
        # the reported placement stays on the heavy cluster, not the far one.
        # (current() samples candidate centers, so the representative center
        # may move within the optimal region after a renormalization pass.)
        assert after.value == pytest.approx(before.value * 0.999 ** 500_000,
                                            rel=1e-9)
        assert 0.0 < after.value < before.value
        assert math.dist(after.center, (0.3, 0.0)) < 1.5

    def _tick_one_at_a_time(self, monitor, steps, observe_every):
        """Apply ``steps`` single ticks, checking the stored-weight bound
        every 5 steps; returns how many renormalisations ran."""
        max_raw = 3.0
        bound = max_raw / DecayingMaxRSMonitor._RENORM_THRESHOLD * (1 + 1e-9)
        renormalized_at = []
        renormalize = monitor._renormalize

        def counted():
            renormalized_at.append(monitor.ticks)
            renormalize()

        monitor._renormalize = counted
        for step in range(steps):
            monitor.tick()
            if step % observe_every == 0:  # live mass at every scale epoch
                monitor.observe((0.1, 0.0), weight=max_raw)
            if step % 5 == 0:
                self._assert_finite_internals(monitor)
                for _, (_, stored) in monitor._structure.points().items():
                    assert stored <= bound
        self._assert_finite_internals(monitor)
        return len(renormalized_at)

    def test_many_single_ticks_bound_stored_weights(self):
        # At decay 0.3 the scale crosses the threshold every 12 ticks, so 30
        # ticks renormalise twice.  A coarse epsilon keeps each rebuild of
        # the dynamic structure cheap; the slow twin runs 120 ticks.
        monitor = self._monitor(decay=0.3, epsilon=0.45)
        assert self._tick_one_at_a_time(monitor, steps=30, observe_every=10) >= 2

    @pytest.mark.slow
    def test_many_single_ticks_bound_stored_weights_long_horizon(self):
        monitor = self._monitor(decay=0.3)
        assert self._tick_one_at_a_time(monitor, steps=120, observe_every=20) >= 10

    def test_annihilating_tick_leaves_empty_but_valid_monitor(self):
        monitor = self._monitor(decay=0.001)
        monitor.tick(10_000)  # every weight underflows: all observations drop
        assert len(monitor) == 0
        assert monitor.current().center is None
        self._assert_finite_internals(monitor)
        # The monitor must remain usable after the wipe-out.
        monitor.observe((1.0, 1.0), weight=2.0)
        assert monitor.current().value > 0.0

    def test_tick_changes_generation_like_updates_do(self):
        monitor = DecayingMaxRSMonitor(decay=0.9)
        seen = {monitor.generation}
        observation = monitor.observe((0.0, 0.0), weight=1.0)
        seen.add(monitor.generation)
        monitor.tick()
        seen.add(monitor.generation)
        monitor.tick(5)
        seen.add(monitor.generation)
        monitor.forget(observation)
        seen.add(monitor.generation)
        assert len(seen) == 5, "every mutation (incl. tick) must move the token"


# --------------------------------------------------------------------------- #
# engine vs direct functions, across executors
# --------------------------------------------------------------------------- #

def solve_with(executor, points, query, weights=None, colors=None):
    with QueryEngine(points, weights=weights, colors=colors,
                     executor=executor, workers=2) as engine:
        return engine.solve(query)


class TestTopKEngine:
    def test_sharded_peel_values_match_direct_every_executor(self):
        points = planar_workload()
        query = Query.topk_rectangle(1.5, 1.0, 3)
        direct = top_k_maxrs_rectangle(points, 1.5, 1.0, 3)
        expected = [(p.rank, p.value) for p in direct]
        for executor in EXECUTORS:
            result = solve_with(executor, points, query)
            placements = result.meta["placements"]
            assert [(rank, value) for rank, value, _, _ in placements] == expected, \
                "executor=%s" % executor
            assert result.meta["merge"] == "per-round sharded re-peel"
            assert result.value == expected[0][1]

    def test_disk_peel_values_match_direct(self):
        points = planar_workload(seed=424)
        query = Query.topk_disk(0.8, 2)
        direct = top_k_maxrs_disk(points, 0.8, 2)
        for executor in ("serial", "shared-process"):
            result = solve_with(executor, points, query)
            assert [(rank, value) for rank, value, _, _ in
                    result.meta["placements"]] == \
                   [(p.rank, p.value) for p in direct]

    def test_each_round_is_the_optimum_of_the_remaining_points(self):
        """The greedy guarantee the re-peel preserves: round r's value equals
        the exact rank-1 MaxRS over the points rounds 1..r-1 left unclaimed."""
        points = planar_workload(seed=425)
        width, height = 1.5, 1.0
        result = solve_with("serial", points, Query.topk_rectangle(width, height, 3))
        alive = list(points)
        for rank, value, center, covered in result.meta["placements"]:
            best = maxrs_rectangle_exact(alive, width=width, height=height)
            assert value == best.value, "rank %d is not greedy-optimal" % rank
            x, y = center
            remaining = [p for p in alive
                         if not (x - 1e-12 <= p[0] <= x + width + 1e-12
                                 and y - 1e-12 <= p[1] <= y + height + 1e-12)]
            assert len(alive) - len(remaining) == covered
            alive = remaining

    def test_solve_direct_matches_regions_function_bitwise(self):
        points = planar_workload(seed=426)
        with QueryEngine(points, executor="serial") as engine:
            result = engine.solve_direct(Query.topk_disk(0.8, 2))
        direct = top_k_maxrs_disk(points, 0.8, 2)
        assert result.meta["placements"] == tuple(
            (p.rank, p.value, p.center, p.covered_points) for p in direct)


class TestBatchedEngine:
    def test_rectangles_component_values_match_direct_every_executor(self):
        points = planar_workload(seed=427)
        sizes = ((1.0, 1.0), (2.0, 1.5), (0.5, 2.0))
        direct = batched_maxrs_rectangles(points, sizes)
        query = Query.batched_rectangles(sizes)
        for executor in EXECUTORS:
            result = solve_with(executor, points, query)
            batch = result.meta["batch"]
            assert [value for value, _, _ in batch] == \
                   [r.value for r in direct], "executor=%s" % executor
            assert result.exact and all(exact for _, _, exact in batch)
            assert result.value == max(r.value for r in direct)

    def test_intervals_match_direct(self):
        xs = [((i * 37) % 101 / 9.0,) for i in range(150)]
        lengths = (0.5, 1.0, 2.0)
        direct = batched_maxrs_1d(xs, lengths)
        result = solve_with("serial", xs, Query.batched_intervals(lengths))
        assert [value for value, _, _ in result.meta["batch"]] == \
               [r.value for r in direct]

    def test_solve_direct_is_bitwise(self):
        points = planar_workload(seed=428)
        sizes = ((1.0, 1.0), (2.0, 1.5))
        with QueryEngine(points, executor="serial") as engine:
            result = engine.solve_direct(Query.batched_rectangles(sizes))
        direct = batched_maxrs_rectangles(points, sizes)
        assert result.meta["batch"] == tuple(
            (r.value, r.center, r.exact) for r in direct)


class TestDecayedEngine:
    def test_always_routed_direct_and_bitwise(self):
        points = planar_workload(seed=429)
        query = Query.decayed_disk(0.8, 0.95)
        reference = decayed_maxrs(points, decay=0.95, radius=0.8)
        for executor in EXECUTORS:
            result = solve_with(executor, points, query)
            assert (result.value, result.center) == \
                   (reference.value, reference.center), "executor=%s" % executor
            assert result.meta["routed"] == "direct"

    def test_batch_plan_names_decayed_queries_as_direct(self):
        points = planar_workload(seed=430)
        decayed = Query.decayed_rectangle(1.0, 1.0, 0.9)
        halo = Query.rectangle(1.0, 1.0)
        with QueryEngine(points, executor="serial") as engine:
            plan = engine.batch_plan([decayed, halo])
        assert decayed in plan.direct and halo not in plan.direct

    def test_as_of_horizon_excludes_late_arrivals(self):
        points = planar_workload(seed=431)
        horizon = len(points) // 2
        full = decayed_maxrs(points, decay=0.9, radius=0.8)
        truncated = decayed_maxrs(points, decay=0.9, radius=0.8, as_of=horizon)
        reference = decayed_maxrs(points[:horizon + 1], decay=0.9, radius=0.8)
        assert truncated.value == reference.value
        assert truncated.meta["as_of"] == horizon
        assert full.meta["as_of"] == len(points) - 1


class TestColoredBox3dEngine:
    def test_engine_value_matches_direct_every_executor(self):
        points, colors = box_workload()
        query = Query.colored_box3d(1.5, 1.5, 1.5)
        direct = colored_maxrs_box3d_exact(points, (1.5, 1.5, 1.5), colors=colors)
        assert direct.value >= 1
        for executor in EXECUTORS:
            result = solve_with(executor, points, query, colors=colors)
            assert result.value == direct.value, "executor=%s" % executor
            assert result.exact and result.shape == "box"

    def test_matches_bruteforce_corner_enumeration(self):
        points, colors = box_workload(n=27, seed=433)
        wx, wy, wz = 1.2, 1.0, 1.4
        result = colored_maxrs_box3d_exact(points, (wx, wy, wz), colors=colors)
        best = 0
        for ax, _, _ in points:
            for _, ay, _ in points:
                for _, _, az in points:
                    covered = {
                        color for (x, y, z), color in zip(points, colors)
                        if ax <= x <= ax + wx and ay <= y <= ay + wy
                        and az - wz <= z <= az
                    }
                    best = max(best, len(covered))
        assert result.value == best

    def test_plain_box_shape_rejected(self):
        with pytest.raises(ValueError, match="colored_box3d"):
            Query(shape="box", width=1.0, height=1.0, depth=1.0)

    def test_dim_mismatch_rejected(self):
        with QueryEngine(planar_workload(n=20), executor="serial") as engine:
            with pytest.raises(ValueError):
                engine.solve(Query.colored_box3d(1.0, 1.0, 1.0))


# --------------------------------------------------------------------------- #
# serving acceptance: mixed zoo trace, bit-identical under routing="direct"
# --------------------------------------------------------------------------- #

class TestServiceZooTrace:
    def _assert_bit_identical_replay(self, coords, colors, trace):
        monitor = ShardedMaxRSMonitor(radius=0.5)
        with MaxRSService(coords, colors=colors, monitor=monitor,
                          routing="direct", cache_ttl=3600.0) as service:
            report = service.serve_trace(trace, window=32)
        families = set()
        for request, response in zip(trace, report.responses):
            assert response.error is None, response.error
            if request.kind != "query":
                continue
            served = response.served_query
            families.add(served.family)
            reference = solve_query(served, coords, None,
                                    colors if served.colored else None)
            assert (response.result.value, response.result.center,
                    response.result.exact) == \
                   (reference.value, reference.center, reference.exact), \
                "served %s differs from the direct call" % served.describe()
            if served.family == "topk":
                assert response.result.meta["placements"] == \
                       reference.meta["placements"]
            if served.family == "batched":
                assert response.result.meta["batch"] == reference.meta["batch"]
        return families

    def test_planar_zoo_trace(self):
        coords = planar_workload(n=220, seed=434)
        trace = request_trace(120, families=("topk", "decayed", "batched"),
                              seed=6, extent=10.0, update_every=30,
                              update_batch=6)
        families = self._assert_bit_identical_replay(coords, None, trace)
        assert {"single", "topk", "decayed", "batched"} <= families

    def test_colored_box3d_trace(self):
        coords, colors = box_workload(n=108, seed=435)
        trace = request_trace(40, catalog=[], families=("colored_box3d",),
                              seed=7, extent=8.0, update_every=20,
                              update_batch=4)
        families = self._assert_bit_identical_replay(coords, colors, trace)
        assert families == {"colored_box3d"}

    def test_decay_tick_invalidates_served_monitor_answers(self):
        """A tick must bump the generation token the cache keys on, exactly
        like an update batch does -- stale pre-tick answers must not serve."""
        monitor = DecayingMaxRSMonitor(decay=0.5, radius=1.0, seed=3)
        for i in range(10):
            monitor.observe((0.1 * i, 0.0), weight=2.0)
        with MaxRSService(planar_workload(n=20), monitor=monitor,
                          cache_ttl=3600.0) as service:
            first = service.serve([ServiceRequest.read()])[0]
            cached = service.serve([ServiceRequest.read()])[0]
            monitor.tick()
            fresh = service.serve([ServiceRequest.read()])[0]
        assert first.served_from == "monitor"
        assert cached.served_from == "cache"
        assert fresh.served_from == "monitor", \
            "tick did not invalidate the monitor cache"
        assert fresh.result.value == pytest.approx(0.5 * first.result.value)


class TestTraceRoundTrip:
    def test_zoo_queries_survive_jsonl(self, tmp_path):
        trace = request_trace(
            60, catalog=[],
            families=("topk", "decayed", "batched", "batched_interval",
                      "colored_box3d"),
            seed=9, update_every=25, update_batch=4)
        path = tmp_path / "zoo_trace.jsonl"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        families = set()
        for original, restored in zip(trace, loaded):
            assert restored.kind == original.kind
            if original.kind == "query":
                assert restored.query == original.query
                families.add(original.query.family)
        assert families == {"topk", "decayed", "batched", "colored_box3d"}
        # Tuple coercion matters: lengths/sizes must come back hashable.
        for request in loaded:
            if request.kind == "query" and request.query.family == "batched":
                hash(request.query)

    def test_zoo_catalog_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown zoo families"):
            zoo_query_catalog(families=("topk", "fractal"))
