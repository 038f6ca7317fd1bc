"""Property/differential suite for the shared-memory execution path.

The load-bearing claim of `repro.parallel` is *bit-for-bit equality*: the
descriptor task path must reconstruct every shard's point lists exactly
(float64 round-trips are exact, palettes restore the original color
objects), so for any dataset and any query the serial and shared-process
executors must return identical results -- value AND placement, not just
value within tolerance.

The suite crosses randomized datasets (uniform / clustered / hotspot) with
the solver families (exact interval / rectangle / disk, the approximate
d-ball solver, colored disk) and every executor.  Each assertion message
carries the generating seed and case coordinates so a failure is a one-line
repro; the wide seed sweep runs on the scheduled `slow` CI leg.
"""

import pytest

from repro.datasets import (
    clustered_points,
    trajectory_colored_points,
    uniform_weighted_points,
    weighted_hotspot_points,
)
from repro.engine import Query, QueryEngine

EXECUTORS = ["serial", "shared-process"]
KINDS = ["uniform", "clustered", "hotspot"]
FAST_SEEDS = [401, 402]
SLOW_SEEDS = [403, 404, 405, 406, 407, 408]

#: The solver families of one weighted planar batch: exact rectangle (the
#: linearithmic sweep), exact disk (the quadratic sweep) and the seeded
#: approximate d-ball solver (sampled cost class).
PLANAR_QUERIES = [
    Query.rectangle(2.0, 1.5),
    Query.disk(1.0),
    Query.disk_approx(1.0, epsilon=0.3, seed=11),
]


def workload(kind, n, seed):
    """One of the three random workload families the satellite names."""
    if kind == "uniform":
        return uniform_weighted_points(n, dim=2, extent=10.0, seed=seed)
    if kind == "clustered":
        return clustered_points(n, dim=2, extent=10.0, clusters=3, seed=seed), None
    return weighted_hotspot_points(n, dim=2, extent=10.0, seed=seed)


def assert_identical(result, reference, context):
    """Bit-for-bit agreement: value and placement, no tolerance."""
    assert result.value == reference.value and result.center == reference.center, (
        "executor disagreement (%s): value=%r center=%r vs serial value=%r "
        "center=%r -- repro: rerun this case with the printed seed"
        % (context, result.value, result.center,
           reference.value, reference.center)
    )


def run_planar_case(kind, seed, n=160):
    points, weights = workload(kind, n, seed)
    with QueryEngine(points, weights=weights, executor="serial") as engine:
        reference = engine.solve_batch(PLANAR_QUERIES)
    for executor in EXECUTORS[1:]:
        with QueryEngine(points, weights=weights, executor=executor,
                         workers=2) as engine:
            results = engine.solve_batch(PLANAR_QUERIES)
        for query, result, ref in zip(PLANAR_QUERIES, results, reference):
            assert_identical(result, ref,
                             "kind=%s seed=%d n=%d executor=%s query=%s"
                             % (kind, seed, n, executor, query.describe()))


def run_interval_case(seed, n=150):
    xs = [((seed * 31 + i * 37) % 1000 / 91.0,) for i in range(n)]
    queries = [Query.interval(1.3), Query.interval(0.7)]
    with QueryEngine(xs, executor="serial") as engine:
        reference = engine.solve_batch(queries)
    for executor in EXECUTORS[1:]:
        with QueryEngine(xs, executor=executor, workers=2) as engine:
            results = engine.solve_batch(queries)
        for query, result, ref in zip(queries, results, reference):
            assert_identical(result, ref, "interval seed=%d executor=%s query=%s"
                             % (seed, executor, query.describe()))


def run_colored_case(seed, entities=10):
    points, colors = trajectory_colored_points(entities, samples_per_entity=8,
                                               dim=2, extent=8.0, seed=seed)
    queries = [Query.colored_disk(1.5),
               Query.colored_disk_approx(1.5, epsilon=0.2, seed=7)]
    with QueryEngine(points, colors=colors, executor="serial") as engine:
        reference = engine.solve_batch(queries)
    for executor in EXECUTORS[1:]:
        with QueryEngine(points, colors=colors, executor=executor,
                         workers=2) as engine:
            results = engine.solve_batch(queries)
        for query, result, ref in zip(queries, results, reference):
            assert_identical(result, ref, "colored seed=%d executor=%s query=%s"
                             % (seed, executor, query.describe()))


# --------------------------------------------------------------------------- #
# fast leg (tier-1)
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("seed", FAST_SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_planar_families_agree_across_executors(kind, seed):
    run_planar_case(kind, seed)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_interval_family_agrees_across_executors(seed):
    run_interval_case(seed)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_colored_family_agrees_across_executors(seed):
    run_colored_case(seed)


def test_shared_process_repeat_batches_reuse_store_and_pool():
    """Successive batches on one engine hit the same store and pool and stay
    bit-identical to serial (the persistent-worker materialisation cache must
    not leak stale data across plans)."""
    points, weights = workload("clustered", 200, 409)
    with QueryEngine(points, weights=weights, executor="serial") as serial:
        reference = [serial.solve(q) for q in PLANAR_QUERIES]
    with QueryEngine(points, weights=weights, executor="shared-process",
                     workers=2) as engine:
        store = engine.store
        assert store is not None and not store.closed
        for round_number in range(2):
            for query, ref in zip(PLANAR_QUERIES, reference):
                result = engine.solve(query)
                assert_identical(result, ref, "round=%d query=%s"
                                 % (round_number, query.describe()))
        assert engine.store is store  # one publication for the engine's life
    assert store.closed


def test_ndarray_inputs_work_on_both_kernel_backends():
    """The solvers' array fast path must engage only when the call resolves
    to the NumPy kernel: small ndarray inputs (auto -> python loops) and
    explicit backend="python" must keep working, and the array path must
    answer bit-identically to the equivalent list input."""
    import numpy as np

    from repro.exact import (
        maxrs_disk_exact,
        maxrs_interval_exact,
        maxrs_rectangle_exact,
    )

    small = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    assert maxrs_rectangle_exact(small, width=1.0, height=1.0).value == 3.0
    assert maxrs_disk_exact(small, radius=1.0).value == 3.0
    assert maxrs_interval_exact(np.array([[0.0], [0.5], [3.0]]),
                                length=1.0).value == 2.0

    big = np.random.default_rng(411).uniform(0.0, 30.0, (2000, 2))
    as_list = [tuple(row) for row in big.tolist()]
    for backend in ("auto", "numpy", "python"):
        from_array = maxrs_rectangle_exact(big, width=1.5, height=1.0,
                                           backend=backend)
        from_list = maxrs_rectangle_exact(as_list, width=1.5, height=1.0,
                                          backend=backend)
        assert_identical(from_array, from_list, "ndarray-vs-list backend=%s"
                         % backend)


def test_shared_process_engine_matches_direct_solver():
    """The sharded shared-process answer equals the unsharded direct call on
    the optimum value (the engine's standing guarantee, now over shm)."""
    points, weights = workload("hotspot", 220, 410)
    with QueryEngine(points, weights=weights, executor="shared-process",
                     workers=2) as engine:
        sharded = engine.solve(Query.disk(1.0))
        direct = engine.solve_direct(Query.disk(1.0))
    assert abs(sharded.value - direct.value) < 1e-9


# --------------------------------------------------------------------------- #
# wide randomized leg (scheduled CI)
# --------------------------------------------------------------------------- #

@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_slow_wide_planar_sweep(kind, seed):
    run_planar_case(kind, seed, n=300)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_slow_wide_colored_and_interval_sweep(seed):
    run_interval_case(seed, n=300)
    run_colored_case(seed, entities=14)
