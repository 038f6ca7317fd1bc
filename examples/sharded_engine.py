"""Sharded engine: serve a batch of mixed MaxRS queries through QueryEngine.

Mirrors ``examples/quickstart.py`` for the execution-engine layer
(:mod:`repro.engine`).  A clustered workload is loaded into a
:class:`~repro.engine.planner.QueryEngine`, which spatially shards the data
with a halo matched to each query's extent, fans the shards out over a
pool of worker processes that read the dataset from shared memory
(``executor="shared-process"``, :mod:`repro.parallel`), and merges the
per-shard optima (exactly -- see ``repro/engine/sharding.py`` for the
argument).  The engine keeps no answers; caching is the serving layer's
job (``examples/query_serving.py``).
The script shows:

* a heterogeneous batch (exact disk, exact rectangle, approximate ball, and
  a duplicate) solved in one call, with the duplicate deduplicated;
* the shard tasks one batch submits, counted by the engine;
* a colored engine answering entity-coverage queries over trajectories;
* agreement with the direct (unsharded) solver calls.

Run with:  python examples/sharded_engine.py
"""

from repro.datasets import clustered_points, trajectory_colored_points
from repro.engine import Query, QueryEngine

# The engine handles this workload in well under a second; the size is kept
# moderate only because the script also runs the O(n^2 log n) *unsharded*
# disk sweep once, as the reference the engine's answer is checked against.
N_POINTS = 1500
ENTITIES = 12
WORKERS = 4


def main() -> None:
    points = clustered_points(N_POINTS, dim=2, extent=30.0, clusters=5, seed=17)
    print("Input: %d clustered points in [0, 30]^2" % len(points))

    # ----------------------------------------------------------------- #
    # A mixed batch through one engine.
    # ----------------------------------------------------------------- #
    batch = [
        Query.disk(1.0),
        Query.rectangle(2.0, 2.0),
        Query.disk_approx(1.0, epsilon=0.4, seed=0),
        Query.disk(1.0),                       # duplicate: deduplicated for free
    ]
    with QueryEngine(points, executor="shared-process", workers=WORKERS) as engine:
        results = engine.solve_batch(batch)
        print("\nBatch of %d queries (%d unique) on a %d-worker process pool"
              % (len(batch), len(set(batch)), WORKERS))
        for query, result in zip(batch, results):
            print("  %-28s -> value %6.0f  (shards=%d)"
                  % (query.describe(), result.value, result.meta["shards"]))
        assert results[0].value == results[3].value

        stats = engine.stats
        print("planner stats: %d queries, %d unique solved, %d shard tasks"
              % (stats["queries"], len(set(batch)), stats["shards_solved"]))

        # The sharded answers are the true optima, not approximations of them.
        direct = engine.solve_direct(Query.disk(1.0))
        print("direct (unsharded) exact disk value: %.0f -- engine agrees: %s"
              % (direct.value, direct.value == results[0].value))

    # ----------------------------------------------------------------- #
    # Colored queries: cover as many distinct entities as possible.
    # ----------------------------------------------------------------- #
    colored_points, colors = trajectory_colored_points(ENTITIES, samples_per_entity=8,
                                                       extent=20.0, seed=23)
    with QueryEngine(colored_points, colors=colors, executor="shared-process",
                     workers=WORKERS) as engine:
        exact = engine.solve(Query.colored_disk(1.5))
        approx = engine.solve(Query.colored_disk_approx(1.5, epsilon=0.3, seed=5))
        print("\nColored MaxRS over %d trajectories (radius 1.5)" % ENTITIES)
        print("  exact sweep through the engine:  %d distinct entities" % exact.value)
        print("  color-sampling (Theorem 1.6):    %d distinct entities" % approx.value)


if __name__ == "__main__":
    main()
