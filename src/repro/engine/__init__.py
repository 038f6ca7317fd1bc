"""Sharded parallel MaxRS execution engine.

The rest of the library exposes one-shot solver *functions*; this package
turns them into a query *engine* that scales across cores and query batches:

* :mod:`repro.engine.sharding` -- spatial tiles with a halo matched to the
  query extent, so each shard's local optimum is globally valid and the
  global optimum is the max over shards;
* :mod:`repro.engine.executors` -- the serial backend and the
  ``"shared-process"`` worker pool (:mod:`repro.parallel`) behind one
  ``map`` interface;
* :mod:`repro.engine.planner` -- :class:`QueryEngine`, which routes
  heterogeneous :class:`Query` batches to the right solvers and
  deduplicates identical queries within a batch (result caching is the
  serving layer's job, :mod:`repro.service.cache`);
* :mod:`repro.engine.merge` -- the shard-result reduction that preserves
  exactness and approximation guarantees.

Quickstart
----------
>>> from repro.engine import Query, QueryEngine
>>> engine = QueryEngine([(0.0, 0.0), (0.5, 0.5), (5.0, 5.0)], executor="serial")
>>> batch = [Query.disk(1.0), Query.rectangle(2.0, 2.0), Query.disk(1.0)]
>>> [r.value for r in engine.solve_batch(batch)]
[2.0, 2.0, 2.0]
"""

from .executors import Executor, SerialExecutor, get_executor
from .merge import merge_shard_results
from .planner import (
    BatchPlan,
    Query,
    QueryEngine,
    dataset_fingerprint,
    solve_query,
)
from .sharding import ShardPlan, choose_tile_sides, plan_shards, tile_keys_for_point

__all__ = [
    "BatchPlan",
    "Query",
    "QueryEngine",
    "dataset_fingerprint",
    "solve_query",
    "Executor",
    "SerialExecutor",
    "get_executor",
    "ShardPlan",
    "plan_shards",
    "choose_tile_sides",
    "tile_keys_for_point",
    "merge_shard_results",
]
