"""repro -- reproduction of "A Bouquet of Results on Maximum Range Sum" (PODS 2025).

The package implements the paper's three families of results plus every
baseline and substrate they rely on:

* **Dynamic / static approximate MaxRS for d-balls (Technique 1)** --
  :func:`max_range_sum_ball` (Theorem 1.2), :class:`DynamicMaxRS`
  (Theorem 1.1), :func:`colored_maxrs_ball` (Theorem 1.5).
* **Colored disk MaxRS via output-sensitivity and color sampling
  (Technique 2)** -- :func:`colored_maxrs_disk_arrangement` (Lemma 4.2),
  :func:`colored_maxrs_disk_output_sensitive` (Theorem 4.6) and
  :func:`colored_maxrs_disk` (Theorem 1.6).
* **Batched MaxRS / batched smallest k-enclosing interval and the
  (min,+)-convolution reduction chains** (Theorems 1.3 and 1.4) --
  :mod:`repro.batched` and :mod:`repro.convolution`.
* **Exact baselines** -- interval, rectangle [IA83, NB95] and disk [CL86]
  MaxRS plus the straightforward colored disk sweep, in :mod:`repro.exact`.
* **Workload generators and the benchmark harness** -- :mod:`repro.datasets`
  (point clouds, update streams, serving request traces) and
  :mod:`repro.bench`.

On top of the paper's algorithms the package grows a serving stack
(``docs/architecture.md`` has the layer diagram and guarantee table):

* **Kernel backends** (:mod:`repro.kernels`) -- pure-Python reference vs
  vectorised NumPy implementations of every sweep's hot inner loop, behind
  a registry every solver's ``backend=`` argument selects from.
* **Sharded execution engine** (:mod:`repro.engine`) -- :class:`QueryEngine`
  serves heterogeneous :class:`Query` batches over one dataset: halo
  sharding, pluggable executors and in-batch deduplication.
* **Zero-copy process execution** (:mod:`repro.parallel`) --
  :class:`SharedDatasetStore` publishes a dataset once as OS shared-memory
  arrays and :class:`SharedMemoryProcessExecutor` runs persistent,
  crash-recovering workers that receive only shard index descriptors
  (``executor="shared-process"`` everywhere an executor is named;
  ``docs/parallel.md``).
* **Streaming monitors** (:mod:`repro.streaming`) -- continuous hotspot
  answers over insert/delete streams with batched ingestion, dirty-shard
  recomputation and sliding windows.
* **Serving front end** (:mod:`repro.service`) -- :class:`MaxRSService`
  faces concurrent request traffic with coalescing, micro-batching, TTL'd
  generation-keyed caching and per-request latency metrics
  (``docs/serving.md``).
* **Observability** (:mod:`repro.obs`) -- hierarchical spans threaded
  through service, engine, executors and kernels (worker-side capture
  included), a counters/gauges/histograms registry, and JSONL /
  Prometheus / tree exporters behind ``REPRO_TRACE=1``, the CLI
  ``--trace-out`` flags and ``repro stats`` (``docs/observability.md``).
* **Network front end** (:mod:`repro.net`) -- :class:`MaxRSServer`, an
  asyncio HTTP server with a bounded admission queue (overload sheds with
  503 instead of queueing unboundedly) over :class:`MaxRSService`, plus an
  open-loop load generator that replays recorded traces at their arrival
  timestamps (``repro serve --listen``, ``repro loadgen``;
  ``docs/networking.md``).

Quickstart
----------
>>> from repro import max_range_sum_ball
>>> points = [(0.0, 0.0), (0.5, 0.5), (5.0, 5.0)]
>>> result = max_range_sum_ball(points, radius=1.0, epsilon=0.3, seed=0)
>>> result.value >= 1
True
"""

from .core import (
    Ball,
    Box,
    ColoredPoint,
    DynamicMaxRS,
    Interval,
    MaxRSResult,
    Point,
    WeightedPoint,
    colored_depth,
    colored_maxrs_ball,
    colored_maxrs_disk,
    colored_maxrs_disk_arrangement,
    colored_maxrs_disk_output_sensitive,
    coverage_count,
    covering_colors,
    estimate_colored_opt_ball,
    estimate_opt_ball,
    max_range_sum_ball,
    weighted_depth,
)
from .exact import (
    colored_maxrs_disk_sweep,
    colored_maxrs_interval_exact,
    colored_maxrs_rectangle_exact,
    maxrs_disk_exact,
    maxrs_interval_exact,
    maxrs_rectangle_exact,
)
from .batched import (
    batched_maxrs_1d,
    batched_maxrs_rectangles,
    batched_smallest_enclosing_intervals,
    smallest_k_enclosing_interval,
)
from .convolution import (
    max_plus_convolution,
    min_plus_convolution,
    min_plus_via_batched_maxrs,
    min_plus_via_bsei,
)
from .approx import (
    maxrs_disk_grid_decomposition,
    maxrs_disk_sampled,
    maxrs_rectangle_sampled,
)
from .boxes import (
    colored_maxrs_box,
    colored_maxrs_box_arrangement,
    colored_maxrs_box_output_sensitive,
    colored_maxrs_box3d_exact,
    estimate_colored_opt_box,
)
from .exact import maxrs_box3d_exact
from .streaming import (
    ApproximateMaxRSMonitor,
    ExactRecomputeMonitor,
    ShardedMaxRSMonitor,
    SlidingWindowMaxRSMonitor,
)
# The executor interface stays engine-scoped (repro.engine.Executor,
# SerialExecutor, get_executor).
from .engine import Query, QueryEngine
# Zero-copy shared-memory process execution: the dataset is published once
# as shared_memory-backed arrays and workers receive only shard descriptors
# (docs/parallel.md).  SharedMemoryProcessExecutor has no stdlib name
# collision, so it is re-exported alongside its store.
from . import parallel
from .parallel import SharedDatasetStore, SharedMemoryProcessExecutor
# Kernel backend registry: every sweep solver accepts backend="auto" |
# "python" | "numpy"; see repro.kernels for the contract and how to add one.
from . import kernels
# Serving layer: the concurrent front end over the engine + monitors, with
# request coalescing, micro-batching and TTL'd caching (docs/serving.md).
from . import service
from .service import MaxRSService, ServiceRequest, ServiceResponse
# Observability: hierarchical spans + metrics + exporters across every layer
# above (REPRO_TRACE=1, --trace-out, repro stats; docs/observability.md).
from . import obs
# Network front end: the asyncio HTTP server over MaxRSService plus the
# open-loop load generator (repro serve --listen, repro loadgen;
# docs/networking.md).
from . import net
from .net import MaxRSServer
from .regions import (
    DecayingMaxRSMonitor,
    decayed_maxrs,
    top_k_maxrs_disk,
    top_k_maxrs_rectangle,
)

# Single source of truth for the version is the package metadata
# (pyproject.toml); the literal fallback covers PYTHONPATH=src usage from a
# checkout, where the distribution is not installed.
try:  # pragma: no cover - depends on how the package is deployed
    from importlib.metadata import version as _dist_version

    __version__ = _dist_version("maxrs-repro")
except Exception:  # pragma: no cover - uninstalled checkout
    __version__ = "1.1.0"

__all__ = [
    "__version__",
    # primitives
    "Point",
    "WeightedPoint",
    "ColoredPoint",
    "Ball",
    "Box",
    "Interval",
    "MaxRSResult",
    # depth evaluators
    "weighted_depth",
    "colored_depth",
    "covering_colors",
    "coverage_count",
    # Technique 1
    "max_range_sum_ball",
    "estimate_opt_ball",
    "DynamicMaxRS",
    "colored_maxrs_ball",
    "estimate_colored_opt_ball",
    # Technique 2
    "colored_maxrs_disk",
    "colored_maxrs_disk_arrangement",
    "colored_maxrs_disk_output_sensitive",
    # exact baselines
    "maxrs_interval_exact",
    "maxrs_rectangle_exact",
    "maxrs_disk_exact",
    "maxrs_box3d_exact",
    "colored_maxrs_disk_sweep",
    "colored_maxrs_rectangle_exact",
    "colored_maxrs_interval_exact",
    # prior-work approximation baselines
    "maxrs_disk_sampled",
    "maxrs_rectangle_sampled",
    "maxrs_disk_grid_decomposition",
    # Technique 2 extension to boxes (Section 7, open problem 1)
    "colored_maxrs_box",
    "colored_maxrs_box_arrangement",
    "colored_maxrs_box_output_sensitive",
    "colored_maxrs_box3d_exact",
    "estimate_colored_opt_box",
    # streaming monitors (Section 1.1 application layer)
    "ApproximateMaxRSMonitor",
    "SlidingWindowMaxRSMonitor",
    "ExactRecomputeMonitor",
    "ShardedMaxRSMonitor",
    # sharded parallel execution engine
    "Query",
    "QueryEngine",
    # zero-copy shared-memory process execution
    "parallel",
    "SharedDatasetStore",
    "SharedMemoryProcessExecutor",
    # pluggable kernel backends (python / numpy)
    "kernels",
    # concurrent query-serving front end
    "service",
    "MaxRSService",
    "ServiceRequest",
    "ServiceResponse",
    # cross-layer tracing + metrics
    "obs",
    # asyncio socket front end + open-loop load generator
    "net",
    "MaxRSServer",
    # region-search extensions (Section 1.6 related work)
    "top_k_maxrs_rectangle",
    "top_k_maxrs_disk",
    "DecayingMaxRSMonitor",
    "decayed_maxrs",
    # batched problems
    "batched_maxrs_1d",
    "batched_maxrs_rectangles",
    "smallest_k_enclosing_interval",
    "batched_smallest_enclosing_intervals",
    # convolutions and reductions
    "min_plus_convolution",
    "max_plus_convolution",
    "min_plus_via_batched_maxrs",
    "min_plus_via_bsei",
]
