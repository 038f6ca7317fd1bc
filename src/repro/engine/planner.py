"""The query engine: routing, deduplication and sharded execution.

:class:`QueryEngine` turns the library's one-shot solver functions into a
batch-serving engine over one dataset:

* a :class:`Query` is a frozen, hashable description of what to solve --
  shape (disk / rectangle / interval), exact or approximate, weighted or
  colored -- so identical queries in a batch deduplicate for free (and
  the serving layer's result cache, :mod:`repro.service.cache`, can key on
  it);
* the planner routes each query to the right solver (the same functions the
  rest of the library exposes), shards the dataset with a halo matched to
  the query's extent (:mod:`repro.engine.sharding`), runs the shards on a
  pluggable executor (:mod:`repro.engine.executors`) and folds the results
  back together (:mod:`repro.engine.merge`);
* shardings are memoised per halo (in an LRU bounded by the points they
  index) so queries with the same extent share the partitioning work.  The
  engine keeps no answers: every batch is solved, and a re-issued query is
  re-solved unless a cache above the engine (the service's) answers it.

The engine holds its dataset once, as columns: a contiguous float64
``(n, d)`` coordinate array, ``(n,)`` weights and int64 color codes plus a
palette.  Solves bound for the NumPy kernels take array views; tuple lists
are built once, on first need, for the pure-Python and colored solvers.
Shard tasks from all distinct queries of a batch are flattened into one
task list before hitting the executor, so a batch parallelises across
queries *and* shards at once; every executor runs the same task function.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..batched import batched_maxrs_1d, batched_maxrs_rectangles
from ..boxes import colored_maxrs_box, colored_maxrs_box3d_exact
from ..core import colored_maxrs_disk, max_range_sum_ball
from ..core._inputs import normalize_colored, normalize_weighted
from ..core.geometry import ColoredPoint
from ..core.result import MaxRSResult
from ..exact import (
    colored_maxrs_disk_sweep,
    colored_maxrs_interval_exact,
    colored_maxrs_rectangle_exact,
    maxrs_disk_exact,
    maxrs_interval_exact,
    maxrs_rectangle_exact,
)
from ..kernels import resolve_backend
from ..obs import tracing as obs
from ..regions.decay import decayed_maxrs
from ..regions.topk import PlacementScore, top_k_maxrs_disk, top_k_maxrs_rectangle
from .executors import Executor, get_executor
from .merge import merge_batched_results, merge_shard_results
from .sharding import ShardArrays, ShardPlan, encode_colors, plan_shards

__all__ = [
    "BatchPlan",
    "Query",
    "QueryEngine",
    "dataset_fingerprint",
    "solve_query",
]

Coords = Tuple[float, ...]


# --------------------------------------------------------------------------- #
# query descriptions
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Query:
    """A hashable description of one MaxRS query.

    Use the named constructors (:meth:`disk`, :meth:`rectangle`,
    :meth:`interval`, their ``colored_`` / ``_approx`` variants, and the
    family constructors :meth:`topk_rectangle` / :meth:`topk_disk` /
    :meth:`batched_intervals` / :meth:`batched_rectangles` /
    :meth:`decayed_disk` / :meth:`decayed_rectangle` /
    :meth:`decayed_interval` / :meth:`colored_box3d`) rather than the raw
    dataclass fields.  Being frozen and hashable is what lets the planner
    deduplicate identical queries and the service key its result cache.

    ``family`` selects the long-tail query families beyond a single
    placement: ``"topk"`` asks for ``k`` greedy disjoint placements,
    ``"decayed"`` weights point ``i`` by ``gamma ** (as_of - i)`` of its
    arrival order, ``"batched"`` answers a whole tuple of interval lengths /
    rectangle sizes as one query, and ``"colored_box3d"`` is the exact
    colored (distinct-count) axis-aligned box in R^3.
    """

    shape: str                      # "disk" | "rectangle" | "interval" | "box"
    exact: bool = True
    colored: bool = False
    radius: Optional[float] = None
    width: Optional[float] = None
    height: Optional[float] = None
    length: Optional[float] = None
    epsilon: Optional[float] = None
    seed: Optional[int] = None
    #: Kernel backend ("auto" | "python" | "numpy" | a registered name) for
    #: the routed solver's inner loops.  Honoured by every weighted solver
    #: and the colored disk solvers; the colored rectangle/box/interval
    #: solvers have no kernel hooks yet and run their reference loops
    #: regardless.
    backend: str = "auto"
    #: Query family: "single" | "topk" | "batched" | "decayed" | "colored_box3d".
    family: str = "single"
    k: Optional[int] = None                       # topk: number of placements
    gamma: Optional[float] = None                 # decayed: per-tick decay factor
    as_of: Optional[int] = None                   # decayed: query horizon tick
    lengths: Optional[Tuple[float, ...]] = None   # batched intervals
    sizes: Optional[Tuple[Tuple[float, float], ...]] = None  # batched rectangles
    depth: Optional[float] = None                 # box: z side length

    def __post_init__(self):
        if self.shape not in ("disk", "rectangle", "interval", "box"):
            raise ValueError("unknown query shape %r" % self.shape)
        if self.family not in ("single", "topk", "batched", "decayed", "colored_box3d"):
            raise ValueError("unknown query family %r" % self.family)
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError("backend must be a non-empty string, got %r" % (self.backend,))
        # JSONL trace round-trips deliver lists; coerce back to tuples so the
        # query stays hashable and equal to its pre-serialisation self.
        if self.lengths is not None:
            object.__setattr__(self, "lengths",
                               tuple(float(value) for value in self.lengths))
        if self.sizes is not None:
            object.__setattr__(self, "sizes",
                               tuple((float(w), float(h)) for w, h in self.sizes))
        if self.colored and self.shape == "interval" and not self.exact:
            # There is no approximate colored interval path; before this
            # guard the router silently served the *exact* sweep for such
            # queries, misreporting an exact answer as approximate.
            raise ValueError(
                "approximate colored interval queries are not supported (no "
                "approx path exists; use Query.colored_interval() for the "
                "exact solver)")
        if self.family == "topk":
            if self.colored or not self.exact:
                raise ValueError("topk queries are exact and weighted")
            if self.k is None or self.k < 1:
                raise ValueError("topk queries need k >= 1, got %r" % (self.k,))
            if self.shape not in ("rectangle", "disk"):
                raise ValueError("topk queries support rectangles and disks, "
                                 "not %r" % self.shape)
        elif self.family == "decayed":
            if self.colored or not self.exact:
                raise ValueError("decayed queries are exact and weighted")
            if self.gamma is None or not 0.0 < self.gamma < 1.0:
                raise ValueError("decayed queries need gamma strictly between "
                                 "0 and 1, got %r" % (self.gamma,))
            if self.as_of is not None and self.as_of < 0:
                raise ValueError("as_of must be a non-negative tick")
            if self.shape == "box":
                raise ValueError("decayed queries support disk, rectangle and "
                                 "interval shapes")
        elif self.family == "colored_box3d":
            if self.shape != "box" or not self.colored or not self.exact:
                raise ValueError("colored_box3d queries are exact colored "
                                 "box-shaped queries")
        elif self.shape == "box":
            raise ValueError("box-shaped queries are served via "
                             "family='colored_box3d'")
        if self.family == "batched":
            if self.colored or not self.exact:
                raise ValueError("batched queries are exact and weighted")
            if self.shape == "interval":
                if not self.lengths or any(value <= 0 for value in self.lengths):
                    raise ValueError("batched interval queries need a non-empty "
                                     "tuple of positive lengths")
            elif self.shape == "rectangle":
                if not self.sizes or any(w <= 0 or h <= 0 for w, h in self.sizes):
                    raise ValueError("batched rectangle queries need a non-empty "
                                     "tuple of positive (width, height) sizes")
            else:
                raise ValueError("batched queries support interval lengths or "
                                 "rectangle sizes, not %r" % self.shape)
        elif self.shape == "disk":
            if self.radius is None or self.radius <= 0:
                raise ValueError("disk queries need a positive radius")
        elif self.shape == "rectangle":
            if self.width is None or self.height is None or self.width <= 0 or self.height <= 0:
                raise ValueError("rectangle queries need positive width and height")
        elif self.shape == "box":
            if (self.width is None or self.height is None or self.depth is None
                    or self.width <= 0 or self.height <= 0 or self.depth <= 0):
                raise ValueError("box queries need positive width, height and depth")
        else:
            if self.length is None or self.length <= 0:
                raise ValueError("interval queries need a positive length")
        if not self.exact and self.epsilon is None:
            raise ValueError("approximate queries need an epsilon")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def disk(radius: float, backend: str = "auto") -> "Query":
        """Exact weighted disk MaxRS (planar)."""
        return Query(shape="disk", radius=radius, backend=backend)

    @staticmethod
    def disk_approx(radius: float, epsilon: float = 0.25, seed: Optional[int] = 0,
                    backend: str = "auto") -> "Query":
        """(1/2 - eps)-approximate weighted d-ball MaxRS (Theorem 1.2)."""
        return Query(shape="disk", exact=False, radius=radius, epsilon=epsilon, seed=seed,
                     backend=backend)

    @staticmethod
    def rectangle(width: float, height: float, backend: str = "auto") -> "Query":
        """Exact weighted rectangle MaxRS (planar)."""
        return Query(shape="rectangle", width=width, height=height, backend=backend)

    @staticmethod
    def interval(length: float, backend: str = "auto") -> "Query":
        """Exact weighted interval MaxRS (1-d)."""
        return Query(shape="interval", length=length, backend=backend)

    @staticmethod
    def colored_disk(radius: float, backend: str = "auto") -> "Query":
        """Exact colored disk MaxRS (angular sweep)."""
        return Query(shape="disk", colored=True, radius=radius, backend=backend)

    @staticmethod
    def colored_disk_approx(radius: float, epsilon: float = 0.2,
                            seed: Optional[int] = 0, backend: str = "auto") -> "Query":
        """(1 - eps)-approximate colored disk MaxRS (Theorem 1.6)."""
        return Query(shape="disk", exact=False, colored=True, radius=radius,
                     epsilon=epsilon, seed=seed, backend=backend)

    @staticmethod
    def colored_rectangle(width: float, height: float) -> "Query":
        """Exact colored rectangle MaxRS."""
        return Query(shape="rectangle", colored=True, width=width, height=height)

    @staticmethod
    def colored_rectangle_approx(width: float, height: float, epsilon: float = 0.2,
                                 seed: Optional[int] = 0) -> "Query":
        """(1 - eps)-approximate colored box MaxRS (Theorem 1.6 analogue)."""
        return Query(shape="rectangle", exact=False, colored=True, width=width,
                     height=height, epsilon=epsilon, seed=seed)

    @staticmethod
    def colored_interval(length: float) -> "Query":
        """Exact colored interval MaxRS (1-d)."""
        return Query(shape="interval", colored=True, length=length)

    @staticmethod
    def topk_rectangle(width: float, height: float, k: int,
                       backend: str = "auto") -> "Query":
        """Greedy top-k disjoint rectangle placements (regions/topk)."""
        return Query(shape="rectangle", family="topk", k=k, width=width,
                     height=height, backend=backend)

    @staticmethod
    def topk_disk(radius: float, k: int, backend: str = "auto") -> "Query":
        """Greedy top-k disjoint disk placements (regions/topk)."""
        return Query(shape="disk", family="topk", k=k, radius=radius,
                     backend=backend)

    @staticmethod
    def batched_intervals(lengths: Sequence[float], backend: str = "auto") -> "Query":
        """Batched 1-d MaxRS: one answer per interval length (Theorem 1.3 oracle)."""
        return Query(shape="interval", family="batched", lengths=tuple(lengths),
                     backend=backend)

    @staticmethod
    def batched_rectangles(sizes: Sequence[Tuple[float, float]],
                           backend: str = "auto") -> "Query":
        """Batched planar MaxRS: one answer per (width, height) size."""
        return Query(shape="rectangle", family="batched",
                     sizes=tuple(tuple(size) for size in sizes), backend=backend)

    @staticmethod
    def decayed_disk(radius: float, gamma: float, as_of: Optional[int] = None,
                     backend: str = "auto") -> "Query":
        """Exact disk MaxRS under arrival-order exponential decay ([TT22])."""
        return Query(shape="disk", family="decayed", radius=radius, gamma=gamma,
                     as_of=as_of, backend=backend)

    @staticmethod
    def decayed_rectangle(width: float, height: float, gamma: float,
                          as_of: Optional[int] = None,
                          backend: str = "auto") -> "Query":
        """Exact rectangle MaxRS under arrival-order exponential decay."""
        return Query(shape="rectangle", family="decayed", width=width,
                     height=height, gamma=gamma, as_of=as_of, backend=backend)

    @staticmethod
    def decayed_interval(length: float, gamma: float, as_of: Optional[int] = None,
                         backend: str = "auto") -> "Query":
        """Exact interval MaxRS under arrival-order exponential decay (1-d)."""
        return Query(shape="interval", family="decayed", length=length,
                     gamma=gamma, as_of=as_of, backend=backend)

    @staticmethod
    def colored_box3d(width: float, height: float, depth: float) -> "Query":
        """Exact colored (distinct-count) axis-aligned box MaxRS in R^3."""
        return Query(shape="box", family="colored_box3d", colored=True,
                     width=width, height=height, depth=depth)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    def halo(self, dim: int) -> Tuple[float, ...]:
        """Per-axis bound on the distance from a placement's anchor to any
        point it covers -- the sharding halo for this query.  Batched
        queries take the per-axis maximum over their member extents, so one
        sharding is sound for every component."""
        if self.family == "batched":
            if self.shape == "interval":
                return (max(self.lengths),)
            return (max(w for w, _ in self.sizes), max(h for _, h in self.sizes))
        if self.shape == "disk":
            return (float(self.radius),) * dim
        if self.shape == "rectangle":
            return (float(self.width), float(self.height))
        if self.shape == "box":
            return (float(self.width), float(self.height), float(self.depth))
        return (float(self.length),)

    @property
    def cost_class(self) -> str:
        """How the routed solver's running time scales in the shard size,
        which drives the planner's sharding granularity:

        * ``"quadratic"`` -- the ``O(m^2 log m)`` sweeps with no pruning
          (colored rectangle, the colored 3-d box's z-slab sweep).  The
          smallest legal tiles both minimise total work and avoid
          stragglers, so sharding is a *work* optimisation even on one core.
        * ``"linearithmic"`` -- the ``O(m log m)`` sweeps (weighted rectangle
          and both intervals, plus the batched families that loop them), and
          the exact weighted and colored disk sweeps.  Sharding only buys
          parallelism, so shards should be coarse to keep halo replication
          low.  The disk sweeps are quadratic only in the worst case: both
          kernels prune circle pairs with a neighbour grid, so a point's cost
          depends on its local density, which a halo shard does not lower.
          Measured on the ``engine`` bench suite's clustered disk workload at
          1k points (radius 1, cold plans, serial executor with 1-4 workers,
          2-vCPU x86-64 VM), the direct call took 26 ms on the NumPy kernels
          against 42-44 ms sharded, and 155 ms on the Python loops against
          133-215 ms sharded.
        * ``"sampled"`` -- the near-linear approximate solvers, whose large
          per-call fixed costs argue for one shard per worker.

        The top-k and decayed families inherit the class of their per-round /
        underlying sweep.
        """
        if not self.exact:
            return "sampled"
        if self.colored and self.shape in ("rectangle", "box"):
            return "quadratic"
        return "linearithmic"

    @property
    def sweep_kernel(self) -> Optional[str]:
        """The kernel whose ``auto`` threshold governs this query's backend
        (:data:`repro.kernels.KERNEL_AUTO_THRESHOLDS`): ``"disk_sweep"``,
        ``"rectangle_sweep"`` or ``"interval_sweep"`` for the exact weighted
        families of that shape, whose solvers bottom out in that sweep;
        ``None`` (the default threshold) otherwise."""
        if self.exact and not self.colored and self.shape in (
                "disk", "rectangle", "interval"):
            return self.shape + "_sweep"
        return None

    @property
    def shard_mode(self) -> str:
        """How the engine may distribute this query over shards:

        * ``"halo"`` -- the standard plan: solve every halo shard once and
          max-merge (component-wise for batched queries);
        * ``"peel"`` -- top-k: per-round sharded re-peel (each greedy round
          is one sharded rank-1 solve on the still-unclaimed points);
        * ``"direct"`` -- sharded merge cannot be made sound, so the engine
          answers on the full dataset in one call.  Decayed queries are
          direct: a point's decayed weight depends on its *global* arrival
          index, which a halo shard cannot see.  :class:`BatchPlan.direct`
          names these queries so the routing decision is visible in the plan.
        """
        if self.family == "decayed":
            return "direct"
        if self.family == "topk":
            return "peel"
        return "halo"

    def describe(self) -> str:
        """Short human-readable label, used by the CLI and examples."""
        prefix = "colored " if self.colored else ""
        mode = "exact" if self.exact else "approx(eps=%g)" % self.epsilon
        if self.family == "batched":
            if self.shape == "interval":
                geom = "batched intervals m=%d" % len(self.lengths)
            else:
                geom = "batched rectangles m=%d" % len(self.sizes)
        elif self.shape == "disk":
            geom = "disk r=%g" % self.radius
        elif self.shape == "rectangle":
            geom = "rectangle %gx%g" % (self.width, self.height)
        elif self.shape == "box":
            geom = "box %gx%gx%g" % (self.width, self.height, self.depth)
        else:
            geom = "interval L=%g" % self.length
        if self.family == "topk":
            geom = "top-%d %s" % (self.k, geom)
        elif self.family == "decayed":
            horizon = "" if self.as_of is None else ", as_of=%d" % self.as_of
            geom = "decayed(gamma=%g%s) %s" % (self.gamma, horizon, geom)
        suffix = "" if self.backend == "auto" else ", backend=%s" % self.backend
        return "%s%s [%s%s]" % (prefix, geom, mode, suffix)


# --------------------------------------------------------------------------- #
# solver routing
# --------------------------------------------------------------------------- #

def solve_query(
    query: Query,
    coords: Sequence[Coords],
    weights: Optional[Sequence[float]],
    colors: Optional[Sequence[Hashable]],
) -> MaxRSResult:
    """Run the solver a query routes to, on explicit parallel-list data.

    This is the single dispatch point shared by the sharded path (one call
    per shard, possibly in a worker process) and the direct path (one call on
    the whole dataset).  Module-level so it is picklable for
    :class:`~repro.parallel.SharedMemoryProcessExecutor` workers.

    Under an active trace each call emits one ``kernel.solve`` span tagged
    with the query's shape/backend/mode and the input population -- the
    leaf every traced request tree bottoms out in.
    """
    with obs.span("kernel.solve", shape=query.shape, backend=query.backend,
                  exact=query.exact, colored=query.colored, n=len(coords)):
        return _route_query(query, coords, weights, colors)


def _topk_result(query: Query, placements: Sequence[PlacementScore],
                 n: int) -> MaxRSResult:
    """Fold a top-k placement list into one :class:`MaxRSResult`.

    The headline ``value``/``center`` are the rank-1 placement's; the full
    ranked list lives in ``meta["placements"]`` as plain tuples
    ``(rank, value, center, covered_points)`` so the result stays picklable
    and JSON-friendly.
    """
    records = tuple(
        (p.rank, float(p.value), tuple(float(c) for c in p.center),
         int(p.covered_points))
        for p in placements)
    meta = {"family": "topk", "k": query.k, "n": n, "placements": records}
    if placements:
        head = placements[0]
        return MaxRSResult(value=float(head.value),
                           center=tuple(float(c) for c in head.center),
                           shape=query.shape, exact=True, meta=meta)
    return MaxRSResult(value=0.0, center=None, shape=query.shape, exact=True,
                       meta=meta)


def _batched_result(query: Query, batch: Sequence[MaxRSResult],
                    n: int) -> MaxRSResult:
    """Fold a batched answer list into one :class:`MaxRSResult`.

    ``meta["batch"]`` carries one ``(value, center, exact)`` tuple per
    member length/size, in query order; the headline ``value``/``center``
    are the best member's (first index on ties).
    """
    components = tuple(
        (float(r.value),
         None if r.center is None else tuple(float(c) for c in r.center),
         bool(r.exact))
        for r in batch)
    best = max(range(len(components)), key=lambda i: components[i][0])
    meta = {"family": "batched", "n": n, "batch": components}
    return MaxRSResult(value=components[best][0], center=components[best][1],
                       shape=query.shape,
                       exact=all(component[2] for component in components),
                       meta=meta)


def _route_query(
    query: Query,
    coords: Sequence[Coords],
    weights: Optional[Sequence[float]],
    colors: Optional[Sequence[Hashable]],
) -> MaxRSResult:
    """The un-traced solver dispatch behind :func:`solve_query`."""
    if query.family == "topk":
        if query.shape == "rectangle":
            placements = top_k_maxrs_rectangle(
                coords, width=query.width, height=query.height, k=query.k,
                weights=weights, backend=query.backend)
        else:
            placements = top_k_maxrs_disk(
                coords, radius=query.radius, k=query.k, weights=weights,
                backend=query.backend)
        return _topk_result(query, placements, len(coords))
    if query.family == "batched":
        if query.shape == "interval":
            batch = batched_maxrs_1d(coords, query.lengths, weights=weights,
                                     backend=query.backend)
        else:
            batch = batched_maxrs_rectangles(coords, query.sizes,
                                             weights=weights,
                                             backend=query.backend)
        return _batched_result(query, batch, len(coords))
    if query.family == "decayed":
        return decayed_maxrs(coords, decay=query.gamma, radius=query.radius,
                             width=query.width, height=query.height,
                             length=query.length, as_of=query.as_of,
                             weights=weights, backend=query.backend)
    if query.shape == "box":
        return colored_maxrs_box3d_exact(
            coords, (query.width, query.height, query.depth), colors=colors)
    if query.colored:
        if query.shape == "disk":
            if query.exact:
                return colored_maxrs_disk_sweep(coords, radius=query.radius, colors=colors,
                                                backend=query.backend)
            return colored_maxrs_disk(coords, radius=query.radius, epsilon=query.epsilon,
                                      colors=colors, seed=query.seed, backend=query.backend)
        if query.shape == "rectangle":
            if query.exact:
                return colored_maxrs_rectangle_exact(coords, query.width, query.height,
                                                     colors=colors)
            return colored_maxrs_box(coords, query.width, query.height, query.epsilon,
                                     colors=colors, seed=query.seed)
        return colored_maxrs_interval_exact(coords, query.length, colors=colors)

    if query.shape == "disk":
        if query.exact:
            return maxrs_disk_exact(coords, radius=query.radius, weights=weights,
                                    backend=query.backend)
        return max_range_sum_ball(coords, radius=query.radius, epsilon=query.epsilon,
                                  weights=weights, seed=query.seed, backend=query.backend)
    if query.shape == "rectangle":
        return maxrs_rectangle_exact(coords, width=query.width, height=query.height,
                                     weights=weights, backend=query.backend)
    return maxrs_interval_exact(coords, length=query.length, weights=weights,
                                backend=query.backend)


def _array_inputs(query: Query, n: int) -> bool:
    """Whether ``query``'s solver takes NumPy arrays on ``n`` points: the
    exact weighted single and batched sweeps, when they resolve to the NumPy
    kernels (the solvers' ``prefer_arrays`` fast path).  Every other solver
    takes tuple lists."""
    return (query.exact and not query.colored
            and query.family in ("single", "batched")
            and resolve_backend(query.backend, n, query.sweep_kernel) == "numpy")


def _solve_shard_task(task) -> MaxRSResult:
    """Executor task: solve one query on one shard -- the one task function
    every executor runs.

    ``task`` is ``(query, source)`` or, traced, ``(query, source, tags)``.
    The source is a :class:`~repro.engine.sharding.ShardArrays` (the serial
    executor: the shard's slice of the engine's arrays)
    or a :class:`repro.parallel.ShardDescriptor` (shared-process: an index
    range into the published store, so no point data is pickled).  Both
    resolve through the same ``resolve(arrays=...)`` call: array slices for
    NumPy-bound sweeps, tuple lists otherwise.
    """
    query, source = task[0], task[1]
    coords, weights, colors = source.resolve(
        arrays=_array_inputs(query, len(source)))
    return solve_query(query, coords, weights, colors)


def _solve_shard_task_traced(task):
    """Traced executor task: :func:`_solve_shard_task` under a worker-side
    span capture, returning ``(result, records)`` so the parent can graft
    the shard's ``shard.solve`` subtree into its trace.

    The capture is unconditional -- the parent already decided to trace
    when it chose this task function, and worker processes may not share
    its environment or programmatic tracing switch.
    """
    with obs.capture("shard.solve", **task[2]) as captured:
        result = _solve_shard_task(task)
    return result, captured.records


# --------------------------------------------------------------------------- #
# dataset identity and batch plans
# --------------------------------------------------------------------------- #

def dataset_fingerprint(
    coords: Sequence[Coords],
    weights: Optional[Sequence[float]] = None,
    colors: Optional[Sequence[Hashable]] = None,
) -> str:
    """Stable content hash of a dataset, which the service's result cache
    keys on.

    Two engines over identical data produce identical fingerprints; any
    change to a coordinate, weight or color changes the fingerprint.
    """
    digest = hashlib.blake2b(digest_size=16)
    array = np.asarray(coords, dtype=float)
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    if weights is not None:
        digest.update(b"w")
        digest.update(np.asarray(weights, dtype=float).tobytes())
    if colors is not None:
        digest.update(b"c")
        digest.update(repr(list(colors)).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class BatchPlan:
    """What executing a query batch would cost, without executing it.

    Produced by :meth:`QueryEngine.batch_plan` for the serving layer
    (:mod:`repro.service`), which plans the cache-missing queries it routes
    through the sharded engine: the shard-task count bounds the work a flush
    will enqueue.

    Attributes
    ----------
    unique:
        The distinct queries of the batch, in first-appearance order (the
        order :meth:`QueryEngine.solve_batch` would solve them in).
    duplicates:
        How many submitted queries were duplicates of an earlier one (the
        coalescing opportunity).
    shard_tasks:
        Executor tasks a flush would submit: the sum of shard counts over
        the unique queries.
    direct:
        The unique queries the engine will answer *directly* (one
        full-dataset call, no shard merge) because their sharded merge
        cannot be made sound -- currently the decayed family, whose weights
        depend on global arrival order (see :attr:`Query.shard_mode`).  The
        plan says so explicitly so the serving layer can see the routing
        decision.
    """

    unique: Tuple[Query, ...]
    duplicates: int
    shard_tasks: int
    direct: Tuple[Query, ...] = ()


# --------------------------------------------------------------------------- #
# the engine
# --------------------------------------------------------------------------- #

class QueryEngine:
    """Serve heterogeneous MaxRS query batches over one dataset.

    Parameters
    ----------
    points, weights, colors:
        The dataset, in any form the library's solvers accept.  Colors are
        kept only when supplied explicitly or carried by ``ColoredPoint``
        inputs; colored queries require them.
    executor:
        ``"serial"``, ``"shared-process"``, or an
        :class:`~repro.engine.executors.Executor` instance.  ``None``
        (the default) honours the ``REPRO_EXECUTOR`` environment variable
        and otherwise stays serial.  ``"shared-process"`` (or a
        :class:`repro.parallel.SharedMemoryProcessExecutor` instance with no
        store bound, which the engine then binds) publishes the
        dataset once to a :class:`repro.parallel.SharedDatasetStore` the
        engine owns (released on :meth:`close`) and submits shard
        *descriptors* -- index ranges into the store -- instead of the
        shards' point arrays.
    workers:
        Worker count for the ``"shared-process"`` pool; defaults to the CPU
        count.
    target_shards:
        Optional override for the number of spatial shards per query.  By
        default the planner picks the granularity from the query's
        :attr:`Query.cost_class` (see :meth:`shard_plan`).

    The dataset is held once, as validated columns: a contiguous float64
    ``(n, d)`` coordinate array, ``(n,)`` weights and, for colored data,
    int64 color codes plus a palette -- the arrays a
    :class:`repro.parallel.SharedDatasetStore` publishes.  Sharding plans
    are memoised per extent in an LRU bounded by the points they index
    (``16 * n``: a plan indexes each point once per shard it lands in);
    least recently used plans are evicted between batches, and on
    ``"shared-process"`` their index blocks are unlinked.

    Examples
    --------
    >>> from repro.engine import Query, QueryEngine
    >>> engine = QueryEngine([(0.0, 0.0), (0.5, 0.5), (5.0, 5.0)])
    >>> engine.solve(Query.disk(1.0)).value
    2.0
    """

    def __init__(
        self,
        points: Sequence,
        *,
        weights: Optional[Sequence[float]] = None,
        colors: Optional[Sequence[Hashable]] = None,
        executor: Union[str, Executor, None] = None,
        workers: Optional[int] = None,
        target_shards: Optional[int] = None,
    ):
        if not isinstance(points, np.ndarray):
            points = list(points)
        coords, weight_arr, dim = normalize_weighted(
            points, weights, require_positive=False, prefer_arrays=True)
        # Copies: the engine must not alias a caller's mutable arrays.
        self._weights = np.array(weight_arr, dtype=np.float64)
        if (self._weights < 0).any():
            # Max-merging shard results is only sound when adding points can
            # never lower a placement's value; a shard blind to a nearby
            # negative-weight point would overestimate and win the merge.
            raise ValueError(
                "QueryEngine requires non-negative weights: the sharded max-merge "
                "is unsound otherwise (use the solvers directly for guard points)"
            )
        self._points = np.array(coords, dtype=np.float64, order="C").reshape(
            len(coords), dim)
        self.dim = dim
        color_list = None
        self._codes: Optional[np.ndarray] = None
        self._palette: Optional[Tuple[Hashable, ...]] = None
        if colors is not None or (not isinstance(points, np.ndarray) and any(
                isinstance(p, ColoredPoint) for p in points)):
            _, color_list, _ = normalize_colored(points, colors)
            self._codes, self._palette = encode_colors(color_list)
        # (coords, weights, colors) tuple lists for the solvers that take
        # them, built once on first need (see _inputs).
        self._lists = None

        self._executor = get_executor(executor, workers)
        self.target_shards = target_shards
        self.fingerprint = dataset_fingerprint(self._points, self._weights, color_list)
        # (halo..., target_shards) -> plan, least recently used first; the
        # index blocks published for them share the keys.
        self._plans: "OrderedDict[Tuple, ShardPlan]" = OrderedDict()
        self._plan_points = 0
        self._index_blocks: Dict[Tuple, "IndexBlockHandle"] = {}
        self._shards_solved = 0
        self._queries_served = 0

        # The shared-memory path: publish the dataset once so worker
        # processes resolve shard index ranges against it instead of
        # receiving pickled point payloads.  The engine owns this store and
        # releases it on close(); empty datasets stay store-less (there is
        # nothing to publish and no shard tasks to run).
        self._store = None
        if self._executor.kind == "shared-process" and len(self):
            from ..parallel import SharedDatasetStore

            self._store = SharedDatasetStore(
                self._points, weights=self._weights, colors=color_list)
            bind = getattr(self._executor, "bind_store", None)
            if bind is not None and getattr(self._executor, "store", None) is None:
                bind(self._store)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._points)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the executor's worker pool (if any) and release the
        shared-memory dataset store the engine owns (if any); idempotent."""
        self._executor.close()
        if self._store is not None:
            self._store.release()
            self._store = None
            self._index_blocks.clear()

    @property
    def store(self):
        """The engine-owned :class:`repro.parallel.SharedDatasetStore`
        backing the ``"shared-process"`` executor (``None`` otherwise) --
        exposed for the lifecycle/leak regression tests."""
        return self._store

    @property
    def stats(self) -> Dict[str, int]:
        """Counters: queries served and shard tasks run."""
        return {
            "queries": self._queries_served,
            "shards_solved": self._shards_solved,
        }

    # ------------------------------------------------------------------ #
    # dataset access
    # ------------------------------------------------------------------ #

    def _slice(self, idx) -> ShardArrays:
        """The points at ``idx`` (index array or slice) as a shard payload."""
        return ShardArrays(
            coords=self._points[idx], weights=self._weights[idx],
            codes=None if self._codes is None else self._codes[idx],
            palette=self._palette)

    def _inputs(self, query: Query):
        """The whole dataset in the form ``query``'s solver takes: the arrays
        themselves for NumPy-bound sweeps, else tuple lists (built once)."""
        if _array_inputs(query, len(self)):
            return self._points, self._weights, None
        if self._lists is None:
            self._lists = self._slice(slice(None)).resolve()
        return self._lists

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #

    def _validate(self, query: Query) -> None:
        if query.colored and self._codes is None:
            raise ValueError(
                "colored query %s on a dataset without colors" % query.describe()
            )
        if not len(self):
            return
        if query.shape == "interval":
            if self.dim != 1:
                raise ValueError("interval queries need 1-d data, got dim=%d" % self.dim)
        elif query.shape == "box":
            if self.dim != 3:
                raise ValueError("box queries need 3-d data, got dim=%d" % self.dim)
        elif query.shape == "rectangle" or query.exact or query.colored:
            # Only the approximate weighted d-ball solver handles dim != 2.
            if self.dim != 2:
                raise ValueError(
                    "query %s needs planar data, got dim=%d" % (query.describe(), self.dim)
                )

    def shard_plan(self, query: Query) -> ShardPlan:
        """The (memoised) sharding this query's extent induces.

        Unless ``target_shards`` overrides it, granularity follows the
        query's :attr:`Query.cost_class`: quadratic solvers get shards that
        scale with the dataset (~200 points each) because shrinking the
        quadratic per-shard population shrinks *total* work, not just
        wall-clock -- though not all the way down to the ``2 x halo`` tile
        floor, since a dense cluster smaller than a tile is replicated into
        every overlapping shard and re-paid quadratically.  Linearithmic
        solvers get a handful of coarse shards per worker (sharding only
        buys them parallelism, so halo replication is the enemy), and the
        sampled approximate solvers get one shard per worker (their
        per-call fixed costs dwarf their dependence on shard size).
        """
        key = self._plan_key(query)
        plan = self._plans.get(key)
        if plan is None:
            plan = plan_shards(self._points, key[:-1], target_shards=key[-1])
            self._plans[key] = plan
            self._plan_points += len(plan.indices)
        else:
            self._plans.move_to_end(key)
        return plan

    def _trim_plans(self) -> None:
        """Evict least recently used plans until the memo indexes at most
        ``16 * n`` points (the newest plan always stays), and unlink the
        evicted plans' index blocks.  Runs only between batches, never while
        descriptors into a block are in flight."""
        while self._plan_points > 16 * len(self) and len(self._plans) > 1:
            key, plan = self._plans.popitem(last=False)
            self._plan_points -= len(plan.indices)
            block = self._index_blocks.pop(key, None)
            if block is not None and self._store is not None:
                self._store.release_index_block(block)

    def _plan_key(self, query: Query) -> Tuple:
        """The memoisation key of a query's sharding: its halo plus the
        target granularity its cost class (or ``target_shards``) picks."""
        halo = query.halo(self.dim)
        if self.target_shards is not None:
            target = self.target_shards
        else:
            cost = query.cost_class
            if cost == "quadratic":
                target = max(16, 4 * self._executor.workers, len(self) // 192)
            elif cost == "linearithmic":
                target = max(16, 4 * self._executor.workers)
            else:
                target = max(1, self._executor.workers)
        return halo + (target,)

    def _shard_index_block(self, query: Query, plan: ShardPlan):
        """The (memoised) shared-memory index block of one sharding plan:
        the plan's CSR indices in one segment, published once per plan so
        repeat queries re-send nothing."""
        key = self._plan_key(query)
        block = self._index_blocks.get(key)
        if block is None:
            block = self._store.publish_index_block(plan.offsets, plan.indices)
            self._index_blocks[key] = block
        return block

    def _empty_result(self, query: Query) -> MaxRSResult:
        return solve_query(query, [], [], [] if self._codes is not None else None)

    def batch_plan(self, queries: Sequence[Query]) -> BatchPlan:
        """Plan a batch without executing it (the serving layer's routing hook).

        Deduplicates the batch and sums the shard tasks a :meth:`solve_batch`
        flush would submit for it; :attr:`stats` is left unchanged.
        Validates every query, so a planned batch cannot fail routing at
        flush time.
        """
        unique: List[Query] = []
        seen = set()
        for query in queries:
            if query not in seen:
                seen.add(query)
                unique.append(query)
        direct: List[Query] = []
        shard_tasks = 0
        for query in unique:
            self._validate(query)
            if not len(self):
                continue
            mode = query.shard_mode
            if mode == "direct":
                # Sharded merge is unsound for this family (decayed weights
                # depend on global arrival order); the flush will make one
                # full-dataset call, and the plan says so.
                direct.append(query)
                shard_tasks += 1
            elif mode == "peel":
                # Upper bound: one sharded rank-1 solve per greedy round.
                shard_tasks += len(self.shard_plan(query)) * query.k
            else:
                shard_tasks += len(self.shard_plan(query))
        self._trim_plans()
        return BatchPlan(
            unique=tuple(unique),
            duplicates=len(queries) - len(unique),
            shard_tasks=shard_tasks,
            direct=tuple(direct),
        )

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #

    def solve(self, query: Query) -> MaxRSResult:
        """Solve one query (sharded, executor-backed)."""
        return self.solve_batch([query])[0]

    def solve_direct(self, query: Query) -> MaxRSResult:
        """Bypass sharding: run the underlying solver once on the whole
        dataset.  The reference path the engine is validated against."""
        with obs.trace("engine.solve_direct", query=query.describe(),
                       n=len(self)):
            self._validate(query)
            return solve_query(query, *self._inputs(query))

    def solve_batch(self, queries: Sequence[Query]) -> List[MaxRSResult]:
        """Solve a heterogeneous batch.

        Identical queries are deduplicated and the shard tasks of all
        distinct queries are flattened into a single executor submission
        (parallel across queries and shards at once).  Results come back in
        input order.

        Under tracing (``REPRO_TRACE=1``, :func:`repro.obs.set_enabled`, or
        an enclosing trace) the flush emits an ``engine.solve_batch`` span
        tree: per-query ``engine.plan`` / ``engine.merge`` spans, one
        ``engine.execute`` span around the executor submission with a
        ``shard.solve`` child per task (captured inside the worker, grafted
        back here), and a derived ``engine.queue`` span attributing the
        dispatch wall time the shard solves themselves do not account for.
        """
        with obs.trace("engine.solve_batch", queries=len(queries),
                       executor=self._executor.kind) as batch_span:
            try:
                return self._solve_batch_spanned(queries, batch_span)
            finally:
                self._trim_plans()

    def _solve_batch_spanned(self, queries: Sequence[Query],
                             batch_span) -> List[MaxRSResult]:
        """The body of :meth:`solve_batch`, run inside its root span."""
        unique: List[Query] = []
        seen = set()
        for query in queries:
            if query not in seen:
                seen.add(query)
                unique.append(query)

        resolved: Dict[Query, MaxRSResult] = {}
        batch_span.tag(unique=len(unique))

        # Route each query by its shard mode: the standard halo plan, the
        # top-k per-round re-peel, or a direct full-dataset call (families
        # whose sharded merge cannot be made sound; see Query.shard_mode).
        halo_queries = [query for query in unique if query.shard_mode == "halo"]
        peel_queries = [query for query in unique if query.shard_mode == "peel"]
        direct_queries = [query for query in unique if query.shard_mode == "direct"]

        if halo_queries:
            traced = obs.tracing_active()
            tasks: List[Tuple] = []
            groups: List[Tuple[Query, int]] = []
            for query in halo_queries:
                with obs.span("engine.plan",
                              query=query.describe()) as plan_span:
                    self._validate(query)
                    plan = self.shard_plan(query)
                    plan_span.tag(shards=len(plan))
                groups.append((query, len(plan)))
                # The shared-memory path replaces each shard's point payload
                # with a descriptor (segment names + index range) resolved
                # inside the worker against the published dataset store.
                block = (self._shard_index_block(query, plan)
                         if self._store is not None else None)
                dataset = self._store.handle() if self._store is not None else None
                # Per-shard backend selection: "auto" is resolved against each
                # shard's population, so fine shards run the pure-Python loops
                # (no NumPy per-call overhead) while big shards vectorise.
                # Explicit backends pass through untouched; results stay
                # keyed on the original query.  In-process executors get
                # the shard's slice of the engine's arrays.
                for ordinal in range(len(plan)):
                    indices = plan.shard_indices(ordinal)
                    task_query = query
                    if query.backend == "auto":
                        task_query = replace(query, backend=resolve_backend(
                            "auto", len(indices), query.sweep_kernel))
                    source = (block.descriptor(dataset, ordinal)
                              if block is not None else self._slice(indices))
                    if traced:
                        # Traced tasks carry their span tags and return the
                        # worker-captured records alongside the result.
                        tasks.append((task_query, source, {
                            "query": query.describe(), "shard": ordinal,
                            "backend": task_query.backend,
                            "points": len(indices)}))
                    else:
                        tasks.append((task_query, source))

            task_fn = _solve_shard_task_traced if traced else _solve_shard_task
            with obs.span("engine.execute", tasks=len(tasks),
                          executor=self._executor.kind,
                          workers=self._executor.workers) as exec_span:
                shard_results = self._executor.map(task_fn, tasks)
            self._shards_solved += len(tasks)

            if traced:
                # Graft every worker-captured shard subtree under the
                # execute span, then attribute the dispatch wall time the
                # shard solves do not cover as a derived engine.queue span
                # (busy time is divided by the effective parallelism, so
                # with one worker queue + shard time = execute wall time).
                busy = 0.0
                plain: List[MaxRSResult] = []
                for result, records in shard_results:
                    exec_span.graft(records)
                    busy += sum(record.duration for record in records
                                if record.parent_id is None)
                    plain.append(result)
                shard_results = plain
                parallelism = max(1, min(self._executor.workers, len(tasks)))
                exec_span.child(
                    "engine.queue",
                    max(0.0, exec_span.duration - busy / parallelism),
                    tasks=len(tasks), parallelism=parallelism)

            cursor = 0
            for query, count in groups:
                group = shard_results[cursor:cursor + count]
                cursor += count
                with obs.span("engine.merge", query=query.describe(),
                              shards=count):
                    merge = (merge_batched_results if query.family == "batched"
                             else merge_shard_results)
                    merged = merge(group, empty=self._empty_result(query))
                    meta = dict(merged.meta)
                    if "n" in meta:
                        meta["n"] = len(self)  # not the winning shard's population
                    meta["executor"] = self._executor.kind
                    merged = MaxRSResult(value=merged.value, center=merged.center,
                                         shape=merged.shape, exact=merged.exact, meta=meta)
                resolved[query] = merged

        for query in peel_queries:
            self._validate(query)
            with obs.span("engine.peel", query=query.describe()) as peel_span:
                merged = self._solve_topk_peel(query)
                peel_span.tag(
                    placements=len(merged.meta.get("placements", ())),
                    rounds=merged.meta.get("rounds", 0))
            resolved[query] = merged

        for query in direct_queries:
            self._validate(query)
            with obs.span("engine.direct", query=query.describe(),
                          n=len(self)):
                result = solve_query(query, *self._inputs(query))
            meta = dict(result.meta)
            meta.update({"routed": "direct", "executor": self._executor.kind})
            result = MaxRSResult(value=result.value, center=result.center,
                                 shape=result.shape, exact=result.exact,
                                 meta=meta)
            resolved[query] = result

        self._queries_served += len(queries)
        return [resolved[query] for query in queries]

    def _solve_topk_peel(self, query: Query) -> MaxRSResult:
        """Sharded greedy top-k: a per-round sharded re-peel.

        A k-way merge of per-shard *candidate lists* is unsound beyond
        rank 1: each shard's local rank-2 candidate was peeled against the
        shard's own rank-1 pick, which need not match the global one, so the
        local lists diverge from the global greedy trajectory after the
        first claim.  Instead, every greedy round runs a full sharded rank-1
        solve restricted to the still-unclaimed points -- the same halo
        max-merge guarantee as any single query -- then claims the winner's
        points globally and repeats.  Each round is therefore exactly the
        greedy step, so the peeling guarantee of
        :func:`repro.regions.topk.top_k_maxrs_rectangle` is preserved
        (per-round optimum values match the direct peel bit-for-bit; as
        everywhere in the sharded engine, a round may report a different
        equally-optimal placement).

        Rounds filter each shard's index slice through a live-point mask and
        ship the surviving points' arrays, never shared-memory descriptors:
        the unclaimed subset changes every round, so there is no stable
        index block to publish.
        """
        plan = self.shard_plan(query)
        base = replace(query, family="single", k=None)
        alive = np.ones(len(self), dtype=bool)
        placements: List[PlacementScore] = []
        rounds = 0
        for rank in range(1, query.k + 1):
            tasks: List[Tuple] = []
            for ordinal in range(len(plan)):
                indices = plan.shard_indices(ordinal)
                live = indices[alive[indices]]
                if not len(live):
                    continue
                task_query = base
                if base.backend == "auto":
                    task_query = replace(base, backend=resolve_backend(
                        "auto", len(live), base.sweep_kernel))
                tasks.append((task_query, self._slice(live)))
            if not tasks:
                break
            with obs.span("engine.execute", tasks=len(tasks),
                          executor=self._executor.kind,
                          workers=self._executor.workers):
                results = self._executor.map(_solve_shard_task, tasks)
            self._shards_solved += len(tasks)
            rounds += 1
            best = merge_shard_results(results, empty=self._empty_result(base))
            if best.center is None or best.value <= 0:
                break
            claimed = alive & self._covered(query, best.center)
            covered = int(claimed.sum())
            if not covered:
                break
            placements.append(PlacementScore(
                rank=rank, value=best.value,
                center=tuple(float(c) for c in best.center),
                covered_points=covered))
            alive &= ~claimed
        merged = _topk_result(query, placements, len(self))
        meta = dict(merged.meta)
        meta.update({"sharded": True, "shards": len(plan),
                     "rounds": rounds, "merge": "per-round sharded re-peel",
                     "executor": self._executor.kind})
        return MaxRSResult(value=merged.value, center=merged.center,
                           shape=merged.shape, exact=merged.exact, meta=meta)

    def _covered(self, query: Query, anchor: Sequence[float]) -> np.ndarray:
        """Mask of the points a rectangle (lower-left ``anchor``) or disk
        (center ``anchor``) placement covers.  The float arithmetic, 1e-12
        slack included, is :func:`repro.core.geometry.point_in_box` /
        :func:`~repro.core.geometry.point_in_ball`'s, per element and axis
        in the same order, so the mask equals those scalar tests."""
        if query.shape == "rectangle":
            inside = np.ones(len(self), dtype=bool)
            for axis, side in enumerate((query.width, query.height)):
                column = self._points[:, axis]
                inside &= ((anchor[axis] - 1e-12 <= column)
                           & (column <= anchor[axis] + side + 1e-12))
            return inside
        squared = np.zeros(len(self))
        for axis in range(self.dim):
            delta = self._points[:, axis] - anchor[axis]
            squared = squared + delta * delta
        return squared <= query.radius * query.radius + 1e-12
