"""Several standing MaxRS queries over one shared dirty-shard pass.

A monitoring deployment rarely asks a single question: operations wants the
disk hotspot at two radii, the capacity planner wants a ``W x H`` rectangle,
and the ecology team wants the colored (distinct-entity) variant -- all over
the *same* update stream.  Running one
:class:`~repro.streaming.sharded.ShardedMaxRSMonitor` per question would
re-partition, re-bookkeep and re-scan the live set once per query.

:class:`MultiQueryMonitor` answers all standing queries from **one** shard
store: the tiling uses the per-axis *maximum* halo over all registered
queries, so every query's halo invariant holds in every tile (a shard
contains a superset of the points any one query's anchor can cover, and
shard point sets are still subsets of the live set -- the max-merge argument
of :mod:`repro.engine.merge` goes through unchanged, preserving exactness
and approximation guarantees per query).  An update dirties a tile once, no
matter how many queries are registered; a query pass solves ``dirty tiles x
queries`` tasks in one (optionally executor-parallel) submission, reusing
the engine's solver routing (:func:`repro.engine.planner.solve_query`) and
its per-shard ``"auto"`` backend resolution.

Supported standing queries are the planar members of the engine's
:class:`~repro.engine.Query` family: exact / approximate, weighted /
colored, disk or rectangle.  (Interval queries need 1-d data and are
rejected.)  Colored queries require a color on every observation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.result import MaxRSResult
from ..datasets.streams import UpdateEvent
from ..engine.executors import Executor, get_executor
from ..engine.merge import merge_shard_results
from ..engine.planner import Query, solve_query
from ..kernels import resolve_backend
from ..obs import tracing as obs
from ._shards import LiveShardStore
from .base import StreamMonitor

__all__ = ["MultiQueryMonitor", "MultiQuerySnapshot"]

Coords = Tuple[float, ...]
Key = Tuple[int, ...]


@dataclass(frozen=True)
class MultiQuerySnapshot:
    """All standing-query answers after processing a prefix of the stream."""

    step: int
    results: Dict[str, MaxRSResult]
    live_points: int


def _solve_named_shard(task):
    """Executor task: one (standing query, shard) cell (picklable payload)."""
    name, key, query, coords, weights, colors = task
    return name, key, solve_query(query, coords, weights, colors)


class MultiQueryMonitor(StreamMonitor):
    """Answer several concurrent standing queries over one live point set.

    Parameters
    ----------
    queries:
        The standing queries: a mapping ``name -> Query`` or a sequence of
        :class:`~repro.engine.Query` (named ``q0``, ``q1``, ... in order).
        All queries must be planar (disk or rectangle).
    tile_side:
        Square tile side; defaults to four times the largest per-axis halo of
        any query and is clamped to at least twice that halo.
    executor, workers:
        Optional engine executor for the per-query-pass ``dirty x queries``
        task fan-out; ``None`` solves inline.

    Unlike the single-query monitors, :meth:`current` returns a ``dict``
    mapping query names to :class:`~repro.core.result.MaxRSResult`;
    :meth:`apply_stream` snapshots are :class:`MultiQuerySnapshot` instances.
    Each query keeps its own per-tile result cache, but all queries share
    one tiling, one dirty set and one ingestion pass.
    """

    def __init__(
        self,
        queries: Union[Mapping[str, Query], Sequence[Query]],
        *,
        tile_side: Optional[float] = None,
        executor: Union[str, Executor, None] = None,
        workers: Optional[int] = None,
    ):
        if isinstance(queries, Mapping):
            named = list(queries.items())
        else:
            named = [("q%d" % index, query) for index, query in enumerate(queries)]
        if not named:
            raise ValueError("MultiQueryMonitor needs at least one standing query")
        for name, query in named:
            if query.shape not in ("disk", "rectangle"):
                raise ValueError(
                    "standing query %r (%s) is not planar; only disk and "
                    "rectangle queries are supported" % (name, query.describe())
                )
            if query.backend != "auto":
                resolve_backend(query.backend, 0)  # surface typos now
        self.queries: Dict[str, Query] = dict(named)
        halos = [query.halo(2) for _, query in named]
        halo = (max(h[0] for h in halos), max(h[1] for h in halos))
        max_halo = max(halo)
        side = 4.0 * max_halo if tile_side is None else float(tile_side)
        self.tile_side = max(side, 2.0 * max_halo)
        self._store = LiveShardStore(halo, (self.tile_side, self.tile_side))
        self._executor = None if executor is None else get_executor(executor, workers)
        # query name -> {tile key -> cached shard result}
        self._results: Dict[str, Dict[Key, MaxRSResult]] = {name: {} for name, _ in named}
        # colored standing queries need a color on every *live* observation;
        # tracking the count (not a sticky flag) keeps the condition exact as
        # uncolored points come and go.
        self._uncolored_live = 0
        self._steps = 0
        self._next_handle = 0
        self.total_shard_solves = 0

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._store)

    @property
    def steps(self) -> int:
        """Number of updates processed so far."""
        return self._steps

    @property
    def shard_count(self) -> int:
        """Number of occupied spatial tiles (shared by all queries)."""
        return self._store.shard_count

    @property
    def dirty_shard_count(self) -> int:
        """Number of tiles whose cached results are stale (``0`` right after
        a query pass)."""
        return len(self._store.dirty)

    def close(self) -> None:
        """Shut down the executor's worker pool (if any); idempotent."""
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "MultiQueryMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _note_color(self, color: Optional[Hashable]) -> None:
        if color is None:
            self._uncolored_live += 1

    def _remove(self, handle: int) -> None:
        if self._store.live[handle][2] is None:
            self._uncolored_live -= 1
        for key in self._store.remove(handle):
            for cache in self._results.values():
                cache.pop(key, None)

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #

    def observe(self, point: Sequence[float], weight: float = 1.0, *,
                color: Optional[Hashable] = None) -> int:
        """Insert an observation; returns a handle usable with :meth:`expire`."""
        handle = self._next_handle
        self._next_handle += 1
        self._store.insert(handle, point, float(weight), color)
        self._note_color(color)
        self._steps += 1
        return handle

    def observe_batch(
        self,
        points: Sequence[Sequence[float]],
        weights: Optional[Sequence[float]] = None,
        *,
        colors: Optional[Sequence[Hashable]] = None,
    ) -> List[int]:
        """Insert a batch of observations in one vectorised pass."""
        handles = list(range(self._next_handle, self._next_handle + len(points)))
        self._next_handle += len(points)
        self._store.insert_batch(handles, points, weights, colors)
        if colors is None:
            self._uncolored_live += len(points)
        else:
            for color in colors:
                self._note_color(color)
        self._steps += len(points)
        return handles

    def expire(self, handle: int) -> None:
        """Delete a previously observed point by its handle."""
        if handle not in self._store.live:
            raise KeyError("unknown observation handle %r" % handle)
        self._remove(handle)
        self._steps += 1

    def apply(self, event: UpdateEvent, event_index: int) -> None:
        """Apply one stream event; ``event_index`` is its position in the stream."""
        if event.kind == "insert":
            self._store.insert(event_index, event.point, event.weight, event.color)
            self._note_color(event.color)
        else:
            if event.target not in self._store.live:
                raise KeyError(
                    "delete event targets stream index %r which is not alive" % event.target
                )
            self._remove(event.target)
        self._steps += 1

    def apply_batch(self, events: Sequence[UpdateEvent], start_index: int = 0) -> None:
        """Apply a chunk of events, filing insert runs through the store's
        vectorised path (semantically identical to one-at-a-time application)."""

        def insert_run(run, first_index):
            handles = list(range(first_index, first_index + len(run)))
            self._store.insert_batch(handles, [e.point for e in run],
                                     [e.weight for e in run],
                                     [e.color for e in run])
            for inserted in run:
                self._note_color(inserted.color)
            self._steps += len(run)

        def delete_one(event):
            if event.target not in self._store.live:
                raise KeyError(
                    "delete event targets stream index %r which is not alive"
                    % event.target
                )
            self._remove(event.target)
            self._steps += 1

        self._apply_events_batched(events, start_index, insert_run, delete_one)

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #

    def _refresh(self) -> int:
        """Re-solve every (standing query, dirty tile) cell in one pass."""
        if self._store.dirty:
            # Validate *before* solving, so a usage error leaves the
            # monitor recoverable: expire the uncolored points and the next
            # query re-solves the still-dirty tiles.
            colored_queries = [q for q in self.queries.values() if q.colored]
            if colored_queries and self._uncolored_live:
                raise ValueError(
                    "standing query %s needs a color on every observation "
                    "(%d live observations have none)"
                    % (colored_queries[0].describe(), self._uncolored_live)
                )
        dirty = sorted(self._store.dirty)
        if not dirty:
            return 0
        all_colored = self._uncolored_live == 0
        tasks = []
        for key in dirty:
            coords, weights, colors = self._store.entries(key)
            color_list = colors if all_colored else None
            for name, query in self.queries.items():
                task_query = query
                if query.backend == "auto":
                    task_query = replace(query, backend=resolve_backend(
                        "auto", len(coords), query.sweep_kernel))
                tasks.append((name, key, task_query, coords, weights, color_list))
        with obs.trace("monitor.refresh", dirty=len(dirty),
                       queries=len(self.queries), cells=len(tasks)):
            if self._executor is not None and len(tasks) > 1:
                solved = self._executor.map(_solve_named_shard, tasks)
            else:
                solved = [_solve_named_shard(task) for task in tasks]
        for name, key, result in solved:
            self._results[name][key] = result
        # Only now: a solve that raised leaves its tiles dirty for the next
        # query instead of serving their stale results.
        self._store.mark_clean(dirty)
        self.total_shard_solves += len(tasks)
        return len(dirty)

    def current(self) -> Dict[str, MaxRSResult]:
        """All standing-query answers, re-solving only dirty tiles once."""
        recomputed = self._refresh()
        answers: Dict[str, MaxRSResult] = {}
        for name, query in self.queries.items():
            cache = self._results[name]
            ordered = [cache[key] for key in sorted(cache)]
            empty = solve_query(query, [], [], [] if query.colored else None)
            merged = merge_shard_results(ordered, empty=empty)
            meta = dict(merged.meta)
            meta.update({"n": len(self._store), "live": len(self._store),
                         "recomputed": recomputed, "query": query.describe()})
            answers[name] = MaxRSResult(value=merged.value, center=merged.center,
                                        shape=merged.shape, exact=merged.exact,
                                        meta=meta)
        return answers

    def current_one(self, name: str) -> MaxRSResult:
        """One standing query's current answer (still refreshes all caches --
        the shard pass is shared, so this costs no more than :meth:`current`)."""
        answers = self.current()
        try:
            return answers[name]
        except KeyError:
            raise KeyError("unknown standing query %r (registered: %s)"
                           % (name, ", ".join(sorted(self.queries)))) from None

    def _snapshot(self, step: int) -> MultiQuerySnapshot:
        return MultiQuerySnapshot(step=step, results=self.current(),
                                  live_points=len(self._store))
