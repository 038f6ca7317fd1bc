"""Sharded exact hotspot monitoring: recompute only dirty shards on updates.

:class:`ShardedMaxRSMonitor` keeps the live point set partitioned into the
engine's halo-expanded spatial tiles (via
:class:`repro.streaming._shards.LiveShardStore`) and caches one exact
per-shard disk optimum per tile.  An insert or delete only marks the handful
of tiles whose halo region contains the point as *dirty*; a query re-solves
those tiles alone -- all of them in one segmented exact sweep
(:func:`repro.exact.maxrs_disk_exact_segments`, one segment per tile) -- and
takes the max over all cached shard results
(:func:`repro.engine.merge.merge_shard_results`).

Compared with :class:`repro.streaming.monitor.ExactRecomputeMonitor` -- which
re-solves the whole live set from scratch -- answers are identical (the halo
argument makes the shard maximum exact) while the per-query work after a
localized update drops from ``O(n^2)`` to ``O(m^2)`` for the ``O(1)`` touched
tiles of size ``m``.

Beyond the original event-at-a-time interface the monitor is a full
:class:`~repro.streaming.base.StreamMonitor`:

* **batched ingestion** -- :meth:`observe_batch` / :meth:`apply_batch` file
  insert runs through the store's vectorised tile-key pass and defer window
  eviction to run boundaries, with final state provably identical to
  event-at-a-time application;
* **kernel-registry backends** -- ``backend="auto" | "python" | "numpy"``
  selects the sweep implementation, with ``"auto"`` resolved per sweep call
  against the total points of the tiles it solves, on the disk sweep's
  threshold (:func:`repro.kernels.resolve_backend`);
* **pluggable executors** -- ``executor="shared-process"`` splits the
  dirty tiles of one query into one group per worker and solves each
  group in one segmented call on an engine executor;
* **sliding windows** -- ``window=N`` keeps only the most recent ``N``
  observations alive (count-based), ``time_window=T`` keeps only
  observations with ``timestamp > now - T`` where ``now`` is the largest
  timestamp seen so far (time-based; timestamps must be non-decreasing).
  Both may be combined; an eviction behaves exactly like a deletion of the
  evicted handle.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, chain
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.result import MaxRSResult
from ..datasets.streams import UpdateEvent
from ..engine.executors import Executor, get_executor
from ..engine.merge import merge_shard_results
from ..exact.disk2d import maxrs_disk_exact_segments
from ..kernels import resolve_backend
from ..obs import tracing as obs
from ._shards import LiveShardStore
from .base import StreamMonitor

__all__ = ["ShardedMaxRSMonitor"]

Coords = Tuple[float, ...]
Key = Tuple[int, ...]


def _solve_disk_group(task):
    """Executor task: one segmented exact disk sweep over a group of shards
    (picklable payload); returns one result per shard, in order."""
    coords, weights, offsets, radius, backend = task
    return maxrs_disk_exact_segments(coords, radius, offsets=offsets,
                                     weights=weights, backend=backend)


def _solve_disk_group_traced(task):
    """Traced executor task: :func:`_solve_disk_group` under a worker-side
    span capture, returning ``(results, records)`` so the monitor can graft
    the group's ``shard.solve`` span into its trace."""
    coords, _, offsets, _, backend = task
    with obs.capture("shard.solve", shards=len(offsets) - 1, backend=backend,
                     points=len(coords)) as captured:
        results = _solve_disk_group(task)
    return results, captured.records


class ShardedMaxRSMonitor(StreamMonitor):
    """Continuous *exact* hotspot monitoring with dirty-shard recomputation.

    Parameters
    ----------
    radius:
        Query disk radius (planar points only).
    tile_side:
        Side of the square spatial tiles; defaults to ``4 * radius`` and is
        clamped to at least ``2 * radius`` so each point lands in at most
        four tiles.
    backend:
        Kernel backend for the shard sweeps (:mod:`repro.kernels`);
        ``"auto"`` resolves per sweep call against the total points of the
        shards it solves.
    executor, workers:
        Optional engine executor (``"serial"`` / ``"shared-process"`` or an
        :class:`~repro.engine.executors.Executor`) for solving the
        dirty shards of one query in parallel, one group of shards per
        worker.  ``None`` (default) solves them all in one inline call.
    window:
        Count-based sliding window: only the most recent ``window``
        observations stay alive.
    time_window:
        Time-based sliding window: only observations with
        ``timestamp > now - time_window`` stay alive, where ``now`` is the
        largest timestamp ingested so far (see :meth:`advance_to`).
        Observations must carry non-decreasing timestamps.

    The interface mirrors the other monitors: :meth:`observe` /
    :meth:`expire` for direct use, :meth:`apply` / :meth:`apply_batch` /
    :meth:`apply_stream` for :class:`~repro.datasets.streams.UpdateEvent`
    streams, and :meth:`current` for the hotspot, whose ``meta`` reports how
    many shards the query actually had to re-solve.  When a window is
    configured, delete events whose target was already evicted are ignored
    (the window got there first); without windows they raise ``KeyError``.
    Weights must be non-negative (the exact sweep's precondition): a
    negative weight is rejected with ``ValueError`` before anything changes.
    """

    def __init__(
        self,
        radius: float = 1.0,
        *,
        tile_side: Optional[float] = None,
        backend: str = "auto",
        executor: Union[str, Executor, None] = None,
        workers: Optional[int] = None,
        window: Optional[int] = None,
        time_window: Optional[float] = None,
    ):
        if radius <= 0:
            raise ValueError("radius must be positive")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1")
        if time_window is not None and time_window <= 0:
            raise ValueError("time_window must be positive")
        self.radius = float(radius)
        side = 4.0 * self.radius if tile_side is None else float(tile_side)
        self.tile_side = max(side, 2.0 * self.radius)
        if backend != "auto":
            resolve_backend(backend, 0)  # surface typos at construction
        self.backend = backend
        self.window = int(window) if window is not None else None
        self.time_window = float(time_window) if time_window is not None else None
        self._executor = None if executor is None else get_executor(executor, workers)
        self._store = LiveShardStore((self.radius, self.radius),
                                     (self.tile_side, self.tile_side))
        self._results: Dict[Key, MaxRSResult] = {}
        # insertion order (lazy: evicted/deleted handles are skipped on pop)
        self._order: Deque[int] = deque()
        self._timestamps: Dict[int, float] = {}
        self._clock = -float("inf")
        self._steps = 0
        self._next_handle = 0
        self.total_recomputes = 0

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._store)

    @property
    def steps(self) -> int:
        """Number of updates processed so far (window evictions excluded)."""
        return self._steps

    @property
    def shard_count(self) -> int:
        """Number of occupied spatial tiles."""
        return self._store.shard_count

    @property
    def dirty_shard_count(self) -> int:
        """Number of tiles whose cached result is stale (re-solved on the
        next :meth:`current` call; ``0`` immediately after a query)."""
        return len(self._store.dirty)

    @property
    def windowed(self) -> bool:
        """Whether any sliding window (count or time) is active."""
        return self.window is not None or self.time_window is not None

    @property
    def generation(self):
        """Cache-invalidation token (see :attr:`StreamMonitor.generation`).

        Extends the base token with the time-window clock so that
        :meth:`advance_to` -- which can evict observations without processing
        an update event -- also invalidates externally cached answers.
        """
        return (self._steps, len(self._store), self._clock)

    def close(self) -> None:
        """Shut down the executor's worker pool (if any); idempotent."""
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "ShardedMaxRSMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _remove(self, handle: int) -> None:
        self._timestamps.pop(handle, None)
        for key in self._store.remove(handle):
            self._results.pop(key, None)

    def _record_timestamp(self, handle: int, timestamp: Optional[float]) -> None:
        if timestamp is None:
            if self.time_window is not None:
                raise ValueError(
                    "a time_window monitor needs a timestamp on every observation"
                )
            return
        timestamp = float(timestamp)
        self._timestamps[handle] = timestamp
        if timestamp > self._clock:
            self._clock = timestamp

    def _enforce_windows(self) -> None:
        """Evict observations the sliding windows no longer cover.

        Called at insert-run boundaries; because evictions always take the
        *oldest* live observations, end-of-run eviction leaves the same live
        set as evicting after every single insert would.
        """
        if not self.windowed:
            return
        if len(self._order) > 2 * len(self._store) + 64:
            # Explicit deletes leave their handles in the deque (removal from
            # the middle would be O(n) per event); compact once the dead
            # entries dominate, keeping the deque linear in the live set.
            self._order = deque(h for h in self._order if h in self._store.live)
        if self.time_window is not None:
            cutoff = self._clock - self.time_window
            while self._order:
                handle = self._order[0]
                if handle not in self._store.live:
                    self._order.popleft()
                elif self._timestamps.get(handle, cutoff) <= cutoff:
                    self._order.popleft()
                    self._remove(handle)
                else:
                    break
        if self.window is not None:
            while len(self._store) > self.window:
                handle = self._order.popleft()
                if handle in self._store.live:
                    self._remove(handle)

    # ------------------------------------------------------------------ #
    # direct interface
    # ------------------------------------------------------------------ #

    def observe(self, point: Sequence[float], weight: float = 1.0, *,
                timestamp: Optional[float] = None) -> int:
        """Insert an observation; returns a handle usable with :meth:`expire`."""
        if self.time_window is not None and timestamp is None:
            raise ValueError(
                "a time_window monitor needs a timestamp on every observation"
            )
        self._require_non_negative((weight,))
        handle = self._next_handle
        self._next_handle += 1
        self._store.insert(handle, point, float(weight))
        self._record_timestamp(handle, timestamp)
        if self.windowed:
            self._order.append(handle)
        self._enforce_windows()
        self._steps += 1
        return handle

    def observe_batch(
        self,
        points: Sequence[Sequence[float]],
        weights: Optional[Sequence[float]] = None,
        *,
        timestamps: Optional[Sequence[float]] = None,
    ) -> List[int]:
        """Insert a batch of observations in one pass; returns their handles.

        The tile keys of the whole batch are computed in a single vectorised
        pass and window eviction runs once at the end -- the resulting state
        is identical to calling :meth:`observe` once per point.
        """
        if timestamps is not None and len(timestamps) != len(points):
            raise ValueError("got %d timestamps for %d points"
                             % (len(timestamps), len(points)))
        self._require_timestamps(timestamps, len(points))
        if weights is not None:
            self._require_non_negative(weights)
        handles = list(range(self._next_handle, self._next_handle + len(points)))
        self._next_handle += len(points)
        self._store.insert_batch(handles, points, weights)
        for index, handle in enumerate(handles):
            self._record_timestamp(
                handle, timestamps[index] if timestamps is not None else None)
            if self.windowed:
                self._order.append(handle)
        self._enforce_windows()
        self._steps += len(points)
        return handles

    def _require_timestamps(self, timestamps, count: int) -> None:
        """Reject a timestamp-less batch *before* any store mutation, so a
        usage error cannot leave half-applied state behind."""
        if self.time_window is None or count == 0:
            return
        if timestamps is None or any(t is None for t in timestamps):
            raise ValueError(
                "a time_window monitor needs a timestamp on every observation"
            )

    @staticmethod
    def _require_non_negative(weights) -> None:
        """Reject negative weights *before* any store mutation: the exact
        disk sweep needs non-negative weights, and a point it cannot solve
        must not reach the live set."""
        if any(weight < 0 for weight in weights):
            raise ValueError("ShardedMaxRSMonitor requires non-negative weights")

    def expire(self, handle: int) -> None:
        """Delete a previously observed point by its handle."""
        self._remove(handle)
        self._steps += 1

    def advance_to(self, now: float) -> None:
        """Advance the time-window clock to ``now`` (monotone) and evict
        observations that fell out of the window, without inserting."""
        if float(now) > self._clock:
            self._clock = float(now)
        self._enforce_windows()

    # ------------------------------------------------------------------ #
    # stream interface
    # ------------------------------------------------------------------ #

    def apply(self, event: UpdateEvent, event_index: int) -> None:
        """Apply one stream event; ``event_index`` is its position in the stream."""
        self.apply_batch([event], event_index)

    def apply_batch(self, events: Sequence[UpdateEvent], start_index: int = 0) -> None:
        """Apply a chunk of events in one pass.

        Consecutive insertions are filed through the store's vectorised run
        path; window evictions fire at run boundaries (equivalent, by the
        oldest-first eviction argument, to evicting after every event).
        Delete events are strict -- unknown targets raise ``KeyError`` --
        unless a sliding window is active, in which case a missing target
        means the window already evicted it and the event is a no-op.  A
        negative insert weight anywhere in the chunk rejects the whole chunk
        before any event applies.
        """
        self._require_non_negative(
            [event.weight for event in events if event.kind == "insert"])

        def insert_run(run, first_index):
            handles = list(range(first_index, first_index + len(run)))
            self._require_timestamps([e.timestamp for e in run], len(run))
            self._store.insert_batch(handles, [e.point for e in run],
                                     [e.weight for e in run])
            for handle, inserted in zip(handles, run):
                self._record_timestamp(handle, inserted.timestamp)
                if self.windowed:
                    self._order.append(handle)
            self._enforce_windows()
            self._steps += len(run)

        def delete_one(event):
            self._enforce_windows()
            if event.target in self._store.live:
                self._remove(event.target)
            elif not self.windowed:
                raise KeyError(
                    "delete event targets stream index %r which is not alive"
                    % event.target
                )
            if event.timestamp is not None and float(event.timestamp) > self._clock:
                self._clock = float(event.timestamp)
            self._steps += 1

        with obs.span("monitor.apply_batch", events=len(events)):
            self._apply_events_batched(events, start_index, insert_run, delete_one)
            self._enforce_windows()

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #

    def _group_task(self, keys: Sequence[Key]):
        """The payload of one solve group: the shards' points concatenated,
        one segment per shard, with ``"auto"`` resolved on their total.  A
        NumPy group travels as float arrays, which the solver validates in
        a few array operations instead of point by point."""
        shards = [self._store.shards[key] for key in keys]
        offsets = list(accumulate(map(len, shards), initial=0))
        points, weights, _ = zip(*chain.from_iterable(
            shard.values() for shard in shards))
        backend = resolve_backend(self.backend, offsets[-1], "disk_sweep")
        if backend == "numpy":
            coords = np.fromiter(chain.from_iterable(points), float, 2 * len(points))
            return (coords.reshape(-1, 2), np.fromiter(weights, float, len(weights)),
                    offsets, self.radius, backend)
        return list(points), list(weights), offsets, self.radius, backend

    def current(self) -> MaxRSResult:
        """The current exact hotspot, re-solving only dirty shards.

        The dirty shards are solved together: one segmented exact sweep
        inline, or one per worker group on an executor.  They are marked
        clean only once their results are stored, so a solve that raises
        leaves them dirty for the next read.  Under tracing each read emits
        a ``monitor.query`` span with one worker-captured ``shard.solve``
        child per solve group (its ``shards`` tag counts the group's dirty
        shards) and a ``monitor.merge`` span over the cached-result fold.
        """
        dirty = sorted(self._store.dirty)
        recomputed = len(dirty)
        with obs.trace("monitor.query", dirty=recomputed,
                       live=len(self._store)) as query_span:
            if recomputed:
                groups = [dirty]
                pooled = self._executor is not None and recomputed > 1
                if pooled:
                    count = min(self._executor.workers, recomputed)
                    groups = [dirty[first::count] for first in range(count)]
                tasks = [self._group_task(keys) for keys in groups]
                traced = obs.tracing_active()
                task_fn = _solve_disk_group_traced if traced else _solve_disk_group
                if pooled:
                    solved = self._executor.map(task_fn, tasks)
                else:
                    solved = [task_fn(tasks[0])]
                for keys, answer in zip(groups, solved):
                    if traced:
                        answer, records = answer
                        query_span.graft(records)
                    self._results.update(zip(keys, answer))
                self._store.mark_clean(dirty)
                self.total_recomputes += recomputed

            empty = MaxRSResult(value=0.0, center=None, shape="ball", exact=True,
                                meta={"radius": self.radius, "n": 0})
            ordered = [self._results[key] for key in sorted(self._results)]
            with obs.span("monitor.merge", shards=len(ordered)):
                merged = merge_shard_results(ordered, empty=empty)
        meta = dict(merged.meta)
        meta.update({"n": len(self._store), "live": len(self._store),
                     "recomputed": recomputed, "backend": self.backend})
        if self._executor is not None:
            meta["executor"] = self._executor.kind
        if self.window is not None:
            meta["window"] = self.window
        if self.time_window is not None:
            meta["time_window"] = self.time_window
        return MaxRSResult(value=merged.value, center=merged.center, shape=merged.shape,
                           exact=merged.exact, meta=meta)
