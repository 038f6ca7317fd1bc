"""Shared live-set bookkeeping for the sharded streaming monitors.

:class:`LiveShardStore` maintains the mutable state both
:class:`~repro.streaming.sharded.ShardedMaxRSMonitor` and
:class:`~repro.streaming.multi_query.MultiQueryMonitor` need: the live
handle -> observation map, each handle's tile membership under the engine's
halo-expanded square tiling (:mod:`repro.engine.sharding`), the per-tile
point sets, and the *dirty* set of tiles whose cached solver results are
stale.  Insertions come in two flavours with identical semantics:

* :meth:`insert` -- one observation, tile keys via
  :func:`repro.engine.sharding.tile_keys_for_point`;
* :meth:`insert_batch` -- a run of observations whose tile keys come from
  the planner's vectorised pass
  (:func:`repro.engine.sharding.tile_keys_for_points`: two ``floor`` array
  ops for the whole run instead of per-point float math).

The store knows nothing about solvers, windows or results caches -- the
monitors own those -- it only guarantees that every tile whose point set
changed since it was last passed to :meth:`mark_clean` is in :attr:`dirty`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..engine.sharding import tile_keys_for_point, tile_keys_for_points

__all__ = ["LiveShardStore"]

Coords = Tuple[float, ...]
Key = Tuple[int, ...]
Entry = Tuple[Coords, float, Optional[Hashable]]

#: Insert runs at least this long take the vectorised tile-key path.
BATCH_KEY_THRESHOLD = 32


class LiveShardStore:
    """Halo-tiled live point set with dirty-tile accounting.

    Parameters
    ----------
    halo:
        Per-axis halo (how far a covered point can sit from a placement's
        anchor); tiles are expanded by it, so any anchor inside a tile sees
        all the points it can cover in that tile's shard.
    sides:
        Per-axis tile sides; must be at least ``2 * halo`` per axis (the
        monitors clamp before constructing the store), which caps the
        replication at two tiles per axis -- three at float boundaries when
        a side equals ``2 * halo``.
    """

    def __init__(self, halo: Tuple[float, float], sides: Tuple[float, float]):
        if any(s < 2.0 * h for s, h in zip(sides, halo)):
            raise ValueError(
                "tile sides %r are smaller than twice the halo %r" % (sides, halo)
            )
        self.halo = halo
        self.sides = sides
        # live handle -> (point, weight, color); handle -> tile keys
        self.live: Dict[int, Entry] = {}
        self.membership: Dict[int, List[Key]] = {}
        # tile key -> {handle: (point, weight, color)}
        self.shards: Dict[Key, Dict[int, Entry]] = {}
        self.dirty: Set[Key] = set()

    def __len__(self) -> int:
        return len(self.live)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def _file_under(self, handle: int, entry: Entry, keys: List[Key]) -> None:
        if handle in self.live:
            raise KeyError("observation handle %r is already alive" % handle)
        self.live[handle] = entry
        self.membership[handle] = keys
        for key in keys:
            self.shards.setdefault(key, {})[handle] = entry
            self.dirty.add(key)

    def insert(
        self,
        handle: int,
        point: Sequence[float],
        weight: float = 1.0,
        color: Optional[Hashable] = None,
    ) -> None:
        """Insert one observation, dirtying every tile whose halo covers it."""
        point = tuple(float(c) for c in point)
        if len(point) != 2:
            raise ValueError("sharded monitors expect planar points")
        keys = tile_keys_for_point(point, self.halo, self.sides)
        self._file_under(handle, (point, float(weight), color), keys)

    def insert_batch(
        self,
        handles: Sequence[int],
        points: Sequence[Sequence[float]],
        weights: Optional[Sequence[float]] = None,
        colors: Optional[Sequence[Hashable]] = None,
    ) -> None:
        """Insert a run of observations with one vectorised tile-key pass."""
        count = len(points)
        if weights is not None and len(weights) != count:
            raise ValueError("got %d weights for %d points" % (len(weights), count))
        if colors is not None and len(colors) != count:
            raise ValueError("got %d colors for %d points" % (len(colors), count))
        if count < BATCH_KEY_THRESHOLD:
            for index in range(count):
                self.insert(handles[index], points[index],
                            weights[index] if weights is not None else 1.0,
                            colors[index] if colors is not None else None)
            return
        array = np.asarray([tuple(p) for p in points], dtype=float)
        if array.ndim != 2 or array.shape[1] != 2:
            raise ValueError("sharded monitors expect planar points")
        # The planner's vectorised key pass: every key tile_keys_for_point
        # gives, including the third tile per axis a boundary point reaches
        # when a side equals twice the halo.  tests/test_streaming_batch.py
        # pins the two paths to identical keys.
        key_lists = tile_keys_for_points(array, self.halo, self.sides)
        for row, keys in enumerate(key_lists):
            point = (float(array[row, 0]), float(array[row, 1]))
            weight = float(weights[row]) if weights is not None else 1.0
            color = colors[row] if colors is not None else None
            self._file_under(handles[row], (point, weight, color), keys)

    def remove(self, handle: int) -> List[Key]:
        """Remove one observation; returns the tiles that became empty (their
        cached results should be dropped by the caller)."""
        if handle not in self.live:
            raise KeyError("unknown observation handle %r" % handle)
        del self.live[handle]
        emptied: List[Key] = []
        for key in self.membership.pop(handle):
            shard = self.shards[key]
            del shard[handle]
            if shard:
                self.dirty.add(key)
            else:
                del self.shards[key]
                self.dirty.discard(key)
                emptied.append(key)
        return emptied

    def entries(self, key: Key) -> Tuple[List[Coords], List[float], List[Optional[Hashable]]]:
        """The parallel (coords, weights, colors) lists of one tile's shard."""
        shard = self.shards[key]
        coords = [point for point, _, _ in shard.values()]
        weights = [weight for _, weight, _ in shard.values()]
        colors = [color for _, _, color in shard.values()]
        return coords, weights, colors

    def mark_clean(self, keys: Sequence[Key]) -> None:
        """Mark ``keys`` clean.  Call it only once their new results are
        stored: a solve that raises must leave its tiles dirty, or the next
        read would silently serve their stale results."""
        self.dirty.difference_update(keys)
