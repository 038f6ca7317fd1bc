"""Spatial sharding with halos: partition a point set into independently
solvable tiles.

The engine's parallelism rests on one geometric fact.  Fix a query range
family whose placements are *anchored* at a single point -- the disk center,
the rectangle's lower-left corner, the interval's left endpoint -- and let
``halo_j`` bound, per axis, how far a covered point can be from the anchor
(radius ``r`` for a disk, ``(W, H)`` for a ``W x H`` rectangle, ``L`` for an
interval).  Tile space into axis-aligned cells and give the shard of tile
``T`` every input point lying in ``T`` *expanded by the halo*.  Then:

* any placement anchored inside ``T`` covers only points of shard ``T``, so
  the shard's local optimum is at least the best anchored-in-``T`` value;
* a shard's points are a subset of the input and weights are non-negative,
  so every local optimum is at most the global optimum.

The global optimum's anchor lies in *some* tile, hence the maximum of the
per-shard optima equals the global optimum exactly -- the same "no shift cuts
the winner" reasoning behind the shifted-grid decomposition baseline
(:mod:`repro.approx.grid_decomposition`), but with replication instead of
shifting so that every shard is solved exactly once and all shards are
independent (embarrassingly parallel).

Each point is replicated into every tile whose halo-expanded region contains
it.  Tile sides are kept at ``>= 2 * halo`` per axis, which bounds the
replication to two tiles per axis -- three at float boundaries when a side
equals ``2 * halo`` exactly, because ``floor((x - h) / side)`` and
``floor((x + h) / side)`` round independently.

A plan is a CSR *index block* -- sorted tile ``keys``, ``offsets`` and point
``indices`` -- over the caller's point table; no shard copies point data.
This module owns the tile-key math: :func:`tile_key_bounds` is the vectorised
pass both :func:`plan_shards` and the streaming monitors' batch inserts use,
and :func:`tile_keys_for_point` is its per-point reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ShardArrays",
    "ShardPlan",
    "choose_tile_sides",
    "encode_colors",
    "plan_shards",
    "tile_key_bounds",
    "tile_keys_for_point",
    "tile_keys_for_points",
]

Coords = Tuple[float, ...]


@dataclass(frozen=True, eq=False)
class ShardPlan:
    """The output of :func:`plan_shards`: a CSR index block plus the tiling
    geometry.

    Shard ``i`` is tile ``keys[i]`` and owns the point indices
    ``indices[offsets[i]:offsets[i + 1]]``.  Keys ascend lexicographically
    and each shard's indices ascend, so merging is deterministic.
    """

    keys: np.ndarray       #: ``(shards, dim)`` int64 tile keys
    offsets: np.ndarray    #: ``(shards + 1,)`` int64 bounds into ``indices``
    indices: np.ndarray    #: int64 point indices, shard after shard
    halo: Tuple[float, ...]
    tile_sides: Tuple[float, ...]
    dim: int
    n: int

    def __len__(self) -> int:
        return len(self.keys)

    def shard_indices(self, ordinal: int) -> np.ndarray:
        """The point indices of shard ``ordinal`` (a view, not a copy)."""
        return self.indices[self.offsets[ordinal]:self.offsets[ordinal + 1]]

    @property
    def replication(self) -> float:
        """Average number of shards each input point landed in."""
        if self.n == 0:
            return 0.0
        return len(self.indices) / self.n


@dataclass(frozen=True, eq=False)
class ShardArrays:
    """One shard's points as arrays: what serial tasks carry.
    Shared-process tasks carry a
    :class:`repro.parallel.ShardDescriptor` instead, which resolves through
    this class, so both payloads materialise identically."""

    coords: np.ndarray                        #: ``(m, dim)`` float64
    weights: Optional[np.ndarray]             #: ``(m,)`` float64
    codes: Optional[np.ndarray] = None        #: ``(m,)`` int64 color codes
    palette: Optional[Tuple[Hashable, ...]] = None  #: code -> color

    def __len__(self) -> int:
        return len(self.coords)

    def resolve(self, arrays: bool = False) -> Tuple[Sequence[Coords],
                                                     Optional[Sequence[float]],
                                                     Optional[List[Hashable]]]:
        """``(coords, weights, colors)`` for the solvers.

        With ``arrays=True`` coordinates and weights stay NumPy arrays and
        colors are ``None`` -- the ``prefer_arrays`` fast path of the
        weighted sweeps, for calls that resolve to the NumPy kernels.
        Otherwise they become the library's usual tuple and float lists,
        built column-wise with ``tolist()`` (exact: ``float64 -> float``
        round-trips), and colors are decoded to the original objects.
        """
        if arrays:
            return self.coords, self.weights, None
        colors = (None if self.codes is None
                  else [self.palette[code] for code in self.codes.tolist()])
        coords = list(zip(*(self.coords[:, axis].tolist()
                            for axis in range(self.coords.shape[1]))))
        weights = None if self.weights is None else self.weights.tolist()
        return coords, weights, colors


def encode_colors(colors: Sequence[Hashable]) -> Tuple[np.ndarray, Tuple[Hashable, ...]]:
    """``(codes, palette)``: int64 codes in first-appearance order plus the
    palette mapping each code back to its original color object."""
    code_of: Dict[Hashable, int] = {}
    codes = np.fromiter((code_of.setdefault(color, len(code_of)) for color in colors),
                        dtype=np.int64)
    return codes, tuple(code_of)


def tile_keys_for_point(
    point: Coords,
    halo: Sequence[float],
    tile_sides: Sequence[float],
) -> List[Tuple[int, ...]]:
    """All tiles whose halo-expanded region contains ``point``.

    Per axis these are the tiles ``t`` with ``point_j`` inside
    ``[t * side - halo, (t + 1) * side + halo)``, i.e. the integer range
    ``floor((point_j - halo_j) / side_j) .. floor((point_j + halo_j) / side_j)``.
    The per-point reference for :func:`tile_key_bounds`.
    """
    ranges = []
    for x, h, side in zip(point, halo, tile_sides):
        lo = int(math.floor((x - h) / side))
        hi = int(math.floor((x + h) / side))
        ranges.append(range(lo, hi + 1))
    return list(itertools.product(*ranges))


def tile_key_bounds(
    points: np.ndarray,
    halo: Sequence[float],
    tile_sides: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`tile_keys_for_point`: the ``(n, dim)`` int64 arrays
    of the lowest and highest tile index per point and axis.

    The float arithmetic is the scalar reference's, element for element, so
    both give the same keys on every input, boundary points included.
    """
    halo_arr = np.asarray(halo, dtype=float)
    sides = np.asarray(tile_sides, dtype=float)
    lo = np.floor((points - halo_arr) / sides).astype(np.int64)
    hi = np.floor((points + halo_arr) / sides).astype(np.int64)
    return lo, hi


def tile_keys_for_points(
    points: np.ndarray,
    halo: Sequence[float],
    tile_sides: Sequence[float],
) -> List[List[Tuple[int, ...]]]:
    """Per point, the keys :func:`tile_keys_for_point` would return (same
    order), from one vectorised :func:`tile_key_bounds` pass."""
    lo, hi = tile_key_bounds(points, halo, tile_sides)
    return [list(itertools.product(*(range(a, b + 1) for a, b in zip(low, high))))
            for low, high in zip(lo.tolist(), hi.tolist())]


def _as_points(coords, dim: int) -> np.ndarray:
    """``coords`` as a contiguous ``(n, dim)`` float64 array."""
    points = np.ascontiguousarray(coords, dtype=np.float64)
    if points.size == 0:
        return points.reshape(0, dim)
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError("halo has %d axes but points have dimension %d"
                         % (dim, points.shape[-1] if points.ndim else 0))
    return points


def choose_tile_sides(
    coords,
    halo: Sequence[float],
    target_shards: int,
) -> Tuple[float, ...]:
    """Pick per-axis tile sides aiming for roughly ``target_shards`` occupied
    tiles while never dropping below ``2 * halo`` per axis (which caps the
    replication factor at 2 per axis)."""
    if target_shards < 1:
        raise ValueError("target_shards must be >= 1")
    dim = len(halo)
    points = _as_points(coords, dim)
    if not len(points):
        return tuple(max(2.0 * h, 1.0) for h in halo)
    per_axis = max(1, int(round(target_shards ** (1.0 / dim))))
    extents = (points.max(axis=0) - points.min(axis=0)).tolist()
    sides = []
    for axis in range(dim):
        floor_side = 2.0 * halo[axis]
        if floor_side <= 0:
            raise ValueError("halo must be positive on every axis, got %r" % (tuple(halo),))
        sides.append(max(floor_side, extents[axis] / per_axis))
    return tuple(sides)


def plan_shards(
    coords,
    halo: Sequence[float],
    *,
    tile_sides: Optional[Sequence[float]] = None,
    target_shards: int = 16,
) -> ShardPlan:
    """Partition ``coords`` (a point sequence or ``(n, dim)`` array) into
    halo-expanded tiles.

    Every returned shard is non-empty, and for any anchor placed in a shard's
    tile the points it can cover all belong to that shard -- the invariant
    that makes ``max`` over per-shard solver results equal to the global
    optimum (see the module docstring).  Shards are ordered by tile key and
    hold ascending point indices, exactly as bucketing every point under
    :func:`tile_keys_for_point` would order them.

    One vectorised pass: floor-divided tile bounds, per-axis replication
    offsets, and a stable lexicographic sort of the ``(key, point)`` pairs
    into the CSR block.
    """
    dim = len(halo)
    if any(h <= 0 for h in halo):
        raise ValueError("halo must be positive on every axis, got %r" % (tuple(halo),))
    points = _as_points(coords, dim)
    if tile_sides is None:
        tile_sides = choose_tile_sides(points, halo, target_shards)
    else:
        tile_sides = tuple(float(s) for s in tile_sides)
        if len(tile_sides) != dim:
            raise ValueError("need one tile side per axis")
        if any(s < 2.0 * h for s, h in zip(tile_sides, halo)):
            raise ValueError(
                "tile sides %r are smaller than twice the halo %r; replication "
                "would be unbounded" % (tile_sides, tuple(halo))
            )

    n = len(points)
    geometry = dict(halo=tuple(float(h) for h in halo),
                    tile_sides=tuple(tile_sides), dim=dim, n=n)
    if not n:
        return ShardPlan(keys=np.empty((0, dim), dtype=np.int64),
                         offsets=np.zeros(1, dtype=np.int64),
                         indices=np.empty(0, dtype=np.int64), **geometry)
    lo, hi = tile_key_bounds(points, halo, tile_sides)
    spans = hi - lo
    # Every per-axis step combination up to the widest span, in
    # itertools.product order; each point takes the steps within its own
    # span, and the pairs stay point-major.
    steps = np.stack(np.meshgrid(*(np.arange(w + 1) for w in spans.max(axis=0)),
                                 indexing="ij"), axis=-1).reshape(-1, dim)
    taken = np.ones((n, len(steps)), dtype=bool)
    for axis in range(dim):
        taken &= steps[:, axis] <= spans[:, axis, None]
    # One key column per axis: lexsort takes them as they are, and it is
    # stable, so each tile's indices come out ascending.
    columns = [(lo[:, axis, None] + steps[:, axis])[taken] for axis in range(dim)]
    order = np.lexsort(columns[::-1])
    owners = np.repeat(np.arange(n, dtype=np.int64), taken.sum(axis=1))[order]
    columns = [column[order] for column in columns]
    new_tile = np.zeros(len(order), dtype=bool)
    new_tile[0] = True
    for column in columns:
        new_tile[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(new_tile)
    return ShardPlan(keys=np.stack([column[starts] for column in columns], axis=1),
                     offsets=np.append(starts, len(owners)).astype(np.int64),
                     indices=owners, **geometry)
