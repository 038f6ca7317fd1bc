"""Pure-Python reference kernels.

These are the loops the solvers originally inlined, extracted behind the
kernel contract of :mod:`repro.kernels` so the NumPy backend can be validated
differentially against them.  They are the ground truth: every line mirrors
the sweep described in the corresponding solver's docstring, and the exact
solvers built on them return results bit-identical to the pre-refactor
implementations.

The module is dependency-free (``math`` only) apart from the shared
geometry helpers defined here, which :mod:`repro.exact.disk2d` re-exports
for backwards compatibility.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "TWO_PI",
    "circle_cover_events",
    "interval_sweep",
    "rectangle_sweep",
    "disk_neighbor_candidates",
    "disk_sweep",
    "disk_sweep_segments",
    "probe_depths",
    "colored_depth_batch",
]

TWO_PI = 2.0 * math.pi

Coords = Tuple[float, ...]


# --------------------------------------------------------------------------- #
# interval sweep (1-d)
# --------------------------------------------------------------------------- #

def interval_sweep(
    xs: Sequence[float],
    weights: Sequence[float],
    length: float,
    allow_empty: bool = True,
) -> Tuple[float, Optional[float]]:
    """Best placement ``[a, a + length]`` over weighted points on the line.

    Returns ``(best value, left endpoint)``; the left endpoint is ``None``
    when no placement improves on the empty baseline (``0`` when
    ``allow_empty``, ``-inf`` otherwise).  Supports negative weights (guard
    points of the Section 5.4 reduction): the open piece just after a
    removal breakpoint is evaluated explicitly because dropping a
    negative-weight point can *increase* the value.
    """
    additions: Dict[float, float] = defaultdict(float)
    removals: Dict[float, float] = defaultdict(float)
    for x, w in zip(xs, weights):
        additions[x - length] += w
        removals[x] += w

    coordinates = sorted(set(additions) | set(removals))
    running = 0.0
    best_value = 0.0 if allow_empty else float("-inf")
    best_left: Optional[float] = None
    for position, coord in enumerate(coordinates):
        if coord in additions:
            running += additions[coord]
        # Candidate 1: place the left endpoint exactly at this breakpoint.
        if running > best_value:
            best_value = running
            best_left = coord
        if coord in removals:
            running -= removals[coord]
            # Candidate 2: the open piece just after this breakpoint.
            if running > best_value:
                if position + 1 < len(coordinates):
                    piece_left = (coord + coordinates[position + 1]) / 2.0
                else:
                    piece_left = coord + 1.0
                best_value = running
                best_left = piece_left
    return best_value, best_left


# --------------------------------------------------------------------------- #
# rectangle sweep (2-d, Imai--Asano / Nandy--Bhattacharya)
# --------------------------------------------------------------------------- #

def rectangle_sweep(
    coords: Sequence[Coords],
    weights: Sequence[float],
    width: float,
    height: float,
) -> Tuple[float, Optional[Tuple[float, float]]]:
    """Optimal lower-left corner of a ``width x height`` rectangle.

    The classical ``O(n log n)`` sweep: candidate corners are
    ``a = x_j - width`` and ``b = y_i - height``; sweeping ``a`` left to
    right while a segment tree maintains the weighted coverage over the
    candidate ``b`` values gives the optimum.  Weights must be non-negative.
    Returns ``(best value, (a, b))`` with the corner ``None`` only for empty
    input.
    """
    from bisect import bisect_left, bisect_right

    from ..structures.segment_tree import MaxAddSegmentTree

    if not coords:
        return 0.0, None
    ys = [c[1] for c in coords]
    b_candidates = sorted({y - height for y in ys})
    tree = MaxAddSegmentTree(len(b_candidates))

    def b_range(y: float) -> Tuple[int, int]:
        lo = bisect_left(b_candidates, y - height - 1e-9)
        hi = bisect_right(b_candidates, y + 1e-9) - 1
        return lo, hi

    insert_at: Dict[float, List[int]] = defaultdict(list)
    remove_at: Dict[float, List[int]] = defaultdict(list)
    for i, (x, _y) in enumerate(coords):
        insert_at[x - width].append(i)
        remove_at[x].append(i)

    coordinates = sorted(set(insert_at) | set(remove_at))
    best_value = 0.0
    best_corner: Optional[Tuple[float, float]] = None
    for a in coordinates:
        for i in insert_at.get(a, ()):  # insertions first: the interval is closed
            lo, hi = b_range(ys[i])
            tree.add(lo, hi, weights[i])
        if a in insert_at:
            value, arg = tree.max_with_argmax()
            if value > best_value or best_corner is None:
                best_value = value
                best_corner = (a, b_candidates[arg])
        for i in remove_at.get(a, ()):
            lo, hi = b_range(ys[i])
            tree.add(lo, hi, -weights[i])

    if best_corner is None:
        best_corner = (coords[0][0] - width, coords[0][1] - height)
        best_value = weights[0]
    return best_value, best_corner


# --------------------------------------------------------------------------- #
# disk kernels (2-d angular sweep)
# --------------------------------------------------------------------------- #

def circle_cover_events(
    center: Tuple[float, float],
    radius: float,
    other: Tuple[float, float],
) -> Optional[Tuple[float, float]]:
    """Angular interval of ``circle(center, radius)`` covered by ``disk(other, radius)``.

    Returns ``(start, end)`` angles in ``[0, 2*pi)`` (the interval may wrap
    around), ``(0, 2*pi)`` when the whole circle is covered, or ``None`` when
    the two disks are too far apart to interact.
    """
    dx = other[0] - center[0]
    dy = other[1] - center[1]
    dist = math.hypot(dx, dy)
    if dist > 2.0 * radius + 1e-12:
        return None
    if dist <= 1e-12:
        return 0.0, TWO_PI
    ratio = min(1.0, dist / (2.0 * radius))
    half_width = math.acos(ratio)
    theta = math.atan2(dy, dx) % TWO_PI
    return (theta - half_width) % TWO_PI, (theta + half_width) % TWO_PI


def _split_interval(start: float, end: float) -> List[Tuple[float, float]]:
    """Split a (possibly wrapping) angular interval into non-wrapping pieces."""
    if end >= start:
        return [(start, end)]
    return [(start, TWO_PI), (0.0, end)]


def _sweep_circle(
    base_weight: float,
    intervals: List[Tuple[float, float, float]],
) -> Tuple[float, float]:
    """Max of ``base_weight + sum of interval weights covering angle`` over the circle.

    ``intervals`` holds ``(start, end, weight)`` with ``start <= end`` (already
    split at the wrap-around).  Returns ``(best value, best angle)``.
    """
    if not intervals:
        return base_weight, 0.0
    events: List[Tuple[float, int, float]] = []
    for start, end, weight in intervals:
        events.append((start, 0, weight))   # type 0: arc opens (closed endpoint)
        events.append((end, 1, weight))     # type 1: arc closes
    events.sort(key=lambda e: (e[0], e[1]))
    running = base_weight
    best_value = base_weight
    best_angle = 0.0
    for angle, kind, weight in events:
        if kind == 0:
            running += weight
            if running > best_value:
                best_value = running
                best_angle = angle
        else:
            running -= weight
    return best_value, best_angle


def disk_neighbor_candidates(
    coords: Sequence[Coords],
    radius: float,
) -> List[List[int]]:
    """Per-point candidate lists for the pairwise disk-intersection tests.

    ``result[i]`` holds the indices ``j != i`` (sorted ascending, matching
    the reference all-pairs iteration order) with
    ``dist(p_i, p_j) <= 2 * radius + 1e-12`` -- exactly the pairs whose unit
    disks interact in the angular sweep.  A uniform grid of cell side
    ``2 * radius + 1e-9`` restricts the distance tests to the 3x3 cell
    neighbourhood, so generation costs ``O(n * k)`` for ``k`` candidates per
    point instead of ``O(n^2)``.
    """
    side = 2.0 * radius + 1e-9
    cutoff = 2.0 * radius + 1e-12
    buckets: Dict[Tuple[int, int], List[int]] = {}
    cells: List[Tuple[int, int]] = []
    for i, (x, y) in enumerate(coords):
        cell = (int(math.floor(x / side)), int(math.floor(y / side)))
        cells.append(cell)
        buckets.setdefault(cell, []).append(i)

    result: List[List[int]] = []
    for i, (x, y) in enumerate(coords):
        cx, cy = cells[i]
        candidates: List[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                candidates.extend(buckets.get((cx + dx, cy + dy), ()))
        candidates.sort()
        kept = [
            j for j in candidates
            if j != i and math.hypot(coords[j][0] - x, coords[j][1] - y) <= cutoff
        ]
        result.append(kept)
    return result


def disk_sweep(
    coords: Sequence[Coords],
    weights: Sequence[float],
    radius: float,
) -> Tuple[float, Optional[Tuple[float, float]]]:
    """Exact weighted disk MaxRS by per-circle angular sweep.

    For every input point the boundary circle of its radius-``radius`` disk
    is swept, maintaining the weight of the other disks covering the moving
    boundary point (Chazelle--Lee).  Weights must be non-negative.  Returns
    ``(best value, best center)``.
    """
    if not coords:
        return 0.0, None
    neighbors = disk_neighbor_candidates(coords, radius)
    best_value = -math.inf
    best_center: Optional[Tuple[float, float]] = None
    for i, pivot in enumerate(coords):
        base = weights[i]
        intervals: List[Tuple[float, float, float]] = []
        for j in neighbors[i]:
            cover = circle_cover_events(pivot, radius, coords[j])
            if cover is None:
                continue
            start, end = cover
            if (start, end) == (0.0, TWO_PI):
                base += weights[j]
                continue
            for lo, hi in _split_interval(start, end):
                intervals.append((lo, hi, weights[j]))
        value, angle = _sweep_circle(base, intervals)
        if value > best_value:
            best_value = value
            best_center = (
                pivot[0] + radius * math.cos(angle),
                pivot[1] + radius * math.sin(angle),
            )
    return best_value, best_center


def disk_sweep_segments(
    coords: Sequence[Coords],
    weights: Sequence[float],
    radius: float,
    offsets: Sequence[int],
) -> List[Tuple[float, Optional[Tuple[float, float]]]]:
    """:func:`disk_sweep` on every segment of a flat input, in order.

    Segment ``s`` is rows ``offsets[s]:offsets[s + 1]`` (``offsets`` rises
    from ``0`` to ``len(coords)``); points of different segments never
    interact, and an empty segment answers ``(0.0, None)``.
    """
    return [disk_sweep(coords[lo:hi], weights[lo:hi], radius)
            for lo, hi in zip(offsets, offsets[1:])]


# --------------------------------------------------------------------------- #
# batched depth evaluation (Techniques 1 and 2)
# --------------------------------------------------------------------------- #

def probe_depths(
    probes: Sequence[Coords],
    centers: Sequence[Coords],
    weights: Sequence[float],
    radius: float = 1.0,
) -> List[float]:
    """Weighted depth of every probe: total weight of the balls containing it.

    The reference double loop behind Technique 1's probe evaluation; the
    containment test matches :func:`repro.core.depth.weighted_depth`
    (``dist^2 <= radius^2 + 1e-12``).
    """
    r2 = radius * radius + 1e-12
    depths: List[float] = []
    for probe in probes:
        total = 0.0
        for center, weight in zip(centers, weights):
            d2 = 0.0
            for a, b in zip(probe, center):
                diff = a - b
                d2 += diff * diff
            if d2 <= r2:
                total += weight
        depths.append(total)
    return depths


def colored_depth_batch(
    probes: Sequence[Coords],
    centers: Sequence[Coords],
    colors: Sequence[Hashable],
    radius: float = 1.0,
) -> List[int]:
    """Colored depth of every probe: distinct colors among the balls containing it.

    Reference loop for Technique 2's arrangement-vertex evaluation; matches
    :func:`repro.core.depth.colored_depth`.
    """
    r2 = radius * radius + 1e-12
    depths: List[int] = []
    for probe in probes:
        found = set()
        for center, color in zip(centers, colors):
            if color in found:
                continue
            d2 = 0.0
            for a, b in zip(probe, center):
                diff = a - b
                d2 += diff * diff
            if d2 <= r2:
                found.add(color)
        depths.append(len(found))
    return depths
