"""Exact (uncolored) disk MaxRS in the plane by angular sweep.

The Chazelle--Lee style baseline [CL86]: in the dual setting every input
point becomes a disk of radius ``r`` and we seek the point of maximum weighted
depth.  For non-negative weights, a deepest point can always be found on the
boundary circle of one of the disks, so it suffices to sweep each circle
``C_i`` and maintain the total weight of the other disks covering the moving
boundary point.  Another disk ``D_j`` covers an arc of ``C_i`` iff
``dist(p_i, p_j) <= 2r``; the arc is centered at the direction of ``p_j`` and
has angular half-width ``arccos(dist / (2r))``.

Running time is ``O(n^2 log n)`` in the worst case -- a log factor above the
original ``O(n^2)`` algorithm, which is irrelevant for its role here as an
exactness oracle and baseline (see DESIGN.md, substitutions).  Both kernel
backends prune the pairwise interaction tests with a uniform grid
(:func:`repro.kernels.python_backend.disk_neighbor_candidates`), so the
effective cost is quadratic only in the local density; the ``numpy`` backend
sweeps every circle in one flat, blocked pass (see :mod:`repro.kernels`).

:func:`maxrs_disk_exact_segments` solves many independent point sets
(*segments*, e.g. the dirty shards of a streaming monitor) in one kernel
call; :func:`maxrs_disk_exact` is its one-segment case.

The sweep-geometry helpers (:func:`circle_cover_events` and friends) live in
:mod:`repro.kernels.python_backend` and are re-exported here for backwards
compatibility.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core._inputs import normalize_weighted
from ..core.result import MaxRSResult
from ..kernels import get_kernel, resolve_backend
from ..kernels.python_backend import (  # noqa: F401  (re-exported API)
    TWO_PI,
    _split_interval,
    _sweep_circle,
    circle_cover_events,
)

__all__ = ["maxrs_disk_exact", "maxrs_disk_exact_segments", "circle_cover_events"]


def maxrs_disk_exact(
    points: Sequence,
    radius: float = 1.0,
    *,
    weights: Optional[Sequence[float]] = None,
    backend: str = "auto",
) -> MaxRSResult:
    """Optimal placement of a disk of the given radius (exact).

    Weights must be non-negative.  ``center`` of the result is the optimal
    disk center.  ``backend`` selects the kernel implementation of the
    angular sweep (``"python"``, ``"numpy"`` or ``"auto"``; see
    :mod:`repro.kernels`).
    """
    return maxrs_disk_exact_segments(points, radius, weights=weights,
                                     backend=backend)[0]


def maxrs_disk_exact_segments(
    points: Sequence,
    radius: float = 1.0,
    *,
    offsets: Optional[Sequence[int]] = None,
    weights: Optional[Sequence[float]] = None,
    backend: str = "auto",
) -> List[MaxRSResult]:
    """Optimal disk placement of every segment of ``points``, in one call.

    Segment ``s`` is rows ``offsets[s]:offsets[s + 1]`` (``offsets`` rises
    from ``0`` to ``len(points)``; ``None`` makes all points one segment);
    points of different segments never interact.  Returns one exact result
    per segment, in order; an empty segment answers value ``0`` with no
    center.  Weights must be non-negative.  ``"auto"`` resolves the backend
    once, against the total number of points (the ``disk_sweep`` threshold
    of :data:`repro.kernels.KERNEL_AUTO_THRESHOLDS`).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    # prefer_arrays: ndarray inputs (shared-memory shard slices) stay arrays
    # all the way into the kernel -- but only when this call resolves to the
    # NumPy kernel; the pure-Python sweep expects tuple lists.
    prefer_arrays = (
        isinstance(points, np.ndarray) and points.ndim == 2
        and resolve_backend(backend, len(points), "disk_sweep") == "numpy")
    coords, weight_list, dim = normalize_weighted(points, weights,
                                                  require_positive=False,
                                                  prefer_arrays=prefer_arrays)
    n = len(coords)
    bounds = [0, n] if offsets is None else [int(offset) for offset in offsets]
    if (not bounds or bounds[0] != 0 or bounds[-1] != n
            or any(hi < lo for lo, hi in zip(bounds, bounds[1:]))):
        raise ValueError("offsets must rise from 0 to the %d points, got %r"
                         % (n, list(offsets)))
    if n and dim != 2:
        raise ValueError("maxrs_disk_exact expects points in the plane")
    negative = ((weight_list < 0).any() if isinstance(weight_list, np.ndarray)
                else any(w < 0 for w in weight_list))
    if negative:
        raise ValueError("maxrs_disk_exact requires non-negative weights")

    sweep = get_kernel(resolve_backend(backend, n, "disk_sweep"),
                       "disk_sweep_segments")
    answers = sweep(coords, weight_list, radius, bounds)
    return [
        MaxRSResult(value=value, center=center, shape="ball", exact=True,
                    meta={"radius": radius, "n": hi - lo})
        for (value, center), lo, hi in zip(answers, bounds, bounds[1:])
    ]
