"""Vectorised NumPy kernels.

Each kernel restates the corresponding reference sweep of
:mod:`repro.kernels.python_backend` so the inner loop runs inside NumPy:

``interval_sweep``
    The event sweep becomes one interleaved prefix sum.  Additions and
    removals are bucketed per unique breakpoint with ``np.bincount`` (which
    accumulates duplicates in input order, like the reference dicts) and the
    alternating add/subtract order of the reference loop is reproduced by
    interleaving the per-coordinate sums into a single ``cumsum`` -- the
    running values are therefore *bit-identical* to the pure-Python sweep.

``rectangle_sweep``
    A chunked prefix-bound sweep.  The classical segment-tree sweep is
    irreducibly sequential, so instead events (sorted by ``a``) are processed
    in chunks: for each chunk a vectorised diff-array/cumsum computes, per
    candidate ``b``, an upper bound on the value reachable inside the chunk
    (current value plus *all* chunk insertions, ignoring removals -- valid
    because weights are non-negative).  Only the few positions whose bound
    beats the incumbent are re-simulated exactly (a ``cumsum`` over the
    chunk's event-coverage matrix); everything else is skipped wholesale.
    The incumbent is warm-started from the exact historic maxima of the few
    columns with the highest insertion mass, and sizes the chunks: a
    chunk's insertions may add about a fifth of it to the heaviest column's
    bound (:func:`_rectangle_chunk`).  The placements replayed near the
    incumbent are recorded and the best one re-scored canonically, so the
    answer does not depend on the schedule, and a halo shard reproduces the
    whole input's value bit for bit.

``disk_sweep`` / ``disk_sweep_segments`` / ``disk_neighbor_candidates``
    Every interacting pair is generated at once -- by a vectorised cell
    join (only the 3x3 cell neighbourhood of a uniform ``2r`` grid can
    interact; three key-range probes per point cover it), or, when every
    segment is small, by pairing all points of a segment -- and all arc
    geometry is computed in one flat pass over the pairs.  The circles are
    then swept together, not one by one: pivots go in blocks of decreasing
    upper bound, each block a padded grid of one row of arc events per
    pivot -- one row-wise sort on exact integer keys, one row-wise
    ``cumsum``, per-pivot maxima by ``argmax`` -- and pivots whose bound
    cannot beat the best found are pruned between blocks.
    ``disk_sweep_segments`` runs many independent point sets (a monitor's
    dirty shards) through one such pass, kept apart so they never pair;
    ``disk_sweep`` is its one-segment case.  Answers do not depend on what
    else was swept alongside, so a halo shard reproduces the whole input's
    answer bit for bit.

``probe_depths`` / ``colored_depth_batch``
    Dense pairwise distance blocks; colored depth reduces per-color coverage
    with ``np.logical_or.reduceat`` over color-sorted columns.

All kernels preserve the reference semantics exactly: the same candidate
sets, the same epsilon conventions, the same optimal objective value (up to
floating-point reassociation; bit-identical when the weight arithmetic is
exact, e.g. integer weights).  Reported argmax locations may be different,
equally optimal placements -- the differential harness re-scores them.
"""

from __future__ import annotations

import math
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
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

#: Most events per chunk of the rectangle sweep.  The cap on a chunk is
#: ``n_events // 128`` within ``[128, _RECT_CHUNK]``, so a chunk spans a
#: small share of a long sweep, and its suspect matrices stay small.  The
#: 1024 and the 1/128 come from the fixed schedule tuned at 100k points.
#: Below 8k points the cap is its floor of 128: on the constraint grid
#: (the table in :func:`rectangle_sweep`) a floor of 64 lost at 1k
#: clustered points with 1.5 x 1.2 rectangles (1.47 vs 1.23 ms) and at 4k
#: uniform points (10.9 vs 8.5 ms), and won only with tall 0.6 x 2.5
#: rectangles (1k: 2.11 vs 2.70 ms; all with 4 warm columns).
_RECT_CHUNK = 1024

#: Columns simulated per batch in the suspect refinement (bounds memory:
#: the coverage matrix is ``_RECT_CHUNK x _RECT_BATCH``).
_RECT_BATCH = 2048

#: Warm-start columns: the heaviest by insertion mass, whose exact historic
#: maxima seed the incumbent that sizes the chunks.  Each costs a pass over
#: every event; the former 32 took 1.0-1.7 ms of a 4-5 ms sweep at 1k
#: points.  On ``cold_placements``-like rectangles (80 sizes from U(0.5, 3)
#: x U(0.5, 3) on its 1k clustered points, best of 3 each, two seeds) the
#: median sweep took 1.93 and 2.56 ms with 2 columns, 2.07 and 2.77 with 4,
#: 2.22 and 2.72 with 8; from 10k to 100k points 2 and 4 read within each
#: other's spread (100k uniform: 496 vs 485 ms; 100k clustered: 1626 vs
#: 1631 ms).
_RECT_WARM = 2

#: Share of the incumbent that one chunk's insertions may add, on average,
#: to the heaviest column's bound.  On the ``cold_placements``-like
#: rectangles 0.15, 0.2 and 0.25 gave medians of 2.05, 2.07 and 2.14 ms on
#: one seed and 2.80, 2.77 and 2.83 ms on the other (4 warm columns).
#: Smaller shares lose on uniform points: at 0.125 the uniform cloud at
#: 10k points took 28.7 ms against the fixed schedule's 25.8 ms.
_RECT_SHARE = 0.2

#: Fewest events per chunk: a chunk costs a dozen NumPy calls whatever its
#: length.  The floor binds only when the incumbent is a small share of
#: the heaviest column's mass; on the ``cold_placements``-like rectangles
#: floors of 16, 32 and 64 read within 4% of each other (2.01, 2.07 and
#: 2.06 ms; 2.69, 2.77 and 2.82 ms; 4 warm columns).
_RECT_MIN_CHUNK = 32


def _rectangle_chunk(n_events: int, best: float, peak: float) -> int:
    """Events per chunk of the rectangle sweep.

    A chunk of ``c`` events inserts about ``peak * c / n_events`` into the
    heaviest column (``peak`` is its insertion mass), so ``c`` is chosen to
    make that :data:`_RECT_SHARE` of the incumbent ``best``: past that,
    the insertions-only bound goes loose and columns that cannot win turn
    into suspects.  The result lies between :data:`_RECT_MIN_CHUNK` and
    the event-count cap; the cap alone serves when ``best`` or ``peak`` is
    0 (all-zero weights).
    """
    cap = min(_RECT_CHUNK, max(128, n_events // 128))
    if best <= 0.0 or peak <= 0.0:
        return cap
    return int(min(cap, max(_RECT_MIN_CHUNK, _RECT_SHARE * best * n_events / peak)))


# --------------------------------------------------------------------------- #
# interval sweep (1-d)
# --------------------------------------------------------------------------- #

def interval_sweep(
    xs: Sequence[float],
    weights: Sequence[float],
    length: float,
    allow_empty: bool = True,
) -> Tuple[float, Optional[float]]:
    """Vectorised 1-d sweep; see :func:`repro.kernels.python_backend.interval_sweep`."""
    x = np.asarray(xs, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = x.size
    if n == 0:
        return (0.0 if allow_empty else float("-inf")), None

    all_coords = np.concatenate([x - length, x])
    uniq, inverse = np.unique(all_coords, return_inverse=True)
    m = uniq.size
    additions = np.bincount(inverse[:n], weights=w, minlength=m)
    removals = np.bincount(inverse[n:], weights=w, minlength=m)
    has_removal = np.bincount(inverse[n:], minlength=m) > 0

    # Reproduce the reference loop's alternating add/subtract order so the
    # running sums are bit-identical: cumsum over [A_0, -R_0, A_1, -R_1, ...].
    interleaved = np.empty(2 * m, dtype=float)
    interleaved[0::2] = additions
    interleaved[1::2] = -removals
    running = np.cumsum(interleaved)
    after_add = running[0::2]     # value of placing the left endpoint at uniq[k]
    after_remove = running[1::2]  # value on the open piece just after uniq[k]

    best_value = 0.0 if allow_empty else float("-inf")
    best_left: Optional[float] = None

    k1 = int(np.argmax(after_add))
    v1 = float(after_add[k1])
    v2 = -math.inf
    if has_removal.any():
        masked = np.where(has_removal, after_remove, -np.inf)
        k2 = int(np.argmax(masked))
        v2 = float(masked[k2])

    if v1 > best_value and v1 >= v2:
        best_value = v1
        best_left = float(uniq[k1])
    elif v2 > best_value:
        best_value = v2
        best_left = float((uniq[k2] + uniq[k2 + 1]) / 2.0) if k2 + 1 < m else float(uniq[k2] + 1.0)
    return best_value, best_left


# --------------------------------------------------------------------------- #
# rectangle sweep (2-d): chunked prefix-bound sweep with suspect refinement
# --------------------------------------------------------------------------- #

def rectangle_sweep(
    coords: Sequence[Coords],
    weights: Sequence[float],
    width: float,
    height: float,
) -> Tuple[float, Optional[Tuple[float, float]]]:
    """Vectorised 2-d sweep; see the module docstring for the algorithm.

    Correctness rests on two facts.  (1) With non-negative weights the value
    of a candidate column ``b`` over sweep time attains its maximum right
    after a full insertion group, so the per-column *historic* maximum over
    all event prefixes equals the maximum over the reference sweep's query
    points.  (2) Within a chunk, current value plus the chunk's insertions
    (ignoring removals) bounds every intermediate value from above, so
    columns whose bound does not beat the incumbent need no exact replay.

    A placement is a column and an insertion coordinate ``a`` of a point
    covering it.  Every placement whose running value comes within
    ``1e-9`` relative of the incumbent is recorded where it is replayed:
    in a warm-start column, or as a suspect, which it must be, as its
    bound is at least its value.  So whatever the schedule, the records
    hold every optimal placement.  With integer weights every sum is exact
    and the running values are the placements' weights.  Other weights
    leave the running sums with the rounding of the events the sweep
    passed, so the recorded placements are re-scored canonically: the
    weights of the points the rectangle covers, summed in point order.
    The best value is reported at the lowest placement attaining it, by
    ``(b, a)``.  So the answer does not depend on the warm start, the
    chunk sizes or the incumbent, and a halo shard holding the covered
    points reports the whole input's value bit for bit.

    The schedule (:func:`_rectangle_chunk`) was chosen on this grid: ms per
    sweep, the median over four alternating rounds of the best of 5 runs
    (3 at 10k-20k points, 2 at 100k), on a 2-vCPU x86-64 VM, against the
    fixed schedule it replaced (32 warm columns, then chunks of
    ``max(64, min(1024, n_events // 128))`` events).  Inputs: a uniform
    cloud of uniform weights at the ``kernels`` suite's density (extent
    ``0.95 * sqrt(n)``) with 2 x 2 rectangles, and unit weights on three
    Gaussian clusters over a 30% uniform background in a 10 x 10 square
    (``cold_placements``' points) with 1.5 x 1.2 and 0.6 x 2.5 rectangles;
    ndarrays, and tuple lists up to 1k points.

    ======= ============= ============= ============= ============= =============
    points  uniform 2x2   clust 1.5x1.2 clust 0.6x2.5 uniform list  clust list
    ======= ============= ============= ============= ============= =============
    32      0.39 -> 0.27  0.37 -> 0.20  0.38 -> 0.24  0.40 -> 0.28  0.38 -> 0.21
    100     0.59 -> 0.43  0.52 -> 0.28  0.59 -> 0.35  0.61 -> 0.45  0.55 -> 0.30
    300     1.04 -> 0.79  0.99 -> 0.56  1.23 -> 0.74  1.11 -> 0.86  1.01 -> 0.60
    1k      2.48 -> 1.74  2.75 -> 1.17  3.35 -> 2.18  3.27 -> 2.36  4.04 -> 1.76
    4k      11.8 -> 7.2   15.8 -> 8.0   15.4 -> 10.3
    10k     25.5 -> 24.0  55.5 -> 35.8  50.7 -> 42.2
    20k     73.3 -> 72.2  132 -> 95
    100k    617 -> 502    3021 -> 1436
    ======= ============= ============= ============= ============= =============
    """
    pts = np.asarray(coords, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = len(pts)
    if n == 0:
        return 0.0, None
    xs = pts[:, 0]
    ys = pts[:, 1]

    # Candidate b columns and each point's covered column range, with the
    # same epsilon conventions as the reference bisects.
    b_cands = np.unique(ys - height)
    m = b_cands.size
    lo = np.searchsorted(b_cands, ys - height - 1e-9, side="left")
    hi = np.searchsorted(b_cands, ys + 1e-9, side="right") - 1

    # Events sorted by (a, kind, point): insertions (kind 0) before removals
    # at equal a, exactly like the reference sweep.  Listed insertions
    # first, each kind in point order, they need only a stable sort by a.
    ev_x = np.concatenate([xs - width, xs])
    order = np.argsort(ev_x, kind="stable")
    ex = ev_x[order]
    is_ins = order < n
    ev_pt = order % n
    elo = lo[ev_pt]
    ehi = hi[ev_pt]
    esw = np.where(is_ins, 1.0, -1.0) * w[ev_pt]
    n_events = 2 * n

    best = -np.inf
    # (columns, insertion events, running values) of the placements replayed
    # within float noise of the incumbent.
    found: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def record(columns: np.ndarray, events: np.ndarray, values: np.ndarray) -> None:
        nonlocal best
        best = max(best, float(values.max()))
        near = values >= _near(best)
        found.append((columns[near], events[near], values[near]))

    def consider_column(j: int) -> None:
        """Exact historic maximum of column ``j`` over the full event list."""
        events = np.flatnonzero((elo <= j) & (ehi >= j))
        prefix = np.cumsum(esw[events])
        ins = is_ins[events]
        record(np.full(int(ins.sum()), j), events[ins], prefix[ins])

    # Warm start: the columns with the largest total insertion mass are the
    # likeliest optima, and their exact maxima seed the incumbent.
    insertion_mass = np.cumsum(np.bincount(lo, weights=w, minlength=m + 1)[:m]
                               - np.bincount(hi + 1, weights=w, minlength=m + 1)[:m])
    warm = min(_RECT_WARM, m)
    for j in np.argpartition(insertion_mass, m - warm)[m - warm:] if warm else ():
        consider_column(int(j))
    consider_column(int(lo[0]))  # a valid placement even with all-zero weights

    # An event adds its signed weight to columns lo..hi: +sw at lo and -sw
    # at hi + 1 of a difference array, whose first row takes insertions
    # and second row removals; one bincount per chunk fills both.
    row = np.where(is_ins, 0, m + 1)
    diff_at = np.stack((elo + row, ehi + 1 + row), axis=1).ravel()
    diff_w = np.stack((esw, -esw), axis=1).ravel()
    chunk = _rectangle_chunk(n_events, best, float(insertion_mass.max()))
    value_now = np.zeros(m)  # exact column values at the current chunk boundary
    for c0 in range(0, n_events, chunk):
        c1 = min(n_events, c0 + chunk)
        change = np.bincount(diff_at[2 * c0:2 * c1], weights=diff_w[2 * c0:2 * c1],
                             minlength=2 * m + 2).reshape(2, m + 1)[:, :m].cumsum(axis=1)
        # Upper bound per column: current value + all chunk insertions.
        bound = value_now + change[0]
        ins = is_ins[c0:c1]
        if ins.any():
            # The 1e-9 margin of _near absorbs reassociation noise between
            # the bound (chunked sums) and the incumbent (sequential sums):
            # suspects may only be over-included, never missed.
            suspects = np.flatnonzero(bound >= _near(best))
            l = elo[c0:c1]
            h = ehi[c0:c1]
            sw = esw[c0:c1]
            for s0 in range(0, suspects.size, _RECT_BATCH):
                batch = suspects[s0:s0 + _RECT_BATCH]
                cover = (batch[:, None] >= l) & (batch[:, None] <= h)
                prefix = np.where(cover, sw, 0.0).cumsum(axis=1)
                prefix += value_now[batch][:, None]
                # every running value is a state of the sweep, so none
                # exceeds the optimum
                peaks = prefix.max(axis=1)
                best = max(best, float(peaks.max()))
                near = (peaks >= _near(best)).nonzero()[0]
                rows, at = (prefix[near] >= _near(best)).nonzero()
                rows = near[rows]
                hit = cover[rows, at] & ins[at]  # placements: covering insertions
                if hit.any():
                    record(batch[rows[hit]], c0 + at[hit], prefix[rows[hit], at[hit]])
        # Advance the chunk boundary exactly (insertions and removals).
        value_now = bound + change[1]

    columns, events, values = (np.concatenate(part) for part in zip(*found))
    near = values >= _near(best)
    columns, events, values = columns[near], events[near], values[near]
    if not _exact_sums(w):
        placement = np.unique(columns * n_events + events)
        columns, events = placement // n_events, placement % n_events
        values = _rectangle_weight(columns, ex[events], lo, hi, xs, width, w)
    tied = (values == values.max()).nonzero()[0]
    first = tied[np.lexsort((events[tied], columns[tied]))[0]]
    # max: weights are >= 0, so this only turns a -0.0 into 0.0
    return (max(0.0, float(values[first])),
            (float(ex[events[first]]), float(b_cands[columns[first]])))


def _rectangle_weight(
    columns: np.ndarray,
    a: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    xs: np.ndarray,
    width: float,
    w: np.ndarray,
) -> np.ndarray:
    """Weight of the rectangle at each placement (column, ``a``), summed
    over the covered points in point order.

    A point covers the placement exactly when the sweep counts it there:
    inserted at or before ``a`` (``x - width <= a``), removed after the
    insertions at ``a`` (``x >= a``), and covering the column.
    """
    ins_x = xs - width
    # only points that may cover some placement, still in point order
    near = ((lo <= columns.max()) & (hi >= columns.min())
            & (ins_x <= a.max()) & (xs >= a.min())).nonzero()[0]
    lo, hi, ins_x, xs = lo[near], hi[near], ins_x[near], xs[near]
    block = max(1, (1 << 20) // near.size)  # placements per coverage block
    rows, points = [], []
    for k0 in range(0, columns.size, block):
        j = columns[k0:k0 + block, None]
        at = a[k0:k0 + block, None]
        r, p = ((lo <= j) & (hi >= j) & (ins_x <= at) & (xs >= at)).nonzero()
        rows.append(r + k0)
        points.append(near[p])
    return _sum_in_point_order(np.concatenate(rows), np.concatenate(points),
                               w, columns.size)

# --------------------------------------------------------------------------- #
# disk kernels (2-d angular sweep)
# --------------------------------------------------------------------------- #

#: Most arcs one block of the flat disk sweep holds, counted on its padded
#: event grid (pivots x the block's largest arc count; two events per arc).
#: This bounds the sweep's working memory to about a megabyte whatever the
#: input size, and since pivots are pruned between blocks, a smaller budget
#: prunes at a finer grain.
_DISK_BLOCK_PAIRS = 1 << 13

#: Event key of a padding cell: sorts after every real event.
_PAD_KEY = np.iinfo(np.uint64).max

#: Segments of at most this many points skip the cell join: every two of
#: their points are candidates.  At that size the join's bucketing and
#: probes cost more NumPy calls than the extra distance tests they save.
_DENSE_SEGMENT_POINTS = 64


def _disk_interaction_pairs(
    pts: np.ndarray,
    radius: float,
    sizes: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ...]:
    """All ordered pairs ``(i, j)``, ``j != i``, with ``dist <= 2r + 1e-12``.

    ``sizes`` (points per segment, every one at least 1, summing to
    ``len(pts)``; ``None`` makes one segment) splits the points into
    consecutive groups that never pair.  When no segment holds more than
    :data:`_DENSE_SEGMENT_POINTS` points, every two points of a segment are
    candidates.  Otherwise a vectorised cell join finds them: points are
    bucketed into a uniform grid of side ``2r + 1e-9`` (so interacting
    pairs always sit in adjacent cells), each segment's cells taken
    relative to its own corner and its columns shifted past the previous
    segment's with two empty columns between.  With row-major cell keys the
    three cells ``(cx + dx, cy - 1 .. cy + 1)`` are one contiguous key
    range, so three ``searchsorted`` range probes per point against the
    cell-sorted order find every candidate run; the runs are expanded to
    pairs with a ``repeat``/``arange`` trick.  Candidates are then
    distance-filtered.

    Returns ``(pivot, other, dx, dy, dist)``: index arrays grouped by
    ascending pivot, and each pair's offset ``p_other - p_pivot`` and its
    length.  Which candidates a pivot meets, and in which order, changes
    only float rounding in the sums its sweep adds up in that order (its
    upper bound and the weight its circle always covers); the sweep's
    margins and re-scoring absorb that.
    """
    n = len(pts)
    sizes = np.array([n]) if sizes is None else sizes
    if sizes.max() <= _DENSE_SEGMENT_POINTS:
        # a pivot's candidates: its whole segment, in index order
        lengths = sizes.repeat(sizes)
        run_ends = lengths.cumsum()
        pivot_of = np.arange(n).repeat(lengths)
        other = ((sizes.cumsum() - sizes).repeat(sizes)
                 - run_ends + lengths).repeat(lengths) + np.arange(int(run_ends[-1]))
    else:
        side = 2.0 * radius + 1e-9
        cells = np.floor(pts / side).astype(np.int64)
        if sizes.size == 1:
            cells -= cells.min(axis=0)
        else:
            segment = np.arange(sizes.size).repeat(sizes)
            cells -= np.minimum.reduceat(cells, sizes.cumsum() - sizes,
                                         axis=0)[segment]
            cells[:, 0] += segment * (cells[:, 0].max() + 3)
        # +2: a row past the data keeps each column's probe range off the next
        stride = cells[:, 1].max() + 2
        key = cells[:, 0] * stride + cells[:, 1]
        by_cell = np.argsort(key, kind="stable")
        sorted_keys = key[by_cell]

        # Pivot-major probes (three columns per pivot), so the expanded
        # pairs come out grouped by pivot without a final sort.
        probe = (key[:, None] + np.array([-stride, 0, stride])).ravel()
        left = np.searchsorted(sorted_keys, probe - 1, side="left")
        lengths = np.searchsorted(sorted_keys, probe + 1, side="right") - left
        run_ends = lengths.cumsum()
        pivot_of = np.arange(n).repeat(lengths.reshape(n, 3).sum(axis=1))
        # run element k of probe p sits at left[p] + k: shift each run's
        # left end back by the run's offset in the expanded array
        other = by_cell[(left - run_ends + lengths).repeat(lengths)
                        + np.arange(int(run_ends[-1]))]
    xs, ys = pts[:, 0].copy(), pts[:, 1].copy()  # contiguous: faster gathers
    dx = xs[other] - xs[pivot_of]
    dy = ys[other] - ys[pivot_of]
    cutoff = 2.0 * radius + 1e-12
    # A squared-length test with slack far above its rounding error keeps
    # every pair the exact test keeps, so only those pay for hypot.
    near = (dx * dx + dy * dy <= (cutoff * (1.0 + 1e-9)) ** 2).nonzero()[0]
    pivot_of, other, dx, dy = pivot_of[near], other[near], dx[near], dy[near]
    dist = np.hypot(dx, dy)
    keep = (pivot_of != other) & (dist <= cutoff)
    return pivot_of[keep], other[keep], dx[keep], dy[keep], dist[keep]


def disk_neighbor_candidates(
    coords: Sequence[Coords],
    radius: float,
) -> List[np.ndarray]:
    """Grid-bucketed candidate generation; same contract as the reference.

    ``result[i]`` holds the indices ``j != i`` (sorted ascending) with
    ``dist(p_i, p_j) <= 2 * radius + 1e-12``.
    """
    pts = np.asarray(coords, dtype=float)
    n = len(pts)
    if n == 0:
        return []
    pivot_of, other = _disk_interaction_pairs(pts, radius)[:2]
    order = np.lexsort((other, pivot_of))
    counts = np.bincount(pivot_of, minlength=n)
    return np.split(other[order], np.cumsum(counts)[:-1])


def disk_sweep(
    coords: Sequence[Coords],
    weights: Sequence[float],
    radius: float,
) -> Tuple[float, Optional[Tuple[float, float]]]:
    """Vectorised angular sweep; see :func:`repro.kernels.python_backend.disk_sweep`.

    The one-segment case of :func:`disk_sweep_segments`, which describes
    the algorithm.
    """
    return disk_sweep_segments(coords, weights, radius, (0, len(coords)))[0]


def disk_sweep_segments(
    coords: Sequence[Coords],
    weights: Sequence[float],
    radius: float,
    offsets: Sequence[int],
) -> List[Tuple[float, Optional[Tuple[float, float]]]]:
    """Independent angular sweeps of many segments in one flat pass.

    Segment ``s`` is rows ``offsets[s]:offsets[s + 1]`` of ``coords`` and
    ``weights``; points of different segments never interact.  Returns one
    ``(value, center)`` per segment, in order (``(0.0, None)`` for an empty
    segment); see :func:`repro.kernels.python_backend.disk_sweep_segments`.

    All pair geometry (distances, arc centers, half-widths, wrap-around)
    is computed in one pass over every candidate pair of every segment.
    A concentric pair (``dist <= 1e-12``) covers the whole circle, so its
    weight joins the pivot's base value; so does a wrapping arc ``(start,
    end)`` with ``end < start``, which covers angle ``0``, and its two
    events (+w at ``start``, -w at ``end``) reproduce the reference's split
    pieces.

    Pivots are visited in blocks of decreasing upper bound (own weight
    plus every candidate's weight), each block's padded event grid holding
    at most :data:`_DISK_BLOCK_PAIRS` pairs; before each block, pivots
    whose bound falls short of their own segment's best are dropped -- the
    same bound-and-prune the Technique 1 cell loop uses.  An input whose
    pivots all fit one block is swept in index order.  A block is swept
    flat (:func:`_sweep_block`): one sort, one ``cumsum`` and one ``argmax``
    over every pivot's events at once.

    The answer does not depend on which other points were swept
    alongside.  With integer weights every sum is exact, so a pivot's
    running value is its disk's weight.  Other weights leave each running
    sum with the rounding of every arc its sweep passed, so a segment's
    near-best pivots (within ``1e-9`` relative of its best running value;
    pruning keeps that margin too) are re-scored canonically: the weights
    of the points their disk covers, summed in point order.  The segment
    reports the best value at the lowest-index pivot attaining it.  A
    disk's covered points are what a halo shard keeps, so a shard holding
    them reproduces the whole input's answer bit for bit.  Values equal
    the reference backend's up to float reassociation (exactly, for exact
    weight arithmetic); reported centers may be other, equally optimal
    ones.
    """
    pts = np.asarray(coords, dtype=float).reshape(-1, 2)
    w = np.asarray(weights, dtype=float)
    edges = np.asarray(offsets, dtype=np.int64)
    sizes = edges[1:] - edges[:-1]
    answers: List[Tuple[float, Optional[Tuple[float, float]]]] = (
        [(0.0, None)] * sizes.size)
    n = len(pts)
    if n == 0:
        return answers
    occupied = sizes.nonzero()[0]
    segment = np.arange(occupied.size).repeat(sizes[occupied])

    pivot_of, other, dx, dy, dist = _disk_interaction_pairs(
        pts, radius, sizes[occupied])
    pair_w = w[other]
    full = dist <= 1e-12  # concentric: the whole circle is covered
    theta = np.mod(np.arctan2(dy, dx), TWO_PI)
    half = np.arccos(np.minimum(1.0, dist / (2.0 * radius)))
    start = np.mod(theta - half, TWO_PI)
    end = np.mod(theta + half, TWO_PI)
    wrap = (end < start) & ~full

    # Per-pivot constants: the upper bound, and the value at angle 0 (own
    # weight + concentric disks + wrapping arcs, which all cover it).
    bound = w + np.bincount(pivot_of, weights=pair_w, minlength=n)
    covers_zero = full | wrap
    base = w + np.bincount(pivot_of[covers_zero], weights=pair_w[covers_zero],
                           minlength=n)
    # Concentric pairs have no events; the rest stay grouped by pivot.
    arc = ~full
    arcs = (start[arc], end[arc], pair_w[arc])
    arc_count = np.bincount(pivot_of[arc], minlength=n)
    arc_first = arc_count.cumsum() - arc_count

    best = np.full(occupied.size, -np.inf)
    swept: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    if n * int(arc_count.max()) <= _DISK_BLOCK_PAIRS:
        pending = np.arange(n)  # one block: no later block to prune
    else:
        pending = np.argsort(-bound, kind="stable")
    while pending.size:
        # the longest prefix whose padded grid (pivots x widest row) fits
        padded = (np.maximum.accumulate(arc_count[pending])
                  * np.arange(1, pending.size + 1))
        take = max(1, int(padded.searchsorted(_DISK_BLOCK_PAIRS, side="right")))
        block, pending = pending[:take], pending[take:]
        values, angles = _sweep_block(block, arc_first, arc_count, arcs, base)
        np.maximum.at(best, segment[block], values)
        swept.append((block, values, angles))
        if pending.size:
            pending = pending[bound[pending] >= _near(best)[segment[pending]]]

    pivots, scores, angles = (np.concatenate(column) for column in zip(*swept))
    top = best
    if not _exact_sums(w):
        # inexact weight arithmetic: running sums carry rounding
        keep = scores >= _near(best)[segment[pivots]]
        pivots, angles = pivots[keep], angles[keep]
        scores = _covered_weight(pivots, angles,
                                 (pivot_of, other, start, end, full, wrap), w)
        top = np.full(occupied.size, -np.inf)
        np.maximum.at(top, segment[pivots], scores)
    owner = segment[pivots]
    tied = (scores == top[owner]).nonzero()[0]
    chosen = np.full(occupied.size, n)
    np.minimum.at(chosen, owner[tied], pivots[tied])
    angle_of = np.zeros(n)
    angle_of[pivots] = angles
    for rank, (s, i, angle) in enumerate(zip(occupied.tolist(), chosen.tolist(),
                                             angle_of[chosen].tolist())):
        answers[s] = (float(top[rank]),
                      (float(pts[i, 0]) + radius * math.cos(angle),
                       float(pts[i, 1]) + radius * math.sin(angle)))
    return answers


def _near(best: np.ndarray) -> np.ndarray:
    """The lowest value still within float noise of each segment's best
    (``-inf`` while a segment has none)."""
    return best - 1e-9 * (1.0 + np.abs(best))


def _exact_sums(w: np.ndarray) -> bool:
    """Whether every sum of the weights ``w`` is exact in floating point,
    in any order (integer weights of total magnitude below ``2**53``)."""
    return bool(np.array_equal(w, np.floor(w)) and np.abs(w).sum() < 2.0 ** 53)


def _sum_in_point_order(
    rows: np.ndarray,
    points: np.ndarray,
    w: np.ndarray,
    n_rows: int,
) -> np.ndarray:
    """Per row, the weights of its points summed in point order: one sum
    per row, each a function of the row's points alone (every row holds at
    least one point)."""
    order = (rows * w.size + points).argsort()
    sizes = np.bincount(rows, minlength=n_rows)
    return np.add.reduceat(w[points[order]], sizes.cumsum() - sizes)


def _covered_weight(
    pivots: np.ndarray,
    angles: np.ndarray,
    pairs: Tuple[np.ndarray, ...],
    w: np.ndarray,
) -> np.ndarray:
    """Weight of the disk centered on each pivot's circle at its angle,
    summed over the covered points in point order.

    A pair covers the angle exactly when the sweep counts it there:
    concentric pairs always, a plain arc on ``start <= a <= end``, a
    wrapping arc on ``a >= start`` or ``a <= end``.
    """
    pivot_of, other, start, end, full, wrap = pairs
    pair_count = np.bincount(pivot_of, minlength=w.size)
    count = pair_count[pivots]
    first = (pair_count.cumsum() - pair_count)[pivots]
    pair = (first - count.cumsum() + count).repeat(count) + np.arange(int(count.sum()))
    row = np.arange(pivots.size).repeat(count)
    a = angles.repeat(count)
    s = start[pair]
    e = end[pair]
    covered = full[pair] | np.where(wrap[pair], (a >= s) | (a <= e),
                                    (s <= a) & (a <= e))
    rows = np.concatenate((np.arange(pivots.size), row[covered]))
    points = np.concatenate((pivots, other[pair[covered]]))
    return _sum_in_point_order(rows, points, w, pivots.size)


def _sweep_block(
    block: np.ndarray,
    arc_first: np.ndarray,
    arc_count: np.ndarray,
    arcs: Tuple[np.ndarray, np.ndarray, np.ndarray],
    base: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Best ``(value, angle)`` on the circle of every pivot in ``block``.

    With closed arcs the value right after every arc opening at angle ``a``
    is ``base + sum(w : start <= a) - sum(w : end < a)``.  Each pivot's
    events fill one row of a padded grid, keyed exactly: an angle's IEEE
    bit pattern (ordered like the angle, as angles are non-negative)
    shifted left, with the low bit set on closes so that an open sorts
    before a close at the same angle.  One row-wise sort then orders every
    row for the sweep, one row-wise ``cumsum`` gives every running value,
    and ``argmax`` over the opening events each row's first peak.  A row's
    sums depend on its own arcs alone, so a pivot's value is the same
    whichever block or segment batch it is swept in (up to the order of
    equal keys, which only non-integer weights can see, and which
    :func:`_covered_weight` re-scores).
    """
    start, end, pair_w = arcs
    counts = arc_count[block]
    values = base[block]
    angles = np.zeros(block.size)
    width = 2 * int(counts.max())
    if width == 0:
        return values, angles
    firsts = counts.cumsum() - counts
    pair = (arc_first[block] - firsts).repeat(counts) + np.arange(int(counts.sum()))
    # flat grid cells of the arcs' opening events (row * width + column),
    # then of their closing events, ``count`` columns further on
    opens = pair + (np.arange(block.size) * width - arc_first[block]).repeat(counts)
    cells = np.concatenate((opens, opens + counts.repeat(counts)))
    grid_key = np.full(block.size * width, _PAD_KEY, dtype=np.uint64)
    grid_key[cells] = np.concatenate((start[pair].view(np.uint64) << 1,
                                      (end[pair].view(np.uint64) << 1) | 1))
    grid_key = grid_key.reshape(block.size, width)
    weight = pair_w[pair]
    grid_weight = np.zeros(block.size * width)
    grid_weight[cells] = np.concatenate((weight, -weight))

    order = grid_key.argsort(axis=1)
    rows = np.arange(block.size)
    running = grid_weight[order + (rows * width)[:, None]].cumsum(axis=1)
    # opening events are the columns left of each row's arc count
    opened = np.where(order < counts[:, None], running, -np.inf)
    at = opened.argmax(axis=1)
    peak = opened[rows, at]
    rises = (peak > 0.0).nonzero()[0]
    values[rises] += peak[rises]
    angles[rises] = (grid_key[rises, order[rises, at[rises]]] >> 1).view(np.float64)
    return values, angles


# --------------------------------------------------------------------------- #
# batched depth evaluation (Techniques 1 and 2)
# --------------------------------------------------------------------------- #

def probe_depths(
    probes: Sequence[Coords],
    centers: Sequence[Coords],
    weights: Sequence[float],
    radius: float = 1.0,
) -> np.ndarray:
    """Weighted depth of every probe via one pairwise distance block."""
    probe_arr = np.asarray(probes, dtype=float)
    center_arr = np.asarray(centers, dtype=float)
    weight_arr = np.asarray(weights, dtype=float)
    if probe_arr.size == 0:
        return np.zeros(0)
    if center_arr.size == 0:
        return np.zeros(len(probe_arr))
    r2 = radius * radius + 1e-12
    diff = probe_arr[:, None, :] - center_arr[None, :, :]
    inside = (diff * diff).sum(axis=2) <= r2
    return inside @ weight_arr


def colored_depth_batch(
    probes: Sequence[Coords],
    centers: Sequence[Coords],
    colors: Sequence[Hashable],
    radius: float = 1.0,
) -> List[int]:
    """Colored depth of every probe: per-color coverage reduced with ``reduceat``.

    Colors (arbitrary hashables) are coded to dense integers; centers are
    sorted by code once so each probe's distinct-color count is an ``any``
    per contiguous color group of its coverage row.
    """
    probe_arr = np.asarray(probes, dtype=float)
    center_arr = np.asarray(centers, dtype=float)
    if probe_arr.size == 0:
        return []
    if center_arr.size == 0:
        return [0] * len(probe_arr)

    code_of: dict = {}
    codes = np.empty(len(colors), dtype=np.intp)
    for i, color in enumerate(colors):
        codes[i] = code_of.setdefault(color, len(code_of))
    by_color = np.argsort(codes, kind="stable")
    sorted_codes = codes[by_color]
    group_starts = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])

    sorted_centers = center_arr[by_color]
    r2 = radius * radius + 1e-12
    depths: List[int] = []
    chunk = max(1, 1_000_000 // max(1, len(center_arr)))
    for p0 in range(0, len(probe_arr), chunk):
        block = probe_arr[p0:p0 + chunk]
        diff = block[:, None, :] - sorted_centers[None, :, :]
        inside = (diff * diff).sum(axis=2) <= r2
        per_color = np.logical_or.reduceat(inside, group_starts, axis=1)
        depths.extend(int(v) for v in per_color.sum(axis=1))
    return depths
