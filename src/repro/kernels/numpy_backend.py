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
    The incumbent is warm-started from the historic maxima of the highest
    insertion-mass columns, which keeps the suspect sets tiny from the first
    chunk on.  Observed ~10x over the segment-tree sweep at ``n = 100k``.

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

#: Maximum events per chunk of the rectangle sweep.  The effective chunk
#: scales with the event count (see :func:`_rectangle_chunk`): a chunk must
#: span a small fraction of the sweep or the insertions-only upper bound goes
#: loose and every column becomes a suspect.
_RECT_CHUNK = 1024

#: Columns simulated per batch in the suspect refinement (bounds memory:
#: the coverage matrix is ``_RECT_CHUNK x _RECT_BATCH``).
_RECT_BATCH = 2048

#: Number of warm-start columns whose exact historic maximum seeds the
#: incumbent before the chunked sweep begins.
_RECT_WARM = 32


def _rectangle_chunk(n_events: int) -> int:
    """Chunk size keeping the per-chunk insertion mass a small, constant
    fraction (~1/128) of the sweep, capped so suspect matrices stay small."""
    return max(64, min(_RECT_CHUNK, n_events // 128))


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
    # at equal a, exactly like the reference sweep.
    idx = np.arange(n)
    ev_x = np.concatenate([xs - width, xs])
    ev_kind = np.concatenate([np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)])
    ev_pt = np.concatenate([idx, idx])
    order = np.lexsort((ev_pt, ev_kind, ev_x))
    ex = ev_x[order]
    is_ins = ev_kind[order] == 0
    ev_pt = ev_pt[order]
    elo = lo[ev_pt]
    ehi = hi[ev_pt]
    esw = np.where(is_ins, 1.0, -1.0) * w[ev_pt]
    n_events = 2 * n

    best = -np.inf
    best_col = -1

    def consider_column(j: int) -> None:
        """Exact historic maximum of column ``j`` over the full event list."""
        nonlocal best, best_col
        cover = (elo <= j) & (ehi >= j)
        prefix = np.cumsum(esw[cover])
        ins_prefix = prefix[is_ins[cover]]
        if ins_prefix.size:
            value = float(ins_prefix.max())
            if value > best:
                best = value
                best_col = j

    # Warm start: the columns with the largest total insertion mass are the
    # likeliest optima; seeding the incumbent with their exact maxima keeps
    # the first chunks' suspect sets small.
    diff = np.zeros(m + 1)
    np.add.at(diff, lo, w)
    np.add.at(diff, hi + 1, -w)
    insertion_mass = np.cumsum(diff[:m])
    k = min(_RECT_WARM, m)
    for j in np.argpartition(insertion_mass, m - k)[m - k:]:
        consider_column(int(j))
    consider_column(int(lo[0]))  # guarantees a valid placement even with all-zero weights

    chunk = _rectangle_chunk(n_events)
    value_now = np.zeros(m)  # exact column values at the current chunk boundary
    for c0 in range(0, n_events, chunk):
        c1 = min(n_events, c0 + chunk)
        l = elo[c0:c1]
        h = ehi[c0:c1]
        sw = esw[c0:c1]
        ins = is_ins[c0:c1]

        if ins.any():
            # Upper bound per column: current value + all chunk insertions.
            diff = np.zeros(m + 1)
            np.add.at(diff, l[ins], sw[ins])
            np.add.at(diff, h[ins] + 1, -sw[ins])
            bound = value_now + np.cumsum(diff[:m])
            # The margin absorbs reassociation noise between the bound (chunked
            # sums) and the incumbent (sequential sums): suspects may only be
            # over-included, never missed.
            margin = 1e-9 * (1.0 + abs(best))
            suspects = np.flatnonzero(bound > best - margin)
            for s0 in range(0, suspects.size, _RECT_BATCH):
                batch = suspects[s0:s0 + _RECT_BATCH]
                cover = (l[:, None] <= batch[None, :]) & (h[:, None] >= batch[None, :])
                prefix = np.cumsum(np.where(cover, sw[:, None], 0.0), axis=0)
                prefix += value_now[batch][None, :]
                ins_prefix = prefix[ins]
                flat = int(np.argmax(ins_prefix))
                value = float(ins_prefix.reshape(-1)[flat])
                if value > best:
                    best = value
                    best_col = int(batch[flat % batch.size])

        # Advance the chunk boundary exactly (insertions and removals).
        diff = np.zeros(m + 1)
        np.add.at(diff, l, sw)
        np.add.at(diff, h + 1, -sw)
        value_now += np.cumsum(diff[:m])

    # Recover the winning insertion coordinate and report the column's value
    # as one sequential in-order sum (deterministic across chunk sizes).
    cover = (elo <= best_col) & (ehi >= best_col)
    prefix = np.cumsum(esw[cover])
    ins_sel = is_ins[cover]
    ins_prefix = prefix[ins_sel]
    p = int(np.argmax(ins_prefix))
    best_value = float(ins_prefix[p])
    a = float(ex[cover][ins_sel][p])
    if best_value < 0.0:
        # All-negative is impossible (weights >= 0); guard for -0.0 artifacts.
        best_value = 0.0
    return best_value, (a, float(b_cands[best_col]))


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
    if not (np.array_equal(w, np.floor(w)) and np.abs(w).sum() < 2.0 ** 53):
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
    order = (rows * w.size + points).argsort()
    sizes = np.bincount(rows, minlength=pivots.size)
    return np.add.reduceat(w[points[order]], sizes.cumsum() - sizes)


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
