"""Check every answer against the simplest correct path.

Static answers (``hot_reads``, ``cold_placements``) must carry the value a
direct solver call returns for the served query, and the returned placement,
re-scored by an independent depth count over the dataset, must reach that
value.  ``routing=auto`` may return a different optimal placement than the
direct call, which is why placements are re-scored rather than compared.

Monitor reads (``live_hotspots``) must equal an exact recompute -- the direct
disk solver over the whole live set -- at some update-batch boundary the read
could have observed: at least every batch acknowledged before the read was
sent, at most every batch sent before its answer arrived.  The returned
center, re-scored over that live set, must reach the value too.

A failing answer marks its record ``wrong``; it then counts as failed.

Tolerances, set once from the float64 data: a rectangle's edges get 1e-9
of slack (its corner is a point coordinate minus a side, which rounds), a
disk's squared radius a relative 1e-9 (its center is a circle intersection).
Values are counts of unit-weight points, so they compare exactly.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

import numpy as np

from loadgen import Record

EDGE_SLACK = 1e-9
RADIUS_SLACK = 1e-9


def rectangle_depth(points: np.ndarray, corner, width: float,
                    height: float) -> float:
    """Points inside the closed ``width x height`` box at ``corner``."""
    x, y = corner
    inside = ((points[:, 0] >= x - EDGE_SLACK)
              & (points[:, 0] <= x + width + EDGE_SLACK)
              & (points[:, 1] >= y - EDGE_SLACK)
              & (points[:, 1] <= y + height + EDGE_SLACK))
    return float(np.count_nonzero(inside))


def disk_depth(points: np.ndarray, center, radius: float) -> float:
    """Points inside the closed disk of ``radius`` at ``center``."""
    d2 = ((points - np.asarray(center, dtype=float)) ** 2).sum(axis=1)
    return float(np.count_nonzero(d2 <= radius * radius * (1.0 + RADIUS_SLACK)))


def _direct(query: dict, points: List[Tuple[float, float]]) -> float:
    """The direct solver's value for one served query."""
    from repro.exact import maxrs_disk_exact, maxrs_rectangle_exact

    backend = query.get("backend", "auto")
    if query["shape"] == "rectangle":
        return maxrs_rectangle_exact(points, query["width"], query["height"],
                                     backend=backend).value
    return maxrs_disk_exact(points, query["radius"], backend=backend).value


def check_static(records: Sequence[Record], dataset: List[Tuple[float, float]]) -> int:
    """Verify every answered static query; returns how many were wrong."""
    points = np.asarray(dataset, dtype=float)
    reference: Dict[tuple, float] = {}
    rescored: Dict[tuple, float] = {}
    wrong = 0
    for record in records:
        if record.kind != "query" or not record.ok:
            continue
        asked = record.request["query"]
        served = record.payload.get("served_query") or {}
        result = record.payload.get("result") or {}
        if any(served.get(k) != v for k, v in asked.items()):
            record.wrong = True
        else:
            key = tuple(sorted(served.items()))
            if key not in reference:
                reference[key] = _direct(served, dataset)
            center = result.get("center")
            placed = (key, tuple(center) if center else None)
            if placed not in rescored:
                rescored[placed] = (-1.0 if center is None else
                                    rectangle_depth(points, center, served["width"],
                                                    served["height"])
                                    if served["shape"] == "rectangle" else
                                    disk_depth(points, center, served["radius"]))
            record.wrong = not (result.get("value") == reference[key]
                                == rescored[placed])
        wrong += record.wrong
    return wrong


class LiveReplay:
    """The live set after any number of update batches, with memoised exact
    values."""

    def __init__(self, base_events: List[dict], batches: List[List[dict]],
                 radius: float):
        self.radius = radius
        self._stream = [base_events] + list(batches)
        self._exact: Dict[int, float] = {}
        self._arrays: Dict[int, np.ndarray] = {}
        self._rewind()

    def _rewind(self) -> None:
        self._live: Dict[int, Tuple[float, float]] = {}
        self._offset = 0
        self._applied = -1  # write batches applied (-1: not even the base)

    def points(self, batches: int) -> np.ndarray:
        """The live points after ``batches`` write batches."""
        if batches in self._arrays:
            return self._arrays[batches]
        if batches < self._applied:
            self._rewind()
        while self._applied < batches:
            self._applied += 1
            for event in self._stream[self._applied]:
                if event["kind"] == "insert":
                    self._live[self._offset] = tuple(event["point"])
                else:
                    del self._live[event["target"]]
                self._offset += 1
        array = np.array(list(self._live.values()), dtype=float).reshape(-1, 2)
        self._arrays[batches] = array
        return array

    def exact(self, batches: int) -> float:
        """The direct disk solver's value over the live set."""
        if batches not in self._exact:
            from repro.exact import maxrs_disk_exact

            points = [tuple(p) for p in self.points(batches)]
            self._exact[batches] = maxrs_disk_exact(points, self.radius).value
        return self._exact[batches]

    def matches(self, batches: int, result: dict) -> bool:
        """Whether ``result`` is the exact answer after ``batches`` batches."""
        points = self.points(batches)
        center = result.get("center")
        if center is None:
            return len(points) == 0 and result.get("value") == 0.0
        return (result.get("value") == self.exact(batches)
                == disk_depth(points, center, self.radius))


def check_live(reads: Sequence[Record], writes: Sequence[Record],
               replay: LiveReplay) -> int:
    """Verify every answered monitor read; returns how many were wrong.

    ``writes`` are the write lane's records in send order (one connection,
    one at a time); every one must have been answered for the replay to
    hold, so an unanswered write fails every later read.
    """
    acked = [w.done for w in writes]
    sent = [w.sent for w in writes]
    broken = next((i for i, w in enumerate(writes) if not w.ok), len(writes))
    wrong = 0
    for record in reads:
        if not record.ok:
            continue
        low = bisect.bisect_right(acked, record.sent)
        high = bisect.bisect_right(sent, record.done)
        result = record.payload.get("result") or {}
        live = (result.get("meta") or {}).get("live")
        if high > broken:
            record.wrong = True
        else:
            # Candidates whose live-set size matches the answer go first;
            # most reads settle on the first exact value computed.
            candidates = sorted(range(low, high + 1), key=lambda k: (
                len(replay.points(k)) != live, -k))
            record.wrong = not any(replay.matches(k, result) for k in candidates)
        wrong += record.wrong
    return wrong
