"""Reduction of per-shard solver results back into one :class:`MaxRSResult`.

Because shard point sets are subsets of the input and all supported
objectives are monotone in the point set (non-negative weights, distinct
colors), every per-shard value is a lower bound on the global optimum; and by
the halo invariant of :mod:`repro.engine.sharding` the shard holding the
global optimum's anchor sees *all* of its covered points, so its local
optimum equals the global one.  Taking the maximum therefore:

* reproduces the global optimum exactly when the per-shard solver is exact;
* preserves a ``(c)``-approximation guarantee when the per-shard solver has
  one -- the anchor shard's local optimum equals ``opt``, so its
  approximate answer is at least ``c * opt``, and every reported value is a
  genuinely achievable coverage, hence at most ``opt``.

Ties are broken by shard order (the planner submits shards sorted by tile
key), which keeps the merged result deterministic under every executor.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

from ..core.result import MaxRSResult

__all__ = ["merge_shard_results", "merge_batched_results"]


def merge_shard_results(
    results: Sequence[MaxRSResult],
    *,
    empty: Optional[MaxRSResult] = None,
) -> MaxRSResult:
    """Fold shard results into the engine's answer (max by value, first wins).

    ``empty`` is returned when there are no shard results (empty dataset);
    it should be the underlying solver's canonical empty-input result so the
    engine is indistinguishable from the direct call on empty inputs.
    """
    # max() keeps the first of equal maxima
    best: Optional[MaxRSResult] = max(results, key=attrgetter("value"), default=None)
    if best is None:
        if empty is None:
            raise ValueError("cannot merge zero shard results without an `empty` fallback")
        best = empty
        shard_count = 0
    else:
        shard_count = len(results)

    meta = dict(best.meta)
    meta.update({"sharded": True, "shards": shard_count})
    # One approximate shard taints the merge: a losing shard might hide a
    # larger true optimum.  (In practice all shards share one solver.)
    exact = all(r.exact for r in results) if results else best.exact
    return MaxRSResult(
        value=best.value,
        center=best.center,
        shape=best.shape,
        exact=exact,
        meta=meta,
    )


def merge_batched_results(
    results: Sequence[MaxRSResult],
    *,
    empty: Optional[MaxRSResult] = None,
) -> MaxRSResult:
    """Fold per-shard *batched* results component-wise.

    Every shard answers the same tuple of member lengths/sizes (in
    ``meta["batch"]``), and each member is itself a monotone MaxRS objective
    under the shared max-extent halo, so the shard-max argument of
    :func:`merge_shard_results` applies independently per component: take
    the best ``(value, center, exact)`` per member (first shard wins ties),
    then recompute the headline best-member value/center.
    """
    if not results:
        if empty is None:
            raise ValueError("cannot merge zero shard results without an `empty` fallback")
        meta = dict(empty.meta)
        meta.update({"sharded": True, "shards": 0})
        return MaxRSResult(value=empty.value, center=empty.center,
                           shape=empty.shape, exact=empty.exact, meta=meta)

    batches = [result.meta.get("batch", ()) for result in results]
    members = len(batches[0])
    if any(len(batch) != members for batch in batches):
        raise ValueError("batched shard results answer different member counts")
    merged: List[Tuple] = []
    for index in range(members):
        best = None
        for batch in batches:
            component = batch[index]
            if best is None or component[0] > best[0]:
                best = component
        merged.append(best)
    head = max(range(members), key=lambda i: merged[i][0])
    meta = dict(results[0].meta)
    meta.update({"batch": tuple(merged), "sharded": True, "shards": len(results)})
    return MaxRSResult(
        value=merged[head][0],
        center=merged[head][1],
        shape=results[0].shape,
        exact=all(result.exact for result in results),
        meta=meta,
    )
