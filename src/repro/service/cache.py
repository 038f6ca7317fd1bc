"""A TTL'd LRU result cache for the serving layer.

The only result cache in the stack (the engine keeps no answers; it only
deduplicates within a batch).  Besides least-recently-used eviction it
does two serving-specific things:

* entries **expire**: every entry carries a deadline ``now + ttl``, so a
  served answer is never older than the configured time-to-live even if the
  key would still match (freshness is a serving policy, not a correctness
  requirement -- static-dataset answers never go stale, but operators cap
  staleness anyway to bound the blast radius of an upstream data fix);
* keys embed **invalidation tokens**: monitor-derived answers are keyed by
  the monitor's :attr:`~repro.streaming.base.StreamMonitor.generation`, so
  applying an update batch implicitly invalidates every cached monitor
  answer without a callback (the stale entries age out of the LRU).

The clock is injected per call (``get(key, now)``) rather than read from
``time`` so tests and the deterministic trace replay control it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Tuple

__all__ = ["TTLCache", "MISSING"]


class _Missing:
    """The cache-miss sentinel (distinct from any cachable value)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<TTLCache.MISSING>"

    def __bool__(self) -> bool:
        return False


#: Returned by :meth:`TTLCache.get` on a miss or an expired entry.  ``None``
#: is a legitimate cachable answer (a monitor whose ``current()`` is ``None``),
#: so the miss signal must be a value no caller can ever cache.
MISSING = _Missing()


class TTLCache:
    """A least-recently-used map whose entries expire after ``ttl`` seconds."""

    def __init__(self, maxsize: int = 4096, ttl: float = 60.0):
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.maxsize = maxsize
        self.ttl = float(ttl)
        self._data: "OrderedDict[Hashable, Tuple[float, object]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.expirations = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable, now: float):
        """The cached value, or :data:`MISSING` on a miss or an expired entry.

        The sentinel (rather than ``None``) is the miss signal because
        ``None`` is a legitimate cached answer -- e.g. a monitor whose
        ``current()`` is ``None`` over an empty window.  Test hits with
        ``value is not MISSING``, never truthiness.
        """
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return MISSING
        deadline, value = entry
        if now >= deadline:
            del self._data[key]
            self.expirations += 1
            self.misses += 1
            return MISSING
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value, now: float) -> None:
        """Cache ``value`` under ``key`` until ``now + ttl``.

        At capacity, already-expired entries are purged first (counted as
        expirations, like :meth:`get` lazily dropping one) so a dead slot is
        never kept alive at the cost of evicting the LRU *live* answer; only
        when every resident entry is still fresh does LRU eviction kick in.
        """
        if self.maxsize == 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = (now + self.ttl, value)
        if len(self._data) > self.maxsize:
            self.purge(now)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def purge(self, now: float) -> int:
        """Drop every expired entry; returns how many were dropped."""
        stale = [key for key, (deadline, _) in self._data.items() if now >= deadline]
        for key in stale:
            del self._data[key]
        self.expirations += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._data.clear()

    @property
    def stats(self) -> dict:
        """Hit / miss / expiration counters plus the current size."""
        return {"hits": self.hits, "misses": self.misses,
                "expirations": self.expirations, "size": len(self._data)}
