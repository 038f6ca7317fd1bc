"""Zero-copy shared-memory dataset publication for process execution.

A process pool that pickles its tasks pays for every task twice: the
parent serialises each shard's full point payload, and the worker
deserialises it before a single solver instruction runs.  The grid-partitioned parallel MaxRS
designs in the literature avoid exactly this by letting every partition read
one shared, immutable point table.  :class:`SharedDatasetStore` reproduces
that here with OS shared memory:

* the dataset is published **once** as ``multiprocessing.shared_memory``
  segments holding NumPy arrays -- ``float64`` coordinates ``(n, dim)``,
  ``float64`` weights ``(n,)`` and, for colored data, ``int64`` color codes
  ``(n,)`` plus a tiny picklable palette mapping codes back to the original
  hashable colors;
* shard index blocks (:meth:`SharedDatasetStore.publish_index_block`) put the
  per-shard point *indices* of a whole sharding plan into one more segment,
  so an executor task is a :class:`ShardDescriptor` -- segment names plus an
  ``[start, stop)`` range -- instead of a pickled point list;
* workers attach the dataset on first use (:func:`ShardDescriptor.resolve`)
  and keep it attached; index blocks are read and detached at once, so the
  owner can unlink a block its plan memo evicted
  (:meth:`SharedDatasetStore.release_index_block`) without any worker pinning
  it.  Shards materialise bit-identically to the parent's data (``float64``
  round-trips are exact, palettes restore the original color objects).

Lifecycle is explicit and refcounted: the creating process owns the segments
(``refcount == 1`` at construction), co-owners call :meth:`register` /
:meth:`release`, the last release unlinks every segment, the store is a
context manager, and an ``atexit`` safety net unlinks anything a crashed or
careless owner left behind.  Attachment is tracker-neutral (see
:func:`_attach_segment`): an attaching worker is never the reason a segment
is unlinked early or reported as leaked.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.sharding import ShardArrays, encode_colors

__all__ = [
    "DatasetHandle",
    "IndexBlockHandle",
    "ShardDescriptor",
    "SharedDatasetStore",
    "attached_segment_count",
    "detach_all",
]

Coords = Tuple[float, ...]


# --------------------------------------------------------------------------- #
# picklable handles (what travels to workers instead of point payloads)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class DatasetHandle:
    """Picklable description of a published dataset: segment names, shapes
    and the color palette -- everything a worker needs to attach.

    A handle is a few hundred bytes no matter how large the dataset is; it is
    the only dataset-related payload a shared-memory task carries.
    """

    token: str                                #: stable id (the coords segment name)
    n: int                                    #: number of points
    dim: int                                  #: coordinate dimension
    coords_name: str                          #: float64 ``(n, dim)`` segment
    weights_name: Optional[str]               #: float64 ``(n,)`` segment, if weighted
    colors_name: Optional[str]                #: int64 ``(n,)`` code segment, if colored
    palette: Optional[Tuple[Hashable, ...]]   #: code -> original color


@dataclass(frozen=True)
class IndexBlockHandle:
    """Picklable description of one published sharding plan's index block:
    the concatenated per-shard point indices live in segment ``name`` and
    shard ``i`` owns ``indices[offsets[i]:offsets[i + 1]]``.

    ``serial`` identifies the block for caching.  Segment names are random
    and come back into use once a block is unlinked, so a name alone could
    serve a worker an evicted plan's cached shard; serials never repeat
    within the publishing process.
    """

    name: str
    offsets: Tuple[int, ...]
    serial: int

    @property
    def total(self) -> int:
        """Total number of indices in the block (the segment's length)."""
        return self.offsets[-1]

    @property
    def shard_count(self) -> int:
        """How many shards the block describes."""
        return len(self.offsets) - 1

    def descriptor(self, dataset: DatasetHandle, ordinal: int) -> "ShardDescriptor":
        """The :class:`ShardDescriptor` of shard ``ordinal`` of this block."""
        return ShardDescriptor(
            dataset=dataset,
            indices_name=self.name,
            indices_serial=self.serial,
            indices_total=self.total,
            start=self.offsets[ordinal],
            stop=self.offsets[ordinal + 1],
        )


@dataclass(frozen=True)
class ShardDescriptor:
    """One executor task's worth of addressing: *which* slice of *which*
    published dataset a worker should solve, with zero point payload.

    ``resolve()`` turns the descriptor back into the shard's coords /
    weights / colors, exactly as the in-process executors' array payload
    of the same shard resolves, using the calling process's attachment
    cache.
    """

    dataset: DatasetHandle
    indices_name: str
    indices_serial: int
    indices_total: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start

    def resolve(self, arrays: bool = False) -> Tuple[Sequence[Coords],
                                                     Optional[Sequence[float]],
                                                     Optional[List[Hashable]]]:
        """Materialise ``(coords, weights, colors)`` for this shard from the
        shared segments (cached per process; see :data:`_MATERIALIZED_BUDGET`).

        The slice resolves through :meth:`repro.engine.sharding.ShardArrays.resolve`,
        the same call the in-process executors' array payloads make, so
        every executor materialises a shard identically: tuple and float
        lists with ``arrays=False`` (bit-identical to the parent's data,
        ``float64 -> float`` is exact), or the fancy-indexed float64 slices
        with ``arrays=True`` -- the solvers' ``prefer_arrays`` fast path.
        """
        key = (self.dataset.token, self.indices_serial, self.start, self.stop,
               arrays)
        cached = _MATERIALIZED.get(key)
        if cached is not None:
            _MATERIALIZED.move_to_end(key)
            return cached
        handle = self.dataset
        coords_arr, weights_arr, codes_arr = _attach_dataset(handle)
        idx = _read_index_slice(self.indices_name, self.indices_total,
                                self.start, self.stop)
        resolved = ShardArrays(
            coords=coords_arr[idx],
            weights=None if weights_arr is None else weights_arr[idx],
            codes=None if codes_arr is None else codes_arr[idx],
            palette=handle.palette,
        ).resolve(arrays)
        _materialized_put(key, resolved, len(idx))
        return resolved


# --------------------------------------------------------------------------- #
# per-process attachment caches (worker side; also used by inline resolves)
# --------------------------------------------------------------------------- #

#: Open ``SharedMemory`` attachments of this process, keyed by segment name.
_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}

#: LRU of materialised ``(coords, weights, colors)`` shard lists, so a
#: persistent worker re-solving the same shard (the streaming monitors'
#: dirty re-solves, serving flushes after invalidation) skips
#: re-materialisation.  Bounded by total cached *points* -- the quantity RSS
#: actually scales with -- rather than entry count, so many small shards and
#: few huge ones meet the same memory ceiling.
_MATERIALIZED: "OrderedDict" = OrderedDict()
_MATERIALIZED_POINTS = 0

#: Point budget of the materialisation cache.  2M points is roughly 200 MB
#: of tuple-list overhead in the worst case -- bounded, and far below what
#: an unbounded cache would accumulate across sharding plans.
_MATERIALIZED_BUDGET = 2_000_000


def _materialized_put(key, resolved, population: int) -> None:
    global _MATERIALIZED_POINTS
    if population > _MATERIALIZED_BUDGET:
        return
    previous = _MATERIALIZED.pop(key, None)
    if previous is not None:
        _MATERIALIZED_POINTS -= len(previous[0])
    _MATERIALIZED[key] = resolved
    _MATERIALIZED_POINTS += population
    while _MATERIALIZED_POINTS > _MATERIALIZED_BUDGET and _MATERIALIZED:
        _, evicted = _MATERIALIZED.popitem(last=False)
        _MATERIALIZED_POINTS -= len(evicted[0])


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adding a tracker liability.

    On Python 3.13+ ``track=False`` skips ``resource_tracker`` registration
    entirely -- attachers must not be the reason a segment gets unlinked
    (gh-82300).  Before 3.13 attaching registers unconditionally, but all our
    attachers are ``multiprocessing`` children sharing the owner's tracker,
    whose name cache is a set: the attach-registration dedupes against the
    create-registration and the owner's ``unlink()`` clears it exactly once.
    Either way the tracker stays silent on clean shutdowns and still acts as
    the cleanup-of-last-resort for segments whose owner crashed.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        return shared_memory.SharedMemory(name=name)


def _read_index_slice(name: str, total: int, start: int, stop: int) -> np.ndarray:
    """Copy ``[start, stop)`` out of index block ``name``, then detach.

    Index blocks are not kept attached: the engine unlinks a block when its
    plan leaves the memo, and no process should keep an evicted block's
    mapping alive.  Repeat solves of a shard hit the materialisation cache
    and never attach at all.
    """
    segment = _attach_segment(name)
    try:
        block = np.ndarray((total,), dtype=np.int64, buffer=segment.buf)
        idx = block[start:stop].copy()
        del block  # release the exported buffer so close() succeeds
    finally:
        segment.close()
    return idx


def _attached_array(name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """A NumPy view over segment ``name`` (attached and cached on first use)."""
    segment = _SEGMENTS.get(name)
    if segment is None:
        segment = _attach_segment(name)
        _SEGMENTS[name] = segment
    return np.ndarray(shape, dtype=dtype, buffer=segment.buf)


def _attach_dataset(handle: DatasetHandle):
    """Attach (or reuse) the three dataset arrays a handle names."""
    coords = _attached_array(handle.coords_name, (handle.n, handle.dim), np.float64)
    weights = (None if handle.weights_name is None
               else _attached_array(handle.weights_name, (handle.n,), np.float64))
    codes = (None if handle.colors_name is None
             else _attached_array(handle.colors_name, (handle.n,), np.int64))
    return coords, weights, codes


def attach_dataset(handle: DatasetHandle) -> None:
    """Pre-attach a published dataset in this process (the worker-pool
    initializer calls this so the first task pays no attach latency)."""
    _attach_dataset(handle)


def attached_segment_count() -> int:
    """How many shared-memory segments this process currently has attached
    (a test/diagnostic hook for the leak regression suite)."""
    return len(_SEGMENTS)


def detach_all() -> None:
    """Close every cached attachment of this process (idempotent).

    Workers register this via ``atexit`` is unnecessary -- mappings die with
    the process -- but long-lived parents resolving inline can call it (or
    rely on :meth:`SharedDatasetStore.release`, which evicts its own names).
    """
    global _MATERIALIZED_POINTS
    for name in list(_SEGMENTS):
        _evict_attachment(name)
    _MATERIALIZED.clear()
    _MATERIALIZED_POINTS = 0


def _evict_attachment(name: str) -> None:
    segment = _SEGMENTS.pop(name, None)
    if segment is not None:
        try:
            segment.close()
        except Exception:  # pragma: no cover - platform close quirks
            pass


def _evict_materialized(ident, field: int = 0) -> None:
    """Drop cached shards of one dataset (``field=0``: its token) or of one
    index block (``field=1``: the block's serial)."""
    global _MATERIALIZED_POINTS
    for key in [k for k in _MATERIALIZED if k[field] == ident]:
        _MATERIALIZED_POINTS -= len(_MATERIALIZED.pop(key)[0])


def _close_and_unlink(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except Exception:  # pragma: no cover - platform close quirks
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already removed
        pass


# --------------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------------- #

#: Source of :attr:`IndexBlockHandle.serial`.  Shared by every store of this
#: process rather than kept per store, so a serial cannot repeat even under a
#: dataset token (a segment name) the OS handed out again.
_BLOCK_SERIALS = itertools.count()

#: Stores created (and not yet destroyed) by this process; the atexit hook
#: unlinks whatever their owners forgot.  Weak so normal release + gc wins.
_LIVE_STORES: "weakref.WeakSet" = weakref.WeakSet()


def _cleanup_live_stores() -> None:  # pragma: no cover - exercised via subprocess
    for store in list(_LIVE_STORES):
        store._destroy()


atexit.register(_cleanup_live_stores)


class SharedDatasetStore:
    """Publish one dataset as shared-memory arrays for zero-copy process
    execution.

    Parameters
    ----------
    coords:
        Non-empty sequence of coordinate tuples (the engine's normalised
        parallel-list layout).
    weights:
        Optional parallel weights (``float``).
    colors:
        Optional parallel colors (any hashables); stored as ``int64`` codes
        plus a palette carried on the (picklable) handle.

    The creating process owns the segments with ``refcount == 1``; additional
    owners call :meth:`register` and every owner eventually calls
    :meth:`release` (or uses the store as a context manager).  The last
    release closes **and unlinks** every segment -- the dataset arrays plus
    any index blocks published via :meth:`publish_index_block` -- and evicts
    this process's attachment/materialisation caches for them.  An ``atexit``
    hook destroys stores whose owners never released them, so no ``/dev/shm``
    orphans survive a clean interpreter exit.
    """

    def __init__(
        self,
        coords: Sequence[Coords],
        *,
        weights: Optional[Sequence[float]] = None,
        colors: Optional[Sequence[Hashable]] = None,
    ):
        coords_arr = np.asarray(coords, dtype=np.float64)
        if coords_arr.ndim != 2 or coords_arr.shape[0] == 0:
            raise ValueError(
                "SharedDatasetStore needs a non-empty 2-d coordinate table, "
                "got shape %r" % (coords_arr.shape,)
            )
        self._owner_pid = os.getpid()
        self._lock = threading.Lock()
        self._refcount = 1
        self._closed = False
        self._segments: List[shared_memory.SharedMemory] = []
        #: Published index blocks by serial (see :meth:`publish_index_block`).
        self._index_blocks: Dict[int, shared_memory.SharedMemory] = {}

        n, dim = coords_arr.shape
        coords_seg, coords_view = self._create(coords_arr)
        weights_seg = weights_view = None
        if weights is not None:
            weights_arr = np.asarray(weights, dtype=np.float64)
            if weights_arr.shape != (n,):
                raise ValueError(
                    "got %d weights for %d points" % (weights_arr.size, n))
            weights_seg, weights_view = self._create(weights_arr)
        colors_seg = None
        palette: Optional[Tuple[Hashable, ...]] = None
        if colors is not None:
            codes, palette = encode_colors(colors)
            if codes.shape != (n,):
                raise ValueError(
                    "got %d colors for %d points" % (codes.size, n))
            colors_seg, _ = self._create(codes)

        self._handle = DatasetHandle(
            token=coords_seg.name,
            n=n,
            dim=dim,
            coords_name=coords_seg.name,
            weights_name=None if weights_seg is None else weights_seg.name,
            colors_name=None if colors_seg is None else colors_seg.name,
            palette=palette,
        )
        # Parent-side views (the owner can read its own store zero-copy too).
        self.coords: np.ndarray = coords_view
        self.weights: Optional[np.ndarray] = weights_view
        _LIVE_STORES.add(self)

    # ------------------------------------------------------------------ #
    # publication
    # ------------------------------------------------------------------ #

    def _create(self, array: np.ndarray):
        segment = shared_memory.SharedMemory(create=True,
                                             size=max(1, array.nbytes))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        self._segments.append(segment)
        return segment, view

    def handle(self) -> DatasetHandle:
        """The picklable :class:`DatasetHandle` workers attach with."""
        self._require_open()
        return self._handle

    def publish_index_block(self, offsets: Sequence[int],
                            indices: Sequence[int]) -> IndexBlockHandle:
        """Publish one sharding plan's CSR index block -- the ``offsets`` and
        flat ``indices`` a :class:`repro.engine.ShardPlan` holds, shard ``i``
        owning ``indices[offsets[i]:offsets[i + 1]]`` -- as a single extra
        segment and return its :class:`IndexBlockHandle`.

        The block is owned by the store and unlinked with it (or earlier, by
        :meth:`release_index_block`); publishing the same plan twice is the
        caller's (memoised) concern.
        """
        self._require_open()
        flat = np.asarray(indices, dtype=np.int64)
        segment = shared_memory.SharedMemory(create=True,
                                             size=max(1, flat.nbytes))
        np.ndarray(flat.shape, dtype=flat.dtype, buffer=segment.buf)[...] = flat
        with self._lock:
            serial = next(_BLOCK_SERIALS)
            self._index_blocks[serial] = segment
        return IndexBlockHandle(name=segment.name,
                                offsets=tuple(int(o) for o in offsets),
                                serial=serial)

    def release_index_block(self, block: IndexBlockHandle) -> None:
        """Unlink one published index block before the store itself goes
        (idempotent).  Descriptors into the block must not be resolved
        afterwards; cached shards materialised from it are dropped here."""
        with self._lock:
            segment = self._index_blocks.pop(block.serial, None)
        if segment is None:
            return
        _evict_materialized(block.serial, field=1)
        _close_and_unlink(segment)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def token(self) -> str:
        """Stable identifier of this publication (the coords segment name)."""
        return self._handle.token

    @property
    def closed(self) -> bool:
        """Whether the final release already destroyed the segments."""
        return self._closed

    @property
    def refcount(self) -> int:
        """Current number of registered owners."""
        return self._refcount

    def __len__(self) -> int:
        return self._handle.n

    def segment_names(self) -> Tuple[str, ...]:
        """Names of every segment this store currently owns (dataset arrays
        plus published index blocks) -- the leak tests' ground truth."""
        with self._lock:
            return tuple(s.name for s in
                         self._segments + list(self._index_blocks.values()))

    def _require_open(self) -> None:
        if self._closed:
            raise ValueError("SharedDatasetStore is closed (segments unlinked)")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def register(self) -> "SharedDatasetStore":
        """Add an owner: the store now needs one more :meth:`release` before
        its segments are unlinked.  Returns ``self`` for chaining."""
        with self._lock:
            self._require_open()
            self._refcount += 1
        return self

    def release(self) -> None:
        """Drop one owner; the last release destroys every segment.

        Releasing an already-closed store is a no-op, so shutdown paths may
        be sloppy about ordering.
        """
        destroy = False
        with self._lock:
            if self._closed:
                return
            self._refcount -= 1
            destroy = self._refcount <= 0
        if destroy:
            self._destroy()

    def close(self) -> None:
        """Alias for :meth:`release` (the context-manager exit path)."""
        self.release()

    def __enter__(self) -> "SharedDatasetStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self):
        # Cleanup of last resort: a store dropped without release() must
        # not orphan its /dev/shm segments for the rest of the process's
        # life (the atexit hook only sees stores that are still alive).
        try:
            self._destroy()
        except Exception:  # pragma: no cover - interpreter shutdown races
            pass

    def _destroy(self) -> None:
        """Close and unlink every owned segment (idempotent).

        Only the creating process may destroy: a forked worker inherits a
        copy of this object, and its copy being garbage-collected or
        released must never unlink the owner's live segments.
        """
        if os.getpid() != self._owner_pid:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments = self._segments + list(self._index_blocks.values())
            self._segments = []
            self._index_blocks = {}
        # Drop our NumPy views first: a segment with exported buffers raises
        # BufferError on close, and unlink alone would leave the mapping.
        self.coords = None
        self.weights = None
        _evict_materialized(self._handle.token)
        for segment in segments:
            _evict_attachment(segment.name)
            _close_and_unlink(segment)
        _LIVE_STORES.discard(self)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "refcount=%d" % self._refcount
        return "SharedDatasetStore(n=%d, dim=%d, %s)" % (
            self._handle.n, self._handle.dim, state)
