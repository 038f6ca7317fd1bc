"""The shared-memory process executor: persistent workers, descriptor tasks,
crash recovery.

:class:`SharedMemoryProcessExecutor` is the one parallel backend behind the
``map`` / ``close`` interface of :mod:`repro.engine.executors`, so every
engine, monitor and service that takes ``executor=`` can run on it:

* **zero-copy tasks** -- when a :class:`~repro.parallel.store.SharedDatasetStore`
  is bound (:meth:`bind_store`; the engine does this automatically for
  ``executor="shared-process"``), workers pre-attach the dataset segments in
  their pool initializer and tasks carry only
  :class:`~repro.parallel.store.ShardDescriptor` index ranges -- the
  per-task pickle is a few hundred bytes regardless of dataset size;
* **persistent workers** -- the pool is created lazily and reused across
  batches, so attachments and the workers' materialisation caches survive
  from one query batch to the next; batches of zero or one task run inline
  and never start a pool;
* **crash recovery** -- a worker dying mid-batch (OOM-killed, segfaulted,
  ``SIGKILL``-ed by an operator) breaks a ``concurrent.futures`` process
  pool permanently.  ``map`` detects the broken pool, rebuilds it once and
  retries the whole batch; a second failure raises the typed
  :class:`WorkerCrashError` instead of deadlocking or returning partial
  results.  Ordinary task exceptions (poison inputs) propagate unchanged --
  they are the caller's bug, not a pool failure.

Without a bound store the executor is a persistent pickle-based process
pool (that is how the streaming monitors use it), so
``executor="shared-process"`` is accepted everywhere an executor name is.
"""

from __future__ import annotations

from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar

from ..engine.executors import Executor
from ..obs import tracing as obs
from .store import DatasetHandle, SharedDatasetStore, attach_dataset

__all__ = ["SharedMemoryProcessExecutor", "WorkerCrashError"]

T = TypeVar("T")
R = TypeVar("R")


class WorkerCrashError(RuntimeError):
    """A shared-memory worker pool died twice on the same batch.

    Raised by :meth:`SharedMemoryProcessExecutor.map` after its one
    rebuild-and-retry attempt also lost a worker; the batch's results are
    not available, but the executor stays usable (the next ``map`` starts a
    fresh pool).
    """


def _worker_init(handle: Optional[DatasetHandle]) -> None:
    """Pool initializer: pre-attach the published dataset (if any) so the
    first descriptor task pays no attach latency."""
    if handle is not None:
        attach_dataset(handle)


class SharedMemoryProcessExecutor(Executor):
    """Run tasks on a persistent process pool whose workers attach to a
    shared-memory dataset store on spawn.

    The pool starts lazily on the first batch of two or more tasks and is
    reused until :meth:`close`; a batch of one task runs inline (descriptor
    resolution works in the parent process too).  Pooled batches go out in
    chunks of ``len(items) // (4 * workers)`` tasks (at least 1), and a
    batch that loses a worker is retried once on a rebuilt pool.

    Parameters
    ----------
    workers:
        Worker process count (defaults to the CPU count).
    store:
        Optional :class:`~repro.parallel.store.SharedDatasetStore` to bind
        immediately (otherwise :meth:`bind_store` can bind one before the
        pool first starts).  Binding is an optimisation -- descriptor tasks
        carry their own handles and attach lazily -- but pre-attaching in
        the initializer moves that cost off the first batch's critical path.
        The executor does **not** own the store; whoever created it releases
        it.
    """

    kind = "shared-process"

    def __init__(self, workers: Optional[int] = None,
                 store: Optional[SharedDatasetStore] = None):
        super().__init__(workers)
        self._pool: Optional[futures.ProcessPoolExecutor] = None
        self._store = store
        self.restarts = 0  #: pools rebuilt after a worker crash

    @property
    def store(self) -> Optional[SharedDatasetStore]:
        """The bound dataset store (``None`` when running store-less)."""
        return self._store

    def bind_store(self, store: SharedDatasetStore) -> None:
        """Bind the store whose handle future pools pre-attach.

        A pool that is already running keeps serving -- its workers attach
        lazily per task -- and picks the new handle up on its next restart.
        """
        self._store = store

    def _ensure_pool(self) -> futures.ProcessPoolExecutor:
        if self._pool is None:
            handle = None
            if self._store is not None and not self._store.closed:
                handle = self._store.handle()
            self._pool = futures.ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(handle,),
            )
        return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if len(items) <= 1:
            # Not worth a pool round-trip and a pickle.
            return [fn(item) for item in items]
        chunksize = max(1, len(items) // (4 * self.workers))
        last_crash: Optional[BaseException] = None
        for attempt in range(2):
            try:
                with obs.span("pool.map", kind=self.kind, tasks=len(items),
                              workers=self.workers, attempt=attempt):
                    pool = self._ensure_pool()
                    return list(pool.map(fn, items, chunksize=chunksize))
            except BrokenProcessPool as crash:
                # A worker died (kill -9, OOM, segfault): the pool is
                # permanently broken.  Drop it and retry the batch once on a
                # fresh pool; tasks are pure functions of their payloads, so
                # re-running the whole batch is safe.
                last_crash = crash
                self.restarts += 1
                broken, self._pool = self._pool, None
                if broken is not None:
                    broken.shutdown(wait=False)
        raise WorkerCrashError(
            "worker pool crashed twice on one %d-task batch (workers=%d); "
            "a task is killing its worker deterministically"
            % (len(items), self.workers)
        ) from last_crash

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
