"""Zero-copy shared-memory process execution.

A process pool that pickles each shard's point arrays into every task
loses its multi-core win as datasets grow.  This package keeps the
serialization off the hot path the way grid-partitioned parallel MaxRS
systems do: all partitions read one shared, immutable point table.

* :mod:`repro.parallel.store` -- :class:`SharedDatasetStore` publishes a
  dataset **once** as ``multiprocessing.shared_memory``-backed NumPy arrays
  (coords / weights / color codes + palette), publishes each sharding
  plan's per-shard indices as one more segment, and hands out picklable
  :class:`DatasetHandle` / :class:`ShardDescriptor` addressing objects that
  are a few hundred bytes regardless of dataset size.  Lifecycle is
  explicit and refcounted (``register`` / ``release``, context manager,
  ``atexit`` safety net) so no ``/dev/shm`` orphans survive.
* :mod:`repro.parallel.executor` -- :class:`SharedMemoryProcessExecutor`
  runs a persistent worker pool whose workers attach on spawn and resolve
  descriptors against the store; a crashed worker triggers one pool
  rebuild-and-retry, then the typed :class:`WorkerCrashError`.  Without a
  bound store it is a persistent pickle-based process pool, which is how
  the streaming monitors use it.

The engine wires this together: ``QueryEngine(..., executor="shared-process")``
publishes its dataset to a store it owns, switches
:meth:`~repro.engine.QueryEngine.solve_batch` to descriptor tasks, and
releases the store on ``close()``.  ``MaxRSService`` and the CLI
(``--executor shared-process`` on ``solve`` / ``serve`` / ``monitor``)
forward to the same path, and ``REPRO_EXECUTOR=shared-process`` forces it
wherever an executor is not named explicitly.  See ``docs/parallel.md`` for
the model, lifecycle rules and executor-selection guidance, and the
``parallel`` bench suite (``repro bench grid --suite parallel`` ->
``BENCH_parallel.json``) for the equality-gated speedup over serial.
"""

from .executor import SharedMemoryProcessExecutor, WorkerCrashError
from .store import (
    DatasetHandle,
    IndexBlockHandle,
    ShardDescriptor,
    SharedDatasetStore,
    attached_segment_count,
    detach_all,
)

__all__ = [
    "SharedDatasetStore",
    "SharedMemoryProcessExecutor",
    "WorkerCrashError",
    "DatasetHandle",
    "IndexBlockHandle",
    "ShardDescriptor",
    "attached_segment_count",
    "detach_all",
]
