"""Pluggable execution backends for the sharded engine.

Every backend exposes the same two-method interface -- order-preserving
:meth:`~Executor.map` plus :meth:`~Executor.close` -- so the planner can stay
agnostic about *where* shard tasks run.  There are two:

* :class:`SerialExecutor` runs tasks inline; the zero-overhead default and
  the reference the parallel backend is tested against.
* ``"shared-process"`` resolves to
  :class:`repro.parallel.SharedMemoryProcessExecutor`: a persistent,
  crash-recovering worker-process pool.  When an engine binds its
  shared-memory dataset store, workers attach to it on spawn and receive
  only shard descriptors (index ranges); without a store the pool pickles
  each task's payload (see :mod:`repro.parallel`).

All executors are context managers.

When no executor is named (``spec=None``), the ``REPRO_EXECUTOR``
environment variable picks the default -- that is how CI forces the whole
tier-1 suite through the shared-memory backend.  An explicit name always
beats the environment.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, TypeVar, Union

__all__ = [
    "Executor",
    "SerialExecutor",
    "get_executor",
]

T = TypeVar("T")
R = TypeVar("R")


def _default_workers() -> int:
    return os.cpu_count() or 1


class Executor:
    """Common interface: an order-preserving ``map`` over a task list."""

    kind = "abstract"

    def __init__(self, workers: Optional[int] = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1, got %r" % workers)
        self.workers = int(workers) if workers is not None else _default_workers()

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled resources; idempotent."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return "%s(workers=%d)" % (type(self).__name__, self.workers)


class SerialExecutor(Executor):
    """Run every task inline in the calling thread."""

    kind = "serial"

    def __init__(self, workers: Optional[int] = None):
        super().__init__(workers=1 if workers is None else workers)
        self.workers = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


def _shared_process_factory(workers: Optional[int] = None) -> Executor:
    # Imported lazily: repro.parallel builds on this module.
    from ..parallel.executor import SharedMemoryProcessExecutor

    return SharedMemoryProcessExecutor(workers=workers)


_EXECUTORS = {
    "serial": SerialExecutor,
    "shared-process": _shared_process_factory,
}


def get_executor(
    spec: Union[str, Executor, None] = None,
    workers: Optional[int] = None,
) -> Executor:
    """Resolve an executor from a name (``"serial"`` or ``"shared-process"``),
    an existing :class:`Executor` (returned as-is), or ``None`` -- the
    default, which honours the ``REPRO_EXECUTOR`` environment variable and
    otherwise stays serial."""
    if spec is None:
        spec = os.environ.get("REPRO_EXECUTOR", "").strip().lower() or "serial"
    if isinstance(spec, Executor):
        return spec
    try:
        factory = _EXECUTORS[spec]
    except KeyError:
        raise ValueError(
            "unknown executor %r; expected one of %s" % (spec, sorted(_EXECUTORS))
        ) from None
    return factory(workers=workers)
