"""Pluggable kernel backends for the hot inner loops.

Every sweep-style solver in the library bottoms out in a small number of
*kernels*: the weighted interval/rectangle sweep accumulations, the pairwise
disk-intersection candidate generation feeding the angular disk sweep, the
batched weighted-depth evaluation of Technique 1's probe points and the
batched colored-depth evaluation of Technique 2's arrangement vertices.  This
package provides two interchangeable implementations of each kernel:

``python``
    The faithful pure-Python reference -- the loops the reproduction shipped
    with, extracted verbatim.  Always available, easiest to audit against the
    paper's pseudocode, and the correctness oracle of the differential test
    harness (``tests/test_backend_conformance.py``).

``numpy``
    Batched/vectorised implementations of the same contracts.  These restate
    each sweep so that the inner loop runs inside NumPy (event arrays, prefix
    sums, chunked upper-bound pruning) instead of the Python interpreter; see
    :mod:`repro.kernels.numpy_backend` for the algorithmic notes.

Both backends implement the same module-level functions (the *kernel
contract*):

========================== ==================================================
``interval_sweep``          1-d fixed-length interval sweep -> (value, left)
``rectangle_sweep``         2-d Imai--Asano rectangle sweep -> (value, corner)
``disk_neighbor_candidates`` per-point indices within ``2r`` (grid-bucketed)
``disk_sweep``              exact disk MaxRS angular sweep -> (value, center)
``disk_sweep_segments``     ``disk_sweep`` of each segment of a flat input
                            (``offsets`` delimit segments that never interact)
                            -> one (value, center) per segment
``probe_depths``            weighted depth of many probes (Technique 1)
``colored_depth_batch``     colored depth of many probes (Technique 2)
========================== ==================================================

Backends must agree on the *objective value* of the optimum (bit-identical
whenever the weight arithmetic is exact, e.g. integer weights; within
floating-point reassociation noise otherwise) but may report different --
equally optimal -- argmax locations.  The differential harness asserts both
properties by re-scoring every reported placement with an independent oracle.

Selecting a backend
-------------------
Solvers take ``backend="auto" | "python" | "numpy"``.  ``"auto"`` resolves
per call: the ``REPRO_BACKEND`` environment variable wins if set (this is how
CI forces the whole tier-1 suite through the NumPy kernels), otherwise NumPy
is chosen once the input size reaches :data:`AUTO_THRESHOLD` points and the
pure-Python loops below it (small inputs are interpreter-bound either way and
the reference loops avoid NumPy's per-call overhead).  A kernel may override
the threshold in :data:`KERNEL_AUTO_THRESHOLDS`, and the three exact sweeps
do, with measured crossovers: 20 points for the disk sweep, 32 for the
rectangle sweep and 32 for the interval sweep.  A query names the sweep
whose threshold applies (:attr:`repro.engine.Query.sweep_kernel`), so every
resolution of ``"auto"`` for it uses that threshold: solver calls, the
engine's shard tasks, the monitors' tiles and the service's static misses.
The disk sweep's is taken against the *total* points of a call, so a
segmented sweep over many small shards
(:func:`repro.exact.maxrs_disk_exact_segments`) counts all of them.  The
sharded engine resolves ``"auto"`` *per shard*, so fine shards stay on
Python while big shards vectorise
(:meth:`repro.engine.QueryEngine.solve_batch`).

Adding a backend
----------------
Implement the contract functions in a module and register it::

    from repro import kernels
    kernels.register_backend("mylib", my_module)
    maxrs_rectangle_exact(points, 1.0, 1.0, backend="mylib")

A partial backend is allowed: any contract function the module does not
define falls back to the ``python`` reference via :func:`get_kernel`.
"""

from __future__ import annotations

import os
from types import ModuleType
from typing import Callable, Dict, Optional, Tuple

from . import python_backend
from . import numpy_backend

__all__ = [
    "AUTO_THRESHOLD",
    "KERNEL_NAMES",
    "available_backends",
    "get_backend",
    "get_kernel",
    "register_backend",
    "resolve_backend",
    "resolve_batch_backend",
]

#: Input size at which ``backend="auto"`` switches from the pure-Python
#: loops to the vectorised NumPy kernels.  Below this the sweeps are
#: dominated by fixed per-call costs where the interpreter loops win.
AUTO_THRESHOLD = 512

#: Per-kernel overrides of :data:`AUTO_THRESHOLD`.  The batched depth
#: evaluators vectorise profitably at any size (they replace what was always
#: an inline NumPy block, and a probe batch multiplies the work per point),
#: so ``auto`` sends them to NumPy immediately.  The flat NumPy disk sweep
#: overtakes the Python loop at about 20 points of the live monitor's
#: density (its shards at radius 0.25, median over 20 shards of the best of
#: 30 runs, two rounds on a 2-vCPU x86-64 VM: 14 points 0.13 ms Python vs
#: 0.17 ms NumPy, 18 points 0.27-0.30 vs 0.25-0.32, 20 points 0.32-0.33 vs
#: 0.26-0.31); its segmented form resolves against the same threshold on
#: the total points of a call.  The rectangle and interval sweeps cross over
#: at about 32 points: solver calls on a uniform weighted cloud at the
#: ``kernels`` suite's density (2 x 2 rectangles, length-2 intervals),
#: median of 40 calls, two rounds on a 2-vCPU x86-64 VM.  On ndarrays (the
#: engine's shard slices) the rectangle sweep took 0.49-0.53 ms on Python
#: vs 0.55-0.61 ms on NumPy at 24 points and 0.65-0.69 vs 0.58-0.66 at 32;
#: on tuple lists 0.57-0.64 vs 0.68-0.75 at 32 and 0.93-0.95 vs 0.79-0.81
#: at 48.  The interval sweep on ndarrays took 0.08 ms on Python vs 0.07 on
#: NumPy at 12 points, and 0.19 vs 0.08 at 32; on tuple lists 0.13 vs
#: 0.14-0.15 at 32 and 0.19-0.23 vs 0.18-0.20 at 48.
KERNEL_AUTO_THRESHOLDS: Dict[str, int] = {
    "probe_depths": 0,
    "colored_depth_batch": 0,
    "disk_sweep": 20,
    "rectangle_sweep": 32,
    "interval_sweep": 32,
}

#: The functions a backend module may implement (the kernel contract).
KERNEL_NAMES: Tuple[str, ...] = (
    "interval_sweep",
    "rectangle_sweep",
    "disk_neighbor_candidates",
    "disk_sweep",
    "disk_sweep_segments",
    "probe_depths",
    "colored_depth_batch",
)

_REGISTRY: Dict[str, ModuleType] = {}


def register_backend(name: str, module: ModuleType) -> None:
    """Register ``module`` as the kernel backend called ``name``.

    The module should implement (a subset of) the functions in
    :data:`KERNEL_NAMES`; missing kernels fall back to the ``python``
    reference implementation.
    """
    if not name or name == "auto":
        raise ValueError("backend name %r is reserved" % (name,))
    _REGISTRY[name] = module


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends (always includes ``python``)."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> ModuleType:
    """Return the backend module registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown kernel backend %r (available: %s)"
            % (name, ", ".join(available_backends()))
        ) from None


def resolve_backend(backend: str, n: int, kernel: Optional[str] = None) -> str:
    """Resolve a requested backend to a concrete registered name.

    ``"auto"`` (or ``None``) picks ``REPRO_BACKEND`` from the environment if
    set, otherwise ``numpy`` for inputs of at least :data:`AUTO_THRESHOLD`
    points (or the kernel's :data:`KERNEL_AUTO_THRESHOLDS` override) and
    ``python`` below.  Explicit names are validated and returned unchanged
    (an explicit request always beats the environment override).
    """
    if backend is None or backend == "auto":
        forced = os.environ.get("REPRO_BACKEND", "").strip().lower()
        if forced:
            get_backend(forced)  # validate eagerly: a typo should not no-op
            return forced
        threshold = KERNEL_AUTO_THRESHOLDS.get(kernel, AUTO_THRESHOLD)
        if n >= threshold and "numpy" in _REGISTRY:
            return "numpy"
        return "python"
    get_backend(backend)
    return backend


def resolve_batch_backend(backend: str, n: int, batch_size: int = 1,
                          kernel: Optional[str] = None) -> str:
    """Resolve a backend for a *micro-batch* of ``batch_size`` sweeps over
    one ``n``-point dataset (the serving layer's per-batch resolution).

    A batch amortises NumPy's per-call setup over every sweep it contains,
    so ``"auto"`` switches to the vectorised kernels once the batch's total
    work ``n * batch_size`` crosses :data:`AUTO_THRESHOLD` (or ``kernel``'s
    :data:`KERNEL_AUTO_THRESHOLDS` entry), rather than requiring each
    individual call to cross it.  Explicit backend names are validated and
    returned unchanged, exactly like :func:`resolve_backend`.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if backend is None or backend == "auto":
        return resolve_backend(backend, n * batch_size, kernel)
    return resolve_backend(backend, n)


def get_kernel(backend: str, kernel: str, n: int = 0) -> Callable:
    """Resolve ``backend`` for an ``n``-point input and fetch one kernel.

    Falls back to the ``python`` reference when the resolved backend does not
    implement ``kernel`` (partial third-party backends).
    """
    if kernel not in KERNEL_NAMES:
        raise ValueError("unknown kernel %r (known: %s)" % (kernel, ", ".join(KERNEL_NAMES)))
    module = get_backend(resolve_backend(backend, n, kernel))
    function = getattr(module, kernel, None)
    if function is None:
        function = getattr(python_backend, kernel)
    return function


register_backend("python", python_backend)
register_backend("numpy", numpy_backend)
