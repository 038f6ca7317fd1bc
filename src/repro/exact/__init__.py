"""Exact MaxRS baselines.

These are the algorithms the paper compares against (or builds on):

* :mod:`repro.exact.interval1d` -- exact MaxRS for a fixed-length interval on
  the real line; the oracle used by the batched MaxRS lower-bound reduction
  (Section 5).
* :mod:`repro.exact.rectangle2d` -- the classical Imai--Asano /
  Nandy--Bhattacharya ``O(n log n)`` sweep for axis-aligned rectangles
  [IA83, NB95].
* :mod:`repro.exact.disk2d` -- exact disk MaxRS by angular sweep, the
  Chazelle--Lee style ``O(n^2 log n)`` baseline [CL86].
* :mod:`repro.exact.colored_disk` -- the "straightforward ``O(n^2 log n)``"
  exact algorithm for colored disk MaxRS mentioned in Section 1.5, used as the
  correctness oracle for Technique 2.
* :mod:`repro.exact.box3d` -- exact box MaxRS in R^3 via a z-slab sweep (the
  simpler stand-in for the [Cha10] baseline) plus a d-dimensional brute
  force.
* :mod:`repro.exact.bruteforce` -- tiny brute-force evaluators used only in
  tests and sanity checks.
"""

from .interval1d import maxrs_interval_bruteforce, maxrs_interval_exact
from .rectangle2d import maxrs_rectangle_exact
from .disk2d import maxrs_disk_exact, maxrs_disk_exact_segments
from .colored_disk import colored_maxrs_disk_sweep
from .colored_rectangle import colored_maxrs_interval_exact, colored_maxrs_rectangle_exact
from .box3d import maxrs_box3d_exact, maxrs_box_bruteforce
from .bruteforce import colored_maxrs_disk_bruteforce, maxrs_disk_bruteforce

__all__ = [
    "maxrs_interval_exact",
    "maxrs_interval_bruteforce",
    "maxrs_rectangle_exact",
    "maxrs_disk_exact",
    "maxrs_disk_exact_segments",
    "maxrs_box3d_exact",
    "maxrs_box_bruteforce",
    "colored_maxrs_disk_sweep",
    "colored_maxrs_rectangle_exact",
    "colored_maxrs_interval_exact",
    "maxrs_disk_bruteforce",
    "colored_maxrs_disk_bruteforce",
]
