"""Persisting benchmark results to JSON and JSONL.

``repro bench grid`` persists its unified benchmark artifacts and the
committed perf trajectory through this module:

* one JSON document per benchmark grid run (:func:`write_bench_json`,
  schema in :mod:`repro.bench.grid`);
* one JSON line per suite run in the committed ``PERF_HISTORY.jsonl``
  trajectory (:func:`append_history` / :func:`load_history`).

Every writer is **atomic**: content lands in a temporary file in the
destination directory which replaces the target via :func:`os.replace` only
after the writer completes, so a crash mid-write can never corrupt a
committed artifact or the perf history.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Callable, Dict, Iterable, List, TextIO

__all__ = [
    "atomic_write_text",
    "write_bench_json",
    "append_history",
    "load_history",
]


def atomic_write_text(path: str, write: Callable[[TextIO], object]) -> None:
    """Run ``write(handle)`` against a temporary file and atomically replace
    ``path`` with it.

    The temporary file lives in the destination directory (so the final
    :func:`os.replace` stays on one filesystem).  If the writer raises, the
    temporary file is removed and any existing ``path`` is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp",
                                    prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            write(handle)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def write_bench_json(payload: Dict[str, object], path: str) -> None:
    """Atomically write one unified benchmark artifact (the versioned
    ``repro-bench-grid`` schema; see :mod:`repro.bench.grid` and
    ``docs/benchmarks.md``)."""
    def _write(handle: TextIO) -> None:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")

    atomic_write_text(path, _write)


def append_history(path: str, entries: Iterable[Dict[str, object]]) -> int:
    """Append one JSON line per entry to the perf-history file.

    The append is implemented as an atomic read-modify-replace of the whole
    file (history files are small), so a crash mid-append can never truncate
    or tear the committed trajectory.  Returns the number of lines appended.
    """
    lines: List[str] = []
    if os.path.exists(path):
        with open(path) as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
    new_lines = [json.dumps(entry, sort_keys=True, default=str) for entry in entries]
    atomic_write_text(path, lambda handle: handle.write(
        "\n".join(lines + new_lines) + "\n"))
    return len(new_lines)


def load_history(path: str) -> List[Dict[str, object]]:
    """Parse a ``PERF_HISTORY.jsonl`` trajectory into a list of entries.

    Blank lines and torn (non-JSON or non-object) lines are skipped so a
    half-written line from a crashed legacy writer cannot poison later
    comparisons.
    """
    entries: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                entries.append(record)
    return entries
