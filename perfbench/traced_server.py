"""Run ``repro serve`` with timing wrappers around each layer's public entry
points, and write the recorded spans out when the server stops.

Usage (the benchmark launches it; nothing under ``src/`` changes)::

    PYTHONPATH=src python perfbench/traced_server.py --spans OUT.json \\
        serve --listen 127.0.0.1:0 --input points.csv ...

Wrapped, per layer:

* net -- ``decode_request`` and ``response_to_dict`` as ``repro.net.server``
  calls them;
* service -- ``MaxRSService.serve`` (one span per dispatched window, tagged
  with the window's ``batch_id``);
* engine -- ``QueryEngine.batch_plan`` / ``solve_direct`` / ``solve_batch``,
  and ``plan_shards`` / the shard-merge functions as the engine calls them;
* kernels -- every :data:`repro.kernels.KERNEL_NAMES` function of every
  registered backend module;
* streaming -- ``ShardedMaxRSMonitor.apply_batch`` and ``current``.

``repro.parallel`` and the thread/process executors are not on the path
``repro serve --listen`` runs by default, so nothing wraps them.

A span is ``(id, parent, name, start, end, tag)`` with ``time.monotonic()``
timestamps (the clock the load generator uses) and the parent taken from a
per-thread stack, so a layer's self time is its span minus its children.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, List, Optional


class SpanRecorder:
    """Keeps finished spans in memory; one stack of open spans per thread."""

    def __init__(self):
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, function: Callable,
             tag: Optional[Callable] = None) -> Callable:
        """``function`` timed as span ``name``; ``tag(args, result)`` adds a
        JSON-ready tag once the call returns."""
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(function)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.monotonic()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                # Tuples of plain values: the cyclic garbage collector
                # stops tracking them, so a long run's spans cost no GC time.
                spans.append((span_id, parent, name, start, end,
                              tag(args, result) if tag and result is not None
                              else None))

        return timed


def install(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every layer in place."""
    from repro import kernels
    from repro.engine import planner
    from repro.engine.planner import QueryEngine
    from repro.net import server as net_server
    from repro.service.server import MaxRSService
    from repro.streaming.sharded import ShardedMaxRSMonitor

    wrap = recorder.wrap
    net_server.decode_request = wrap("net.decode", net_server.decode_request)
    net_server.response_to_dict = wrap("net.encode", net_server.response_to_dict)
    MaxRSService.serve = wrap(
        "service.serve", MaxRSService.serve,
        lambda args, responses: responses[0].batch_id if responses else None)
    QueryEngine.batch_plan = wrap("engine.batch_plan", QueryEngine.batch_plan)
    QueryEngine.solve_direct = wrap("engine.solve_direct", QueryEngine.solve_direct)
    QueryEngine.solve_batch = wrap("engine.solve_batch", QueryEngine.solve_batch)
    planner.plan_shards = wrap("engine.plan_shards", planner.plan_shards)
    planner.merge_shard_results = wrap("engine.merge", planner.merge_shard_results)
    planner.merge_batched_results = wrap("engine.merge",
                                         planner.merge_batched_results)
    for backend in kernels.available_backends():
        module = kernels.get_backend(backend)
        for kernel in kernels.KERNEL_NAMES:
            function = getattr(module, kernel, None)
            if function is not None:
                setattr(module, kernel, wrap(
                    "kernel." + backend, function,
                    lambda args, _: len(args[0]) if args else 0))
    ShardedMaxRSMonitor.apply_batch = wrap("monitor.apply_batch",
                                           ShardedMaxRSMonitor.apply_batch)
    ShardedMaxRSMonitor.current = wrap("monitor.current",
                                       ShardedMaxRSMonitor.current)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True,
                        help="write the recorded spans here (JSON) on exit")
    args, rest = parser.parse_known_args(argv)
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(rest)
    finally:
        with open(args.spans, "w") as handle:
            json.dump(recorder.spans, handle)


if __name__ == "__main__":
    sys.exit(main())
