"""The network front end: a socket on the serving layer.

Everything below :mod:`repro.net` serves requests that already live in the
process.  This package puts the serving stack on the wire:

* :mod:`repro.net.protocol` -- the JSON request/response codec.  Request
  bodies are exactly the JSONL records of :mod:`repro.datasets.requests`
  (one :func:`~repro.datasets.requests.request_to_dict` object per
  request), so a saved trace line and a wire request are the same bytes,
  and both decode to the :class:`~repro.datasets.requests.ServiceRequest`
  the service serves;
  responses carry the answer, the routing provenance (``served_from``) and
  the per-response error, mirroring
  :class:`~repro.service.requests.ServiceResponse`.
* :mod:`repro.net.server` -- :class:`MaxRSServer`, an asyncio HTTP/1.1
  front end bridging the event loop to a :class:`~repro.service.MaxRSService`:
  a **bounded admission queue** feeds a dispatcher task that drains arrival
  windows and runs each micro-batch on a serving executor thread; when the
  queue is full the request is **shed** with a 503 instead of queueing
  unboundedly (open-loop overload stays bounded by construction).
* :mod:`repro.net.loadgen` -- :func:`run_loadgen`, an **open-loop**
  multi-client load generator: it honours each
  :class:`~repro.datasets.requests.ServiceRequest`'s ``arrival`` timestamp at
  a configurable rate multiplier (requests fire on schedule whether or not
  earlier ones completed), so queueing collapse shows up as growing latency
  and shed responses instead of being hidden by closed-loop replay.

The serving guarantees survive the wire: a served wire answer is the
:func:`~repro.net.protocol.result_to_dict` encoding of exactly the
:class:`~repro.core.result.MaxRSResult` an in-process
:meth:`~repro.service.MaxRSService.serve_trace` replay of the same trace
produces (``repro.bench.suites.ServingSloSuite`` gates this differentially
on every benchmark run).
"""

from .loadgen import LoadgenRecord, LoadgenReport, run_loadgen
from .protocol import (
    RemoteResponse,
    decode_request,
    encode_request,
    response_from_dict,
    response_to_dict,
    result_from_dict,
    result_to_dict,
)
from .server import MaxRSServer

__all__ = [
    "MaxRSServer",
    "run_loadgen",
    "LoadgenRecord",
    "LoadgenReport",
    "RemoteResponse",
    "encode_request",
    "decode_request",
    "response_to_dict",
    "response_from_dict",
    "result_to_dict",
    "result_from_dict",
]
