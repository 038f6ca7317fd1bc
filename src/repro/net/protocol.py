"""The wire codec of the network front end.

One type, one schema, three uses: the JSONL lines
:func:`repro.datasets.save_trace` writes, the request bodies
:class:`repro.net.server.MaxRSServer` accepts, and the requests
:func:`repro.net.loadgen.run_loadgen` replays are all the same JSON object
(:func:`repro.datasets.requests.request_to_dict`) of the same
:class:`~repro.datasets.requests.ServiceRequest`, and a decoded body is
served as it is.  This module adds the *response* half -- how a
:class:`~repro.service.requests.ServiceResponse` travels back over the
socket -- plus the result encoding both directions share.

Responses are JSON objects of the shape::

    {"ok": true, "served_from": "solver", "batch_size": 5, "batch_id": 3,
     "queue_wait": 0.0012, "latency": 0.0038,
     "result": {"value": 4.0, "center": [0.1, 0.2], "shape": "disk",
                "exact": true, "meta": {...}},
     "served_query": {"shape": "disk", "radius": 1.0, ...},
     "error": null}

``error``, when set, is ``{"type": <exception class name>, "message": ...}``
-- exceptions do not cross the wire, their identity does.  The HTTP status
stays 200 for served-with-error responses (the per-response error contract
of :meth:`~repro.service.MaxRSService.serve`); non-200 statuses are
transport-level outcomes: 400 (a body that does not decode to a valid
request), 503 (shed by the admission queue), 404/405 (bad route).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.result import MaxRSResult
from ..datasets.requests import (
    ServiceRequest,
    _query_to_dict,
    request_from_dict,
    request_to_dict,
)
from ..service.requests import ServiceResponse

__all__ = [
    "RemoteResponse",
    "encode_request",
    "decode_request",
    "result_to_dict",
    "result_from_dict",
    "response_to_dict",
    "response_from_dict",
]


def encode_request(request: ServiceRequest) -> bytes:
    """One request as its wire body: the UTF-8 JSON of the trace schema."""
    return json.dumps(request_to_dict(request)).encode("utf-8")


def decode_request(body: bytes) -> ServiceRequest:
    """Parse a wire body back into a :class:`ServiceRequest`.

    Raises ``ValueError`` on anything malformed -- bad JSON, a non-object
    payload, unknown kinds or query fields, a non-string ``name``, an
    ``arrival`` that is not a finite number >= 0 -- so the server can turn
    the failure into a 400 without guessing what the client meant.
    """
    try:
        record = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError("request body is not valid JSON: %s" % (exc,)) from None
    if not isinstance(record, dict):
        raise ValueError("request body must be a JSON object, got %s"
                         % type(record).__name__)
    try:
        return request_from_dict(record)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("malformed request record: %s" % (exc,)) from None


def _canonical(value):
    """JSON-canonical form: tuples become lists, containers recurse.

    Makes :func:`result_to_dict` output *stable under a JSON round trip*,
    so a wire-decoded result dict compares equal to the local encoding of
    the same result -- the equality the differential gate relies on.
    """
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    return value


def result_to_dict(result: MaxRSResult) -> dict:
    """A :class:`MaxRSResult` as a JSON-ready dict.

    The encoding is canonical: two results are bit-identical exactly when
    their encodings are equal (floats round-trip through JSON's shortest
    repr, tuples and lists encode alike), which is what the serving-SLO
    differential gate compares.
    """
    return {
        "value": result.value,
        "center": None if result.center is None else list(result.center),
        "shape": result.shape,
        "exact": result.exact,
        "meta": _canonical(dict(result.meta)),
    }


def result_from_dict(record: dict) -> MaxRSResult:
    """Rebuild a :class:`MaxRSResult` from :func:`result_to_dict` output."""
    center = record.get("center")
    return MaxRSResult(
        value=float(record["value"]),
        center=None if center is None else tuple(center),
        shape=record.get("shape", "ball"),
        exact=bool(record.get("exact", True)),
        meta=dict(record.get("meta") or {}),
    )


def response_to_dict(response: ServiceResponse) -> dict:
    """A :class:`ServiceResponse` as its wire payload."""
    error = None
    if response.error is not None:
        error = {"type": type(response.error).__name__,
                 "message": str(response.error)}
    return {
        "ok": response.ok,
        "served_from": response.served_from,
        "batch_size": response.batch_size,
        "batch_id": response.batch_id,
        "queue_wait": response.queue_wait,
        "latency": response.latency,
        "result": (None if response.result is None
                   else result_to_dict(response.result)),
        "served_query": (None if response.served_query is None
                         else _query_to_dict(response.served_query)),
        "error": error,
    }


@dataclass
class RemoteResponse:
    """A client-side view of one wire response.

    ``status`` is the HTTP status the transport returned; ``shed`` is true
    for 503 admission-queue rejections.  ``result`` stays in its encoded
    dict form -- the differential gate compares encodings, and callers who
    want the object call :func:`result_from_dict`.
    """

    status: int
    ok: bool = False
    served_from: str = "error"
    result: Optional[dict] = None
    served_query: Optional[dict] = None
    error: Optional[Dict[str, str]] = None
    batch_size: int = 0
    batch_id: int = 0
    queue_wait: float = 0.0
    latency: float = 0.0
    payload: dict = field(default_factory=dict, repr=False)

    @property
    def shed(self) -> bool:
        """Whether the admission queue rejected the request (503)."""
        return self.status == 503


def response_from_dict(payload: dict, status: int = 200) -> RemoteResponse:
    """Parse a wire response payload into a :class:`RemoteResponse`."""
    return RemoteResponse(
        status=status,
        ok=bool(payload.get("ok", False)) and status == 200,
        served_from=str(payload.get("served_from", "error")),
        result=payload.get("result"),
        served_query=payload.get("served_query"),
        error=payload.get("error"),
        batch_size=int(payload.get("batch_size", 0)),
        batch_id=int(payload.get("batch_id", 0)),
        queue_wait=float(payload.get("queue_wait", 0.0)),
        latency=float(payload.get("latency", 0.0)),
        payload=payload,
    )
