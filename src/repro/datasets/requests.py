"""The request type of the query-serving front end, and synthetic traces.

:class:`ServiceRequest` is the project's one request type: a saved trace
line, a wire body decoded by :mod:`repro.net` and a request served by
:mod:`repro.service` are the same object -- a static MaxRS query against a
fixed dataset, a hotspot read against a live stream monitor, or an update
batch that mutates the monitor's live set.

The serving layer is exercised with *request traces*: plain lists of
requests in arrival order.  This module synthesises the traffic shapes the
serving benchmarks and tests replay:

* an **open-loop arrival process** -- requests arrive on exponential
  interarrival gaps at a base rate, punctuated by *hotspot windows* during
  which the arrival rate multiplies (the flash-crowd shape that makes
  micro-batching worthwhile: requests pile up faster than one-at-a-time
  service can drain them);
* **Zipf-distributed query popularity** over a finite catalog, so a few
  queries dominate the traffic (the coalescing / caching opportunity);
* **update interleaving** -- every so often an update batch from a
  :func:`~repro.datasets.streams.hotspot_monitoring_stream` arrives, which
  invalidates monitor-derived cached answers and forces fresh monitor passes.

Traces round-trip through JSON lines (:func:`save_trace` /
:func:`load_trace`) so a CLI ``repro serve --replay trace.jsonl`` run is
reproducible byte-for-byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from numbers import Real
from typing import Iterable, List, Optional, Sequence, Tuple

from ..engine.planner import Query
from ..core.sampling import default_rng
from .streams import UpdateEvent, hotspot_monitoring_stream

__all__ = [
    "ServiceRequest",
    "trace_counts",
    "default_query_catalog",
    "zoo_query_catalog",
    "request_trace",
    "request_to_dict",
    "request_from_dict",
    "save_trace",
    "load_trace",
]


@dataclass(frozen=True)
class ServiceRequest:
    """One MaxRS request: a trace line, a wire body and a served request.

    ``kind`` selects the request family:

    * ``"query"`` -- a static MaxRS query (``query`` is set) against the
      service's fixed dataset;
    * ``"monitor"`` -- a hotspot read against the service's live stream
      monitor (``name`` optionally selects one standing query of a
      multi-query monitor);
    * ``"update"`` -- a batch of stream events (``events``) to apply to the
      monitor, invalidating monitor-derived cached answers.

    ``arrival`` is the request's open-loop arrival time in seconds from the
    start of its trace (non-decreasing along a trace).  Only the load
    generator reads it; the service ignores it.

    Build requests with the named constructors -- :meth:`static`,
    :meth:`read`, :meth:`update` -- or, for a timed trace, directly.  A
    malformed field raises ``ValueError`` here, so a bad wire body is
    refused (400) before it can reach a serving window.  Requests are
    frozen; the batcher coalesces requests whose :attr:`coalesce_key` is
    equal, which ``arrival`` does not enter.
    """

    kind: str
    arrival: float = 0.0
    query: Optional[Query] = None
    name: Optional[str] = None
    events: Tuple[UpdateEvent, ...] = ()

    def __post_init__(self):
        if self.kind not in ("query", "monitor", "update"):
            raise ValueError("request kind must be 'query', 'monitor' or 'update'")
        if self.kind == "query" and self.query is None:
            raise ValueError("query requests need a query")
        if self.kind == "update" and not self.events:
            raise ValueError("update requests need at least one stream event")
        if self.name is not None and not isinstance(self.name, str):
            raise ValueError("request name must be a string, got %s"
                             % type(self.name).__name__)
        # bool is a Real; "not 0 <= x < inf" also refuses NaN.
        if (isinstance(self.arrival, bool) or not isinstance(self.arrival, Real)
                or not 0.0 <= self.arrival < math.inf):
            raise ValueError("request arrival must be a finite number >= 0, "
                             "got %r" % (self.arrival,))

    @staticmethod
    def static(query: Query) -> "ServiceRequest":
        """A static MaxRS query against the service's fixed dataset."""
        return ServiceRequest(kind="query", query=query)

    @staticmethod
    def read(name: Optional[str] = None) -> "ServiceRequest":
        """A hotspot read against the live monitor (``name`` selects one
        standing query of a multi-query monitor)."""
        return ServiceRequest(kind="monitor", name=name)

    @staticmethod
    def update(events) -> "ServiceRequest":
        """An update batch: stream events applied to the live monitor."""
        return ServiceRequest(kind="update", events=tuple(events))

    @property
    def coalesce_key(self):
        """Requests with equal keys are satisfied by one answer (``None``
        means the request is never coalesced -- updates mutate state)."""
        if self.kind == "query":
            return ("q", self.query)
        if self.kind == "monitor":
            return ("m", self.name)
        return None


def trace_counts(requests: Iterable[ServiceRequest]) -> dict:
    """Request counts per kind plus the total stream events carried."""
    counts = {"query": 0, "monitor": 0, "update": 0, "stream_events": 0}
    for request in requests:
        counts[request.kind] += 1
        counts["stream_events"] += len(request.events)
    return counts


def default_query_catalog(
    *,
    colored: bool = False,
    heavy: bool = True,
    backend: str = "auto",
) -> List[Query]:
    """The standard static-query catalog the synthetic traces draw from.

    Mostly linearithmic rectangle sweeps (cheap enough that a 10k-request
    trace replays in seconds), a few exact disk sweeps and approximate
    d-ball queries (``heavy=True``), and -- when the target dataset carries
    colors -- a pair of colored disk queries.
    """
    catalog: List[Query] = []
    for width, height in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (2.0, 2.0),
                          (0.5, 0.5), (3.0, 1.5), (1.5, 3.0), (4.0, 4.0)):
        catalog.append(Query.rectangle(width, height, backend=backend))
    if heavy:
        for radius in (0.5, 1.0):
            catalog.append(Query.disk(radius, backend=backend))
        for epsilon in (0.25, 0.4):
            catalog.append(Query.disk_approx(1.0, epsilon=epsilon, seed=7,
                                             backend=backend))
    if colored:
        catalog.append(Query.colored_disk(0.75, backend=backend))
        catalog.append(Query.colored_disk_approx(1.0, epsilon=0.4, seed=7,
                                                 backend=backend))
    return catalog


def zoo_query_catalog(
    *,
    families: Sequence[str] = ("topk", "decayed", "batched"),
    backend: str = "auto",
) -> List[Query]:
    """Long-tail query families for heterogeneous-zoo traces.

    ``families`` selects which family mixes to include:

    * ``"topk"`` -- greedy disjoint top-k rectangle/disk placements;
    * ``"decayed"`` -- arrival-order exponential decay (planar);
    * ``"batched"`` -- batched rectangle sizes (planar; use
      ``"batched_interval"`` for the 1-d lengths variant);
    * ``"colored_box3d"`` -- exact colored boxes (needs a 3-d colored
      dataset, so it is off by default for planar traces).

    Unknown family names raise so a typo cannot silently thin the mix.
    """
    known = {"topk", "decayed", "batched", "batched_interval", "colored_box3d"}
    unknown = [family for family in families if family not in known]
    if unknown:
        raise ValueError("unknown zoo families %r (known: %s)"
                         % (unknown, ", ".join(sorted(known))))
    catalog: List[Query] = []
    for family in families:
        if family == "topk":
            catalog.append(Query.topk_rectangle(1.5, 1.0, 3, backend=backend))
            catalog.append(Query.topk_disk(0.75, 2, backend=backend))
        elif family == "decayed":
            catalog.append(Query.decayed_disk(0.8, 0.9, backend=backend))
            catalog.append(Query.decayed_rectangle(1.0, 1.0, 0.95,
                                                   backend=backend))
        elif family == "batched":
            catalog.append(Query.batched_rectangles(
                ((1.0, 1.0), (2.0, 1.5), (0.5, 2.0)), backend=backend))
        elif family == "batched_interval":
            catalog.append(Query.batched_intervals((0.5, 1.0, 2.0),
                                                   backend=backend))
        else:  # colored_box3d
            catalog.append(Query.colored_box3d(1.5, 1.5, 1.5))
            catalog.append(Query.colored_box3d(2.5, 2.0, 1.0))
    return catalog


def request_trace(
    n_requests: int,
    *,
    catalog: Optional[Sequence[Query]] = None,
    zipf_s: float = 1.1,
    shuffle: bool = True,
    monitor_fraction: float = 0.25,
    update_every: int = 40,
    update_batch: int = 16,
    rate: float = 500.0,
    hotspot_every: int = 1000,
    hotspot_length: int = 200,
    hotspot_boost: float = 8.0,
    extent: float = 10.0,
    seed=None,
    families: Optional[Sequence[str]] = None,
    families_backend: str = "auto",
) -> List[ServiceRequest]:
    """Synthesise a mixed open-loop serving trace of ``n_requests`` requests.

    Parameters
    ----------
    catalog:
        The static queries traffic draws from (default:
        :func:`default_query_catalog`).  Popularity is Zipf with exponent
        ``zipf_s`` over a random permutation of the catalog
        (``shuffle=True``, the default) or over the catalog's own order
        (``shuffle=False``: the first entry is the most popular -- how the
        benchmarks pin expensive queries to the popularity tail), so a
        handful of queries receive most of the traffic.
    families:
        Optional long-tail family mix: the names
        :func:`zoo_query_catalog` accepts.  The zoo queries are appended to
        the catalog (after the default one when ``catalog`` is ``None``), so
        heterogeneous traces are one knob away from the headline mix;
        ``families_backend`` pins their kernel backend (a concrete name
        makes served answers bit-comparable to a per-call baseline --
        ``"auto"`` resolves per micro-batch in the service but per call in
        a serial loop, which flips kernels near the threshold).
    monitor_fraction:
        Fraction of non-update requests that are live-monitor hotspot reads
        instead of static queries.
    update_every, update_batch:
        Every ``update_every`` requests, one ``"update"`` request carrying
        ``update_batch`` events of a clustered insert/delete stream is
        interleaved (0 disables updates).
    rate, hotspot_every, hotspot_length, hotspot_boost:
        The open-loop arrival process: exponential interarrival gaps at
        ``rate`` requests/sec, multiplied by ``hotspot_boost`` for
        ``hotspot_length``-request windows starting every ``hotspot_every``
        requests -- the flash-crowd periods in which requests pile up and
        micro-batches grow.
    extent, seed:
        Stream geometry and determinism.
    """
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    if zipf_s <= 0:
        raise ValueError("zipf_s must be positive")
    if not 0.0 <= monitor_fraction <= 1.0:
        raise ValueError("monitor_fraction must lie in [0, 1]")
    if update_every < 0 or update_batch < 1:
        raise ValueError("update_every must be >= 0 and update_batch >= 1")
    if rate <= 0 or hotspot_boost < 1.0:
        raise ValueError("rate must be positive and hotspot_boost >= 1")
    rng = default_rng(seed)
    queries = list(catalog) if catalog is not None else default_query_catalog()
    if families:
        queries.extend(zoo_query_catalog(families=families,
                                         backend=families_backend))
    if not queries:
        raise ValueError("the query catalog must not be empty")
    order = rng.permutation(len(queries)) if shuffle else list(range(len(queries)))
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(queries))]
    total = sum(weights)
    popularity = [w / total for w in weights]

    # One long update stream, chopped sequentially into the trace's update
    # batches: delete targets stay consistent because the service replays the
    # batches in order at monotonically increasing stream offsets.
    n_updates = 0 if update_every == 0 else (n_requests // update_every + 1)
    stream = list(hotspot_monitoring_stream(max(1, n_updates * update_batch),
                                            extent=extent, seed=rng))
    stream_cursor = 0

    requests: List[ServiceRequest] = []
    clock = 0.0
    for index in range(n_requests):
        in_hotspot = hotspot_every > 0 and (index % hotspot_every) < hotspot_length
        effective_rate = rate * (hotspot_boost if in_hotspot else 1.0)
        clock += float(rng.exponential(1.0 / effective_rate))
        if update_every and index % update_every == update_every - 1:
            chunk = stream[stream_cursor:stream_cursor + update_batch]
            stream_cursor += len(chunk)
            if chunk:
                requests.append(ServiceRequest(kind="update", arrival=clock,
                                               events=tuple(chunk)))
                continue
        if rng.random() < monitor_fraction:
            requests.append(ServiceRequest(kind="monitor", arrival=clock))
        else:
            choice = int(rng.choice(len(queries), p=popularity))
            requests.append(ServiceRequest(kind="query", arrival=clock,
                                           query=queries[int(order[choice])]))
    return requests


# --------------------------------------------------------------------------- #
# JSONL persistence
# --------------------------------------------------------------------------- #

def _query_to_dict(query: Query) -> dict:
    return {k: v for k, v in asdict(query).items() if v is not None}


def _event_to_dict(event: UpdateEvent) -> dict:
    payload = asdict(event)
    return {k: v for k, v in payload.items() if v is not None}


def request_to_dict(request: ServiceRequest) -> dict:
    """One :class:`ServiceRequest` as a JSON-ready dict.

    This is the single request-serialisation schema of the project: the
    lines :func:`save_trace` writes and the request bodies the network
    front end (:mod:`repro.net`) accepts are both exactly this shape.
    """
    record = {"kind": request.kind, "arrival": request.arrival}
    if request.query is not None:
        record["query"] = _query_to_dict(request.query)
    if request.name is not None:
        record["name"] = request.name
    if request.events:
        record["events"] = [_event_to_dict(e) for e in request.events]
    return record


def request_from_dict(record: dict) -> ServiceRequest:
    """Rebuild a :class:`ServiceRequest` from :func:`request_to_dict` output.

    Raises ``ValueError`` / ``TypeError`` / ``KeyError`` on malformed
    records -- callers decoding untrusted input (the JSONL loader, the
    network front end) surface these per request.
    """
    query = None
    if "query" in record:
        fields = dict(record["query"])
        # JSON has no tuples; exactness defaults are restored by Query.
        query = Query(**fields)
    events = tuple(
        UpdateEvent(
            kind=e["kind"],
            point=tuple(e["point"]) if "point" in e else None,
            weight=e.get("weight", 1.0),
            target=e.get("target"),
            timestamp=e.get("timestamp"),
            color=e.get("color"),
        )
        for e in record.get("events", ())
    )
    return ServiceRequest(kind=record["kind"],
                          arrival=record.get("arrival", 0.0),
                          query=query,
                          name=record.get("name"),
                          events=events)


def save_trace(path: str, trace: Sequence[ServiceRequest]) -> None:
    """Write a trace as JSON lines (one request per line, replayable with
    ``repro serve --replay``)."""
    with open(path, "w") as handle:
        for request in trace:
            handle.write(json.dumps(request_to_dict(request)) + "\n")


def load_trace(path: str) -> List[ServiceRequest]:
    """Read a trace previously written by :func:`save_trace`."""
    requests: List[ServiceRequest] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            requests.append(request_from_dict(json.loads(line)))
    return requests
