"""Micro-batch formation: ordering barriers and in-flight coalescing.

The front end drains its request window into *groups* that can each be
served with one backend interaction, subject to one ordering rule: **updates
are barriers**.  A query submitted after an update batch must observe the
monitor state that batch produced, so a window is split at every transition
between update and non-update requests, preserving submission order:

    q q q | U U | q m q | U | m m      ->   serve(qqq) update(UU) serve(qmq) ...

Consecutive update requests merge into one
:class:`~repro.streaming.base.StreamMonitor.apply_batch` call (their events
concatenate in order); consecutive non-update requests form one *serve
group*, inside which identical requests -- equal
:attr:`~repro.datasets.requests.ServiceRequest.coalesce_key` -- are
**coalesced**: the answer is computed once and fanned out to every waiter.
All monitor reads of a serve group share a single monitor pass regardless of
name, because one :meth:`current` call answers every standing query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

from ..datasets.requests import ServiceRequest

__all__ = ["Group", "form_groups", "coalesce"]


@dataclass
class Group:
    """A maximal run of requests servable with one backend interaction.

    ``kind`` is ``"serve"`` (queries and monitor reads) or ``"update"``
    (monitor mutations); ``positions`` are the requests' indices in the
    window, in submission order.
    """

    kind: str
    positions: List[int] = field(default_factory=list)
    requests: List[ServiceRequest] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)


def form_groups(window: Sequence[ServiceRequest]) -> List[Group]:
    """Split a drained window into ordered serve / update groups.

    Updates act as barriers: the relative order of every update group and
    its surrounding serve groups is exactly the submission order, so every
    request observes the monitor state all preceding updates produced.
    """
    groups: List[Group] = []
    for position, request in enumerate(window):
        kind = "update" if request.kind == "update" else "serve"
        if not groups or groups[-1].kind != kind:
            groups.append(Group(kind=kind))
        groups[-1].positions.append(position)
        groups[-1].requests.append(request)
    return groups


def coalesce(
    group: Group,
) -> Tuple[List[Hashable], Dict[Hashable, List[int]]]:
    """Deduplicate a serve group's requests by coalesce key.

    Returns the distinct keys in first-appearance order and the mapping
    ``key -> window positions`` of every request that key satisfies.  The
    first position of each key is the *leader* (charged with the backend
    call); the rest are coalesced onto its answer.
    """
    if group.kind != "serve":
        raise ValueError("only serve groups coalesce (updates mutate state)")
    order: List[Hashable] = []
    waiters: Dict[Hashable, List[int]] = {}
    for position, request in zip(group.positions, group.requests):
        key = request.coalesce_key
        if key not in waiters:
            waiters[key] = []
            order.append(key)
        waiters[key].append(position)
    return order, waiters
