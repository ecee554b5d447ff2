"""FNC request handling step by step: the reference the simulator's FNC path matches.

The coordinator reads its registry of pile reports, narrows to in-range
piles with queue headroom (the candidate group V), dispatches one job per
candidate, and picks the lowest score among the results.  ``Simulation``
does this in one loop at dispatch and one at the decision.  The decision
loop walks the jobs nearest first and stops at the first whose distance
term alone is above the best score, since no farther job can win or tie;
it scores every job when a skipped score could fail to be finite.
"""

from __future__ import annotations

from .engine import SimTime
from .errors import EmptyResultSet, NoEligibleNodes
from .messages import Decision, JobDispatch, JobResult, ServiceRequest
from .topology import Layer, NodeId, Registry, nodes_within


def filter_candidates(registry: Registry, request: ServiceRequest) -> list[NodeId]:
    """In-range piles with queue headroom, nearest first: the group V."""
    in_range = nodes_within(registry, request.origin, request.query_range_m, Layer.FOG)
    statuses = registry.statuses
    eligible = [node for node in in_range
                if (load := statuses[node].resources).queue_len < load.capacity]
    if not eligible:
        raise NoEligibleNodes(request.request_id)
    return eligible


def dispatch(
    request: ServiceRequest, candidates: list[NodeId], clock: SimTime
) -> list[JobDispatch]:
    """One JobDispatch per candidate, stamped with the dispatch time."""
    if not candidates:
        raise NoEligibleNodes(request.request_id)
    return [JobDispatch(request, node, clock) for node in candidates]


def aggregate(request_id: str, results: list[JobResult], clock: SimTime) -> Decision:
    """Pick the minimal score; ties go to the lowest NodeId ordinal."""
    matching = [r for r in results if r.request_id == request_id]
    if not matching:
        raise EmptyResultSet(request_id)
    best = min(matching, key=lambda r: (r.score, r.responder.ordinal, r.responder))
    return Decision(request_id=request_id, chosen=best.responder, decided_at=clock)
