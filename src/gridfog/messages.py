"""Wire-level payload types exchanged between terminals, piles, and FNCs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .engine import SimTime
from .topology import NodeId, NodeStatus, Point2D


@dataclass(frozen=True)
class ServiceRequest:
    """A terminal's charging query, answered by a pile selection."""

    request_id: str
    requester: NodeId
    origin: Point2D
    kind: str
    query_range_m: float
    issued_at: SimTime

    def __post_init__(self):
        if self.query_range_m <= 0:
            raise ValueError("query_range_m must be > 0")


class JobDispatch(NamedTuple):
    """One candidate's share of a request: the pile scores ``request`` itself."""

    request: ServiceRequest
    assignee: NodeId
    dispatched_at: SimTime

    @property
    def request_id(self) -> str:
        return self.request.request_id


class JobResult(NamedTuple):
    """One pile's score for one request: what the step-by-step reference aggregates."""

    request_id: str
    responder: NodeId
    score: float


@dataclass(frozen=True)
class Decision:
    request_id: str
    chosen: NodeId
    decided_at: SimTime


@dataclass(frozen=True)
class FailureNotice:
    """Tells the requester no pile could be selected."""

    request_id: str
    reason: str


@dataclass(frozen=True)
class StatusReportMsg:
    status: NodeStatus


@dataclass(frozen=True)
class LatencyComplaint:
    """Terminal-side report that its serving flow misses the latency target."""

    flow_id: str
    terminal: NodeId
    origin: Point2D
    observed_latency_ms: float
