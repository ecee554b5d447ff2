"""Charging-pile behavior: request scoring, session flows, migration.

A pile evaluates dispatched charging queries against its own state, runs
session flows through their operator chain, and acts as source or target
of the flow migration protocol.  The protocol is a candidate-by-candidate
handshake: ask the candidates in group order to accept, release the flow
on accept and ship its state snapshot, fall through to the next candidate
on reject, and warn and give up when the group or the attempt bound runs
out.  The snapshot carries the events the flow holds past a gap, so a
migrating flow is resident on a pile, behind a forwarding stub, or in the
state message in flight; it is never held half-moved.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .errors import FlowNotResident
from .messages import JobResult, ServiceRequest
from .topology import NodeId, Point2D

log = logging.getLogger(__name__)

# The three-operator chain each charging session's flow runs.
SESSION_OPERATORS = ("ingest", "assess", "act")


@dataclass(frozen=True)
class FlowState:
    """Immutable snapshot of a flow: operator states, event cursor and held events."""

    flow_id: str
    operator_states: tuple[tuple[str, int], ...]
    cursor: int
    origin: NodeId
    pending: tuple[int, ...] = ()  # held past a gap, ascending; they migrate with the flow

    def __post_init__(self):
        if self.cursor < 0:
            raise ValueError("cursor must be >= 0")


@dataclass(frozen=True)
class MigrationPolicy:
    """Threshold, ordered candidate group V, and the retry bound."""

    t_upper: float
    candidates: tuple[NodeId, ...]
    max_attempts: int | None = None

    def __post_init__(self):
        if self.t_upper <= 0:
            raise ValueError("t_upper must be > 0")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidate group contains duplicates")
        if self.max_attempts is not None and type(self.max_attempts) is not int:
            raise ValueError("max_attempts must be an integer")  # bool is a subclass
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


@dataclass
class PileState:
    """Live charging-pile status: where it is and how backed up it is."""

    node: NodeId
    location: Point2D
    queue_len: int = 0
    service_rate: float = 30.0  # charges per virtual hour

    def __post_init__(self):
        if self.queue_len < 0:
            raise ValueError("queue_len must be >= 0")
        if self.service_rate <= 0:
            raise ValueError("service_rate must be > 0")


def offer_score(
    request: ServiceRequest, pile: PileState, load: int, weights: tuple[float, float]
) -> float:
    """Score ``pile`` for ``request`` at queue length ``load``; lower is better.

    w_dist * distance(request origin, pile) + w_wait * load / hourly service
    rate, the wait in virtual hours.  The weights are taken as valid.
    """
    w_dist, w_wait = weights
    score = w_dist * math.dist(pile.location, request.origin) + w_wait * (load / pile.service_rate)
    if not math.isfinite(score):
        raise ValueError("score must be finite")
    return score


def evaluate_charging_request(
    request: ServiceRequest, pile: PileState, weights: tuple[float, float]
) -> JobResult:
    """Score one pile for one request at its queue length now."""
    w_dist, w_wait = weights
    if w_dist < 0 or w_wait < 0 or (w_dist == 0 and w_wait == 0):
        raise ValueError("weights must be >= 0 and not both zero")
    return JobResult(request.request_id, pile.node,
                     offer_score(request, pile, pile.queue_len, weights))


class FlowInstance:
    """A resident flow: one counter per operator plus exactly-once intake.

    Events carry sequence numbers starting at 1.  ``offer`` drops anything
    at or below the cursor (already processed), buffers gaps, and processes
    contiguous runs in order, so every event is handled exactly once no
    matter the arrival order.
    """

    def __init__(self, flow_id: str, operators: tuple[str, ...], home: NodeId,
                 operator_states: dict[str, int] | None = None, cursor: int = 0):
        self.flow_id = flow_id
        self.home = home
        self.operator_states = (dict.fromkeys(operators, 0) if operator_states is None
                                else dict(operator_states))
        self.cursor = cursor
        self.pending: set[int] = set()
        self.processed_log: list[int] = []

    def offer(self, seq: int) -> list[int]:
        if seq <= self.cursor or seq in self.pending:
            return []
        self.pending.add(seq)
        done: list[int] = []
        while (nxt := self.cursor + 1) in self.pending:
            self.pending.remove(nxt)
            for op in self.operator_states:
                self.operator_states[op] += 1
            self.cursor = nxt
            self.processed_log.append(nxt)
            done.append(nxt)
        return done

    def snapshot(self) -> FlowState:
        return FlowState(
            flow_id=self.flow_id,
            operator_states=tuple(sorted(self.operator_states.items())),
            cursor=self.cursor,
            origin=self.home,
            pending=tuple(sorted(self.pending)),
        )

    @classmethod
    def restore(cls, state: FlowState, home: NodeId) -> "FlowInstance":
        """Rebuild a flow from its snapshot, which names its operators and held events."""
        instance = cls(
            state.flow_id, (), home,
            operator_states=dict(state.operator_states), cursor=state.cursor,
        )
        # ``offer`` never leaves ``cursor + 1`` held, so no held event is ready to run.
        instance.pending = set(state.pending)
        return instance


class FogNode:
    """One charging pile: its state, resident flows, and migration hooks."""

    def __init__(self, pile: PileState, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.pile = pile
        self.capacity = capacity
        self.flows: dict[str, FlowInstance] = {}
        self.forwarding: dict[str, NodeId] = {}  # released flow -> the pile it went to
        self._reservations: set[str] = set()

    @property
    def node(self) -> NodeId:
        return self.pile.node

    def has_flow(self, flow_id: str) -> bool:
        return flow_id in self.flows

    def install_flow(self, instance: FlowInstance) -> None:
        instance.home = self.node
        self.flows[instance.flow_id] = instance
        self.forwarding.pop(instance.flow_id, None)

    def create_flow(self, flow_id: str) -> FlowInstance:
        instance = FlowInstance(flow_id, SESSION_OPERATORS, self.node)
        self.install_flow(instance)
        return instance

    def offer_event(self, flow_id: str, seq: int):
        """Feed one event; returns ('processed', seqs) or ('forward', target)."""
        if flow_id in self.flows:
            return "processed", self.flows[flow_id].offer(seq)
        if flow_id in self.forwarding:
            return "forward", self.forwarding[flow_id]
        raise FlowNotResident(flow_id)

    def accept_migration(self, flow_id: str) -> bool:
        """Target-side admission: accept iff there is capacity headroom."""
        if self.pile.queue_len + len(self._reservations) >= self.capacity:
            return False
        self._reservations.add(flow_id)
        return True

    def release_flow(self, flow_id: str, forward_to: NodeId) -> FlowState:
        """Hand a flow off: drop it, leaving a stub to ``forward_to``.

        Returns its snapshot, which carries the events it holds past a gap.
        """
        if flow_id not in self.flows:
            raise FlowNotResident(flow_id)
        self.forwarding[flow_id] = forward_to
        return self.flows.pop(flow_id).snapshot()


def on_migration_end(host: FogNode, state: FlowState) -> None:
    """Install a migrated flow at the target, which refuses only when asked to accept."""
    host._reservations.discard(state.flow_id)
    host.install_flow(FlowInstance.restore(state, host.node))


@dataclass(frozen=True)
class MigrationOutcome:
    """Terminal result of one migration_source invocation."""

    kind: str  # not-needed | migrated | failed
    target: NodeId | None = None
    attempts: int = 0

    @property
    def warned(self) -> bool:
        """A failed migration is the one that logged "can not migrate"."""
        return self.kind == "failed"


@dataclass(frozen=True)
class MigrationStep:
    """One instruction from the session to its driver (sync or message-based)."""

    kind: str  # not-needed | send-start | send-state | done | failed
    target: NodeId | None = None
    state: FlowState | None = None
    outcome: MigrationOutcome | None = None


class MigrationSourceSession:
    """Source-side migration state machine, candidate by candidate.

    The driver calls ``begin`` once, then feeds responses and acks; each
    call returns the next step to execute.  The same machine serves the
    synchronous driver and the in-simulation message exchange.
    """

    def __init__(self, host: FogNode, flow_id: str, policy: MigrationPolicy):
        if not host.has_flow(flow_id):
            raise FlowNotResident(flow_id)
        if host.node in policy.candidates:
            raise ValueError("candidate group must not include the source")
        self.host = host
        self.flow_id = flow_id
        self.policy = policy
        self.attempts = 0  # candidates asked so far; the next is ``candidates[attempts]``
        self.current: NodeId | None = None

    def begin(self, observed_latency_ms: float) -> MigrationStep:
        if observed_latency_ms <= self.policy.t_upper:
            return MigrationStep("not-needed", outcome=MigrationOutcome("not-needed"))
        return self._next_candidate()

    def _next_candidate(self) -> MigrationStep:
        candidates, bound = self.policy.candidates, self.policy.max_attempts
        if self.attempts >= len(candidates) or bound is not None and self.attempts >= bound:
            log.warning("can not migrate: flow %s at %s", self.flow_id, self.host.node)
            outcome = MigrationOutcome("failed", attempts=self.attempts)
            return MigrationStep("failed", outcome=outcome)
        self.current = candidates[self.attempts]
        self.attempts += 1
        return MigrationStep("send-start", target=self.current)

    def on_response(self, accept: bool) -> MigrationStep:
        if self.current is None:
            raise RuntimeError("no outstanding candidate")
        if not accept:
            return self._next_candidate()
        state = self.host.release_flow(self.flow_id, forward_to=self.current)
        return MigrationStep("send-state", target=self.current, state=state)

    def on_ack(self) -> MigrationStep:
        """The target installed the flow: the migration is done."""
        outcome = MigrationOutcome("migrated", target=self.current, attempts=self.attempts)
        return MigrationStep("done", target=self.current, outcome=outcome)


def migration_source(
    host: FogNode,
    flow_id: str,
    observed_latency_ms: float,
    policy: MigrationPolicy,
    respond,
    deliver_state=None,
) -> MigrationOutcome:
    """Run the whole migration handshake synchronously.

    ``respond(candidate)`` answers the start-migration question; optional
    ``deliver_state(candidate, state)`` hands the snapshot, held events
    included, to the candidate that accepted, which installs it.
    """
    session = MigrationSourceSession(host, flow_id, policy)
    step = session.begin(observed_latency_ms)
    while True:
        if step.kind in ("not-needed", "failed", "done"):
            return step.outcome
        if step.kind == "send-start":
            step = session.on_response(bool(respond(step.target)))
        else:  # send-state
            if deliver_state is not None:
                deliver_state(step.target, step.state)
            step = session.on_ack()


@dataclass(frozen=True)
class StartMigration:
    flow_id: str
    source: NodeId


@dataclass(frozen=True)
class MigrationResponse:
    flow_id: str
    accept: bool


@dataclass(frozen=True)
class ObjectStateMsg:
    state: FlowState

    @property
    def flow_id(self) -> str:
        return self.state.flow_id


@dataclass(frozen=True)
class MigrationAck:
    flow_id: str
