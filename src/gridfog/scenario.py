"""The EV charging scenario: mobility, request generation, both architectures.

Terminals are electric vehicles roaming a circular arena under a
random-waypoint model, issuing Poisson charging queries.  In traditional
mode an EV broadcasts to every pile in range over the shared wireless
channel and picks the best direct reply.  In coordinated mode it sends one
message to its sector's FNC, which filters candidates from its registry,
dispatches jobs over the backhaul, aggregates scores, and answers with a
decision.  All wireless transmissions serialize on one shared channel, so
broadcast fan-out and cross-traffic cost airtime; backhaul links do not
contend.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
from dataclasses import dataclass, field, fields
from functools import partial, reduce
from typing import NamedTuple

# No run calls aggregate, dispatch, filter_candidates or evaluate_charging_request,
# but bench/layers.py patches each by name on this module, and raises if one is missing.
from .coordinator import aggregate, dispatch, filter_candidates
from .engine import EventQueue, LatencyModel, RngStream, SimTime, link_latency
from .errors import CapacityExceeded, InvariantViolation
from .fognode import (
    FogNode,
    MigrationAck,
    MigrationPolicy,
    MigrationSourceSession,
    ObjectStateMsg,
    PileState,
    StartMigration,
    MigrationResponse,
    evaluate_charging_request,
    offer_score,
    on_migration_end,
)
from .messages import (
    Decision,
    FailureNotice,
    JobDispatch,
    JobResult,
    LatencyComplaint,
    ServiceRequest,
    StatusReportMsg,
)
from .metrics import MetricsRow, percentile_nearest_rank
from .topology import (
    Layer,
    NodeId,
    NodeRecord,
    NodeStatus,
    PileIndex,
    Point2D,
    Registry,
    ResourceProfile,
    fnc_id,
    fog_id,
    place_nodes,
    report_status,
    sector_index,
    terminal_id,
)

ARCHITECTURES = ("traditional", "coordinated")

# Delays, rates and counts that a negative value would turn into events
# scheduled in the past or a failure deep inside a run.
_NON_NEGATIVE = (
    "wireless_base_ms", "wireless_prop_ms_per_m", "wireless_air_ms",
    "backhaul_base_ms", "backhaul_prop_ms_per_m", "proc_ms_per_unit",
    "compute_ms", "fnc_service_ms", "mobility_speed_mps",
    "max_migration_attempts",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a single run needs; field names double as config keys."""

    n_terminals: int = 20
    n_fog: int = 10
    n_fnc: int = 2
    arena_diameter_m: float = 2000.0
    query_range_m: float = 1000.0
    request_rate: float = 4.0  # requests per terminal per virtual minute
    sim_duration_ms: float = 30_000.0
    architecture: str = "coordinated"
    seed: int = 1
    wireless_base_ms: float = 2.0
    wireless_prop_ms_per_m: float = 0.05
    wireless_air_ms: float = 4.0
    backhaul_base_ms: float = 1.0
    backhaul_prop_ms_per_m: float = 0.002
    proc_ms_per_unit: float = 1.0
    compute_ms: float = 280.0
    fnc_service_ms: float = 1.0
    aggregation_timeout_ms: float = 500.0
    report_period_ms: float = 1000.0
    mobility_speed_mps: float = 15.0
    mobility_step_ms: float = 500.0
    capacity: int = 64
    service_rate_per_hour: float = 30.0
    w_dist: float = 1.0
    w_wait: float = 600.0
    t_upper_ms: float = 650.0
    ewma_alpha: float = 0.5
    max_migration_attempts: int = 0  # 0 means try the whole candidate group

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"{f.name} must be an integer")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if min(self.n_terminals, self.n_fog, self.n_fnc) < 0:
            raise ValueError("node counts must be >= 0")
        if self.sim_duration_ms <= 0:
            raise ValueError("sim_duration_ms must be > 0")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}")
        if self.query_range_m <= 0:
            raise ValueError("query_range_m must be > 0")
        if self.request_rate < 0:
            raise ValueError("request_rate must be >= 0")
        if self.arena_diameter_m <= 0:
            raise ValueError("arena_diameter_m must be > 0")
        if self.capacity <= 0:
            raise ValueError("capacity must be > 0")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.service_rate_per_hour <= 0:
            raise ValueError("service_rate_per_hour must be > 0")
        if self.aggregation_timeout_ms <= 0:
            raise ValueError("aggregation_timeout_ms must be > 0")
        if self.report_period_ms <= 0 or self.mobility_step_ms <= 0:
            raise ValueError("periods must be > 0")
        for name in _NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.t_upper_ms <= 0:
            raise ValueError("t_upper_ms must be > 0")
        if self.w_dist < 0 or self.w_wait < 0 or (self.w_dist == 0 and self.w_wait == 0):
            raise ValueError("weights must be >= 0 and not both zero")
        if self.architecture == "coordinated" and self.n_fnc < 1:
            raise ValueError("coordinated mode needs at least 1 FNC")

    @property
    def weights(self) -> tuple[float, float]:
        return (self.w_dist, self.w_wait)


@dataclass
class RequestOutcome:
    """What became of one charging query, as seen by its terminal."""

    request_id: str
    terminal: NodeId
    issued_at: SimTime
    decided_at: SimTime | None = None
    latency_ms: float | None = None
    chosen: NodeId | None = None
    messages_used: int = 0
    failure: str | None = None

    @property
    def completed(self) -> bool:
        return self.decided_at is not None


@dataclass(frozen=True)
class MigrationAudit:
    """One line of the migration log: who moved where and why."""

    flow_id: str
    source: NodeId
    target: NodeId | None
    attempts: int
    outcome: str
    trigger_latency_ms: float
    t_upper_ms: float
    warned: bool


@dataclass(frozen=True)
class SendTrace:
    """Debug record of one transmitted message, built only when a run is traced."""

    sent_at: SimTime
    arrives_at: SimTime
    medium: str  # wireless | backhaul
    src: NodeId
    dst: NodeId
    distance_m: float
    receiver_load: float
    kind: str
    request_id: str | None


@dataclass
class _WirelessChannel:
    """Single shared medium: transmissions serialize, airtime is exclusive."""

    air_ms: float
    free_at: SimTime = 0.0

    def acquire(self, now: SimTime) -> SimTime:
        departure = max(now, self.free_at)
        self.free_at = departure + self.air_ms
        return departure


@dataclass(slots=True)
class _Terminal:
    node: NodeId
    here: Point2D  # after ``steps`` mobility steps
    steps: int = 0
    waypoints: RngStream | None = None  # built with the first waypoint
    waypoint: Point2D | None = None
    step_m: float = 0.0  # metres walked per mobility step; 0 stops the walker
    requests_issued: int = 0
    serving_pile: NodeId | None = None
    flow_id: str | None = None
    ewma_ms: float | None = None


@dataclass
class _ReplyWindow:
    """A broadcasting terminal's window for one request: its best in-time reply so far."""

    deadline: SimTime
    best: float = math.inf
    chosen: NodeId | None = None
    last_arrival: SimTime | None = None


@dataclass
class _FanOutWindow:
    """An FNC's reply window, opened at ``opened_at`` with one job per candidate.

    Dispatch books each job whose reply will beat the deadline as ``(handled_at,
    seq, pile)``, the instant and sequence number of the event its handling
    would have been; the decision scores them.
    """

    request: ServiceRequest
    deadline: SimTime
    opened_at: SimTime
    jobs: list[tuple[SimTime, int, PileState]]


# Internal payloads.  A periodic tick has no target, acts on every node of
# its kind and comes back every ``period_ms``; the others act on their
# event's target.
@dataclass(frozen=True)
class _RequestTick:
    pass


@dataclass(frozen=True)
class _MobilityTick:
    period_ms: float


@dataclass(frozen=True)
class _ReportTick:
    period_ms: float


@dataclass(frozen=True)
class _DrainTick:
    period_ms: float


class _ComputeDone(NamedTuple):
    """A pile's computation for a broadcast copy that reached it at ``(arrival, seq)``."""

    request: ServiceRequest
    arrival: SimTime
    seq: int


_new_compute_done = partial(tuple.__new__, _ComputeDone)


@dataclass(frozen=True)
class _Deadline:
    request_id: str


# The payloads a node sends on no request's behalf.  The messages law counts
# every other send against its request.
_UNATTRIBUTED = frozenset({
    StatusReportMsg, LatencyComplaint, StartMigration, MigrationResponse, ObjectStateMsg,
    MigrationAck,
})


@dataclass(slots=True)
class _Tally:
    """Counts that only the end-of-run conservation check reads."""

    aggregated: int = 0  # replies read by FNC decisions
    drained: int = 0  # charges the drains took off non-empty piles
    base_load: int = 0  # charges the piles held before the run's first event


@dataclass(slots=True)
class _Booking:
    """The books only a coordinated run keeps; a traditional run has none.

    ``links[fnc][pile]`` is an FNC–pile backhaul cost at no load, fixed at
    set-up; ``hypot`` ignores signs, so it holds both ways.  A reply row is
    held in a heap keyed ``(handled_at, seq)`` until the event loop gets there.
    """

    links: dict[NodeId, dict[NodeId, float]]  # per FNC, per pile
    last_report: dict[NodeId, StatusReportMsg]  # per pile
    held: list[tuple[SimTime, int, SendTrace]] = field(default_factory=list)


@dataclass(frozen=True)
class _JobsHandled:
    """Every job of a request is handled by now, and each reply beats its deadline."""

    request_id: str
    last_arrival: SimTime  # of the replies, when the FNC decides


class Simulation:
    """One fully built scenario run; construct, ``run()``, then read results.

    ``trace`` is any object with ``append``, such as a list or a file
    writer; it receives one :class:`SendTrace` per message sent.  Without
    one no trace row is built, and ``self.trace`` is an empty tuple.
    """

    def __init__(self, config: ScenarioConfig, trace=None):
        self.config = config
        # Events due after this instant are never handled.
        self.horizon = config.sim_duration_ms + 2 * config.aggregation_timeout_ms + 10_000.0
        terminals = [str(terminal_id(i)) for i in range(config.n_terminals)]
        # The streams that set-up draws from, derived in one batch: each node's
        # placement and each terminal's arrivals.  A waypoint stream derives
        # itself when its terminal first aims: in a large short run most
        # terminals never do, and holding every terminal's state costs memory.
        self.rng = RngStream.with_children(config.seed, [
            *terminals, *(str(fog_id(i)) for i in range(config.n_fog)),
            *(f"arrivals/{node}" for node in terminals)])
        self.queue = EventQueue()
        self.channel = _WirelessChannel(config.wireless_air_ms)
        self.wireless = LatencyModel(
            config.wireless_base_ms, config.wireless_prop_ms_per_m, config.proc_ms_per_unit
        )
        self.backhaul = LatencyModel(
            config.backhaul_base_ms, config.backhaul_prop_ms_per_m, config.proc_ms_per_unit
        )
        self.records: list[NodeRecord] = place_nodes(
            config.n_terminals,
            config.n_fog,
            config.n_fnc,
            config.arena_diameter_m,
            self.rng,
        )
        # Where each node that never moves is; ``position`` reads every node.
        self.positions: dict[NodeId, Point2D] = {
            r.node: r.location for r in self.records if r.node.layer != Layer.TERMINAL}
        self._steps = 0  # mobility steps taken so far
        self.outcomes: list[RequestOutcome] = []
        self.audits: list[MigrationAudit] = []
        self.trace = () if trace is None else trace
        self._traced = trace is not None
        # Messages sent, per payload type; the bulk kinds are added to in place.
        self.sent: dict[type, int] = {ServiceRequest: 0, JobDispatch: 0, JobResult: 0}
        self._past_horizon = 0  # messages and job handlings due past the horizon, not queued
        self._tally = _Tally()
        self._outcome_by_id: dict[str, RequestOutcome] = {}
        # Each migrating flow's session, terminal and trigger latency; ``None``
        # until its terminal's complaint reaches the serving pile.
        self._active_migrations: dict[
            str, tuple[MigrationSourceSession, NodeId, float] | None] = {}
        # One reply window per open request, whichever node decides it.
        self._windows: dict[str, _ReplyWindow] = {}

        pile_records = [rec for rec in self.records if rec.node.layer == Layer.FOG]
        self.piles: dict[NodeId, FogNode] = {}
        for rec in pile_records:
            pile = PileState(
                rec.node, rec.location, queue_len=0,
                service_rate=config.service_rate_per_hour,
            )
            self.piles[rec.node] = FogNode(pile, capacity=config.capacity)
        # Each pile logs each load change as ``(clock, seq)`` of its event and
        # the load before, so an FNC job or a broadcast copy reads the load it met.
        self._load_log: dict[NodeId, list[tuple[SimTime, int, int]]] = {
            node: [] for node in self.piles}
        self.pile_index = PileIndex(pile_records)
        self.registries = {fnc_id(k): Registry() for k in range(config.n_fnc)}

        self.terminals = {rec.node: _Terminal(rec.node, rec.location)
                          for rec in self.records if rec.node.layer == Layer.TERMINAL}

        # CPython shares an instance's attribute keys only up to 30 names (a test
        # checks it), so state only coordination needs joins this one object.
        self._booking = None
        if config.architecture == "coordinated":
            at = self.positions
            self._booking = booking = _Booking(
                links={fnc: {rec.node: link_latency(self.backhaul, at[fnc], rec.location, 0.0)
                             for rec in pile_records} for fnc in self.registries},
                last_report={node: StatusReportMsg(self._status_of(host, 0.0))
                             for node, host in self.piles.items()})
            # Only coordination reads a registry; each starts with a report of every pile.
            for report in booking.last_report.values():
                for registry in self.registries.values():
                    report_status(registry, report.status)
            for term in self.terminals.values():
                nearest = self.pile_index.nearest(self.position(term.node))
                if nearest is None:
                    continue
                flow_id = f"flow-{term.node}"
                self.piles[nearest].create_flow(flow_id)
                term.serving_pile = nearest
                term.flow_id = flow_id

        self._routes = self._ROUTES[config.architecture]
        self._schedule_initial_events()
        self.events_left: int | None = None  # set by ``run``

    @property
    def messages_total(self) -> int:
        return sum(self.sent.values())

    # ------------------------------------------------------------- build
    def _aim(self, term: _Terminal, start: Point2D):
        """Draw ``term``'s next waypoint and the metres it walks towards it per step.

        The step length is the length of the velocity vector (the unit
        heading times the configured speed), which can differ from the
        configured speed in its last bit; the recorded outputs depend on
        that bit.  A waypoint equal to ``start`` stops the walker for good.
        """
        cfg = self.config
        if term.waypoints is None:
            term.waypoints = self.rng.child(f"waypoint/{term.node}")
        x, y = term.waypoints.disk_point(0.0, 0.0, cfg.arena_diameter_m / 2.0)
        term.waypoint = target = Point2D(x, y)
        dist = start.distance_to(target)
        if dist == 0.0:
            term.step_m = 0.0
            return
        speed = cfg.mobility_speed_mps
        velocity = math.hypot(speed * (target.x - start.x) / dist,
                              speed * (target.y - start.y) / dist)
        term.step_m = velocity * cfg.mobility_step_ms / 1000.0

    def _status_of(self, host: FogNode, at: SimTime) -> NodeStatus:
        return NodeStatus(
            host.node,
            host.pile.location,
            ResourceProfile(
                capacity=host.capacity,
                queue_len=host.pile.queue_len,
                service_rate=self.config.service_rate_per_hour / 3600.0,
            ),
            at,
        )

    def _schedule_initial_events(self):
        cfg = self.config
        for node in self.terminals:
            arrivals = self.rng.child(f"arrivals/{node}")
            if cfg.request_rate > 0:
                mean_gap, t = 60_000.0 / cfg.request_rate, 0.0
                for gap in arrivals.exponentials(mean_gap):
                    t += gap
                    if t >= cfg.sim_duration_ms:
                        break
                    self.queue.schedule(t, node, _RequestTick())
        self._repeat(_MobilityTick(cfg.mobility_step_ms))
        if cfg.architecture == "coordinated":
            self._repeat(_ReportTick(cfg.report_period_ms))
        self._repeat(_DrainTick(3_600_000.0 / cfg.service_rate_per_hour))

    def _repeat(self, tick):
        """Schedule ``tick`` one period from now if that is inside the run."""
        nxt = self.queue.clock + tick.period_ms
        if nxt <= self.config.sim_duration_ms:
            self.queue.schedule(nxt, None, tick)

    # ---------------------------------------------------------- plumbing
    def position(self, node: NodeId) -> Point2D:
        """Where ``node`` is now; a terminal first walks the mobility steps it is behind.

        A walker heads straight at its waypoint, and one that would reach or
        pass it lands on it exactly and aims at a fresh one, by the float
        operations of a step taken on its tick, in the same order.
        """
        fixed = self.positions.get(node)
        if fixed is not None:
            return fixed
        term = self.terminals[node]
        behind = self._steps - term.steps
        if behind:
            term.steps = self._steps
            if term.waypoint is None:
                self._aim(term, term.here)
            (x, y), (tx, ty), step_m = term.here, term.waypoint, term.step_m
            while behind and step_m != 0.0:
                behind -= 1
                remaining = math.hypot(x - tx, y - ty)
                if step_m < remaining:
                    frac = step_m / remaining
                    x, y = x + (tx - x) * frac, y + (ty - y) * frac
                else:
                    x, y = tx, ty
                    self._aim(term, term.waypoint)
                    (tx, ty), step_m = term.waypoint, term.step_m
            term.here = Point2D(x, y)
        return term.here

    def send_wireless(self, src: NodeId, dst: NodeId, payload, request_id=None) -> SimTime:
        """Send ``payload`` over the shared channel; returns its arrival at ``dst``.

        ``_broadcast`` and ``_reply_to_terminal`` do this arithmetic inline on
        the hot paths.  They take channel slots by ``acquire`` and add the same
        terms in the same order, and ``PileIndex.within``'s distance is
        ``hypot`` of the same coordinate differences up to sign, so the bits agree.
        """
        departure = self.channel.acquire(self.queue.clock)
        host = self.piles.get(dst)
        load = 0.0 if host is None else float(host.pile.queue_len)
        positions = self.positions  # piles and FNCs; only a terminal end is walked
        arrival = departure + self.channel.air_ms + link_latency(
            self.wireless, positions[src] if src in positions else self.position(src),
            positions[dst] if dst in positions else self.position(dst), load
        )
        self._deliver(arrival, "wireless", src, dst, payload, request_id, load)
        return arrival

    def send_wired(self, src: NodeId, dst: NodeId, payload, request_id=None) -> SimTime:
        """Send ``payload`` from a pile over the backhaul; returns its arrival at ``dst``.

        An FNC has no receiver load, so a link to one costs its ``_Booking.links``
        entry; a link between piles costs ``link_latency`` at the receiver's load.
        """
        host = self.piles.get(dst)
        if host is None:
            load = 0.0
            arrival = self.queue.clock + self._booking.links[dst][src]
        else:
            load = float(host.pile.queue_len)
            arrival = self.queue.clock + link_latency(
                self.backhaul, self.positions[src], self.positions[dst], load)
        self._deliver(arrival, "backhaul", src, dst, payload, request_id, load)
        return arrival

    def _deliver(self, arrival, medium, src, dst, payload, request_id, load):
        """Hand ``payload`` to ``dst`` once its receiver's service time has passed.

        A status report stamped before now is a repeat that its FNC holds,
        or will once an earlier copy arrives, so it changes nothing and is
        only counted.  Any other payload is queued.  The trace records the
        true arrival either way; held reply rows are ``run``'s to release.
        """
        kind = type(payload)
        if kind is StatusReportMsg and payload.status.reported_at < self.queue.clock:
            if arrival > self.horizon:
                self._past_horizon += 1
        elif kind is ServiceRequest and dst.layer == Layer.FNC:
            self.queue.schedule(arrival + self.config.fnc_service_ms, dst, payload)
        else:
            self.queue.schedule(arrival, dst, payload)
        self.sent[kind] = self.sent.get(kind, 0) + 1
        if request_id is not None:
            self._outcome_by_id[request_id].messages_used += 1
        if self._traced:
            distance = self.position(src).distance_to(self.position(dst))
            self.trace.append(
                SendTrace(self.queue.clock, arrival, medium, src, dst, distance, load,
                          kind.__name__, request_id)
            )

    # ------------------------------------------------------------ events
    def run(self) -> "Simulation":
        """Handle every event due by the horizon and check the run; later calls just return it.

        In a traced coordinated run each event first traces the held reply rows keyed
        before its ``(fire_at, seq)``; one held in an event keys after it, by a later seq.
        No coordinated event is stored by ``schedule_under``, so that pair orders them all.
        """
        if self.events_left is not None:
            return self
        self._tally.base_load = self._total_load()
        handle, holding = self._handle, self._traced and self._booking is not None
        if holding:
            held, append = self._booking.held, self.trace.append

            def handle(event, handle_event=handle):
                key = event.fire_at, event.seq  # a row held at the event's own key sorts after it
                while held and held[0] < key:
                    append(heapq.heappop(held)[2])
                handle_event(event)
        self.queue.run_until(self.horizon, handle)
        if holding:
            for *_, row in sorted(held):
                append(row)
        # Events still due past the horizon, queued or booked at send.  A queued
        # computation whose copy reached a full pile by the horizon is none: the
        # pile dropped the copy on arrival.
        dropped = sum(self._full_at_arrival(event.target, event.payload) for event in sorted(
            event for event in self.queue
            if type(event.payload) is _ComputeDone and event.payload.arrival <= self.horizon))
        self.events_left = len(self.queue) + self._past_horizon - dropped
        self._check_conservation()
        return self

    def _handle(self, event):
        route = self._routes.get(type(event.payload))
        if route is None:
            raise TypeError(f"unhandled payload {type(event.payload).__name__}")
        route(self, event.target, event.payload)

    # ------------------------------------------------------ periodic work
    def _step_terminals(self, _, tick: _MobilityTick):
        """Every terminal takes one step, walked when its position is next read."""
        self._steps += 1
        self._repeat(tick)

    def _report_piles(self, _, tick: _ReportTick):
        """Each pile reports to every FNC; an unchanged load re-sends its last report."""
        last = self._booking.last_report
        for node, host in self.piles.items():
            report = last[node]
            if host.pile.queue_len != report.status.resources.queue_len:
                report = last[node] = StatusReportMsg(self._status_of(host, self.queue.clock))
            for fnc_node in self.registries:
                self.send_wired(node, fnc_node, report)
        self._repeat(tick)

    def _drain_piles(self, _, tick: _DrainTick):
        for host in self.piles.values():
            if host.pile.queue_len > 0:
                self._log_load(host.pile)
                host.pile.queue_len -= 1
                self._tally.drained += 1
        self._repeat(tick)

    def _log_load(self, pile: PileState):
        """Log ``pile``'s load before the event being handled changes it, in its own log.

        In a coordinated run only the jobs of open windows read a log, none
        from before the oldest one's dispatch, so the pile's older entries go
        here.  In a traditional run a pile's computations read its log in
        arrival order, and each drops the entries before its arrival.
        """
        changes, queue = self._load_log[pile.node], self.queue
        if self._booking is not None:
            oldest = next(iter(self._windows.values())).opened_at if self._windows else queue.clock
            del changes[:bisect.bisect_left(changes, (oldest,))]
        changes.append((queue.clock, queue.seq, pile.queue_len))

    # --------------------------------------------------------- requesting
    def _issue_request(self, node: NodeId, tick: _RequestTick):
        cfg = self.config
        term = self.terminals[node]
        seq = term.requests_issued
        term.requests_issued += 1
        request = ServiceRequest(
            request_id=f"{node}/r{seq}",
            requester=node,
            origin=self.position(node),
            kind="charging-query",
            query_range_m=cfg.query_range_m,
            issued_at=self.queue.clock,
        )
        outcome = RequestOutcome(request.request_id, node, self.queue.clock)
        self.outcomes.append(outcome)
        self._outcome_by_id[request.request_id] = outcome
        if cfg.architecture == "coordinated":
            fnc_node = fnc_id(sector_index(request.origin, cfg.n_fnc))  # of its sector
            self.send_wireless(node, fnc_node, request, request.request_id)
        else:
            window = _ReplyWindow(self.queue.clock + cfg.aggregation_timeout_ms)
            self._windows[request.request_id] = window
            self._broadcast(request)
            self.queue.schedule(window.deadline, node, _Deadline(request.request_id))

    def _broadcast(self, request: ServiceRequest):
        """Send ``request`` from its terminal to every pile in range, as ``send_wireless`` would.

        ``request.origin`` is where the terminal is now.  The piles take
        channel slots one after another, nearest first, and each arrival
        adds ``link_latency``'s terms in its order, with the distance that
        ``PileIndex.within`` gives.  Sends are counted once for the request.

        No event marks a copy's arrival: it takes the sequence number its event
        would have, from one block in hit order, and the pile's computation is
        queued ``compute_ms`` later under that key, where the arrival would have queued it.
        """
        queue, channel, piles, model = self.queue, self.channel, self.piles, self.wireless
        node, request_id = request.requester, request.request_id
        hits = self.pile_index.within(request.origin, request.query_range_m)
        clock, air, acquire = queue.clock, channel.air_ms, channel.acquire
        base, per_m, proc = model.base_ms, model.prop_ms_per_m, model.proc_ms_per_unit
        schedule_under, traced = queue.schedule_under, self._traced
        compute_ms = self.config.compute_ms
        for seq, (distance, pile) in enumerate(hits, queue.reserve(len(hits))):
            load = float(piles[pile].pile.queue_len)
            arrival = acquire(clock) + air + ((base + per_m * distance) + proc * load)
            schedule_under(arrival + compute_ms, arrival, seq, pile,
                           _new_compute_done((request, arrival, seq)))
            if traced:
                self.trace.append(SendTrace(clock, arrival, "wireless", node, pile, distance,
                                            load, "ServiceRequest", request_id))
        self.sent[ServiceRequest] += len(hits)
        self._outcome_by_id[request_id].messages_used += len(hits)

    # ------------------------------------------------------- coordinated
    def _fnc_process(self, fnc_node: NodeId, request: ServiceRequest):
        """Dispatch one job per candidate and book when each is handled, with no event.

        One loop over the range hits of the run's one ``pile_index``, nearest
        first, dispatches to each pile that the FNC's registry reports with
        headroom, as ``filter_candidates`` would.  A job arrives after its
        ``_Booking.links`` cost plus its pile's load term.
        Its pile handles it ``compute_ms`` later and replies at once, at the
        link's cost, as the FNC has no receiver load.  Both are counted and
        traced at dispatch, the reply's row held until the event loop
        reaches the job's handling, whose sequence number the job takes.  When
        every reply is in time, one event at the last job's handling schedules
        the decision for the latest arrival.  Otherwise the deadline decides,
        and a reply due at or after it misses the window, as the deadline
        event, queued before any reply was sent, fires first on a tie.  A job
        handled past the horizon sends no reply; it, a reply and an unqueued
        deadline due past the horizon count in ``events_left``.
        """
        cfg, queue, horizon, piles = self.config, self.queue, self.horizon, self.piles
        clock, request_id = queue.clock, request.request_id
        hits = self.pile_index.within(request.origin, request.query_range_m)
        statuses = self.registries[fnc_node].statuses
        deadline, compute_ms = clock + cfg.aggregation_timeout_ms, cfg.compute_ms
        # One block of sequence numbers in hit order; a full pile's goes unused.
        first, proc = queue.reserve(len(hits)), self.backhaul.proc_ms_per_unit
        positions, traced = self.positions, self._traced
        costs, here = self._booking.links[fnc_node], positions[fnc_node]
        booked, full, unhandled, past, latest = [], 0, 0, 0, -math.inf
        for seq, (_, node) in enumerate(hits, first):
            if (reported := statuses[node].resources).queue_len >= reported.capacity:
                full += 1
                continue
            fixed = costs[node]
            pile = piles[node].pile
            load = pile.queue_len
            arrival = clock + (fixed + proc * load)
            handled_at = arrival + compute_ms
            if traced:
                distance = here.distance_to(positions[node])
                self.trace.append(SendTrace(clock, arrival, "backhaul", fnc_node, node, distance,
                                            float(load), "JobDispatch", request_id))
            if handled_at > horizon:
                unhandled += 1
                continue
            reply = handled_at + fixed  # the reply pays the pair's load-free cost
            if reply > horizon:
                past += 1
            if reply < deadline:
                booked.append((handled_at, seq, pile))
                if reply > latest:
                    latest = reply
            if traced:
                heapq.heappush(self._booking.held, (handled_at, seq, SendTrace(
                    handled_at, reply, "backhaul", node, fnc_node, distance, 0.0,
                    "JobResult", request_id)))
        if not (jobs := len(hits) - full):
            self.send_wireless(fnc_node, request.requester, FailureNotice(
                request_id, "no-eligible-nodes"), request_id)
            return
        self._windows[request_id] = _FanOutWindow(request, deadline, clock, booked)
        replies, sent = jobs - unhandled, self.sent
        sent[JobDispatch] += jobs
        sent[JobResult] += replies
        self._outcome_by_id[request_id].messages_used += jobs + replies
        if len(booked) == jobs:  # every reply in time
            last_handled, last_seq, _ = max(booked)
            queue.schedule_reserved(last_handled, last_seq, fnc_node,
                                    _JobsHandled(request_id, latest))
            past += deadline > horizon
        else:
            queue.schedule(deadline, fnc_node, _Deadline(request_id))
        self._past_horizon += unhandled + past

    def _jobs_handled(self, fnc_node: NodeId, done: _JobsHandled):
        """The last job is handled: decide at the latest reply's arrival."""
        self.queue.schedule(done.last_arrival, fnc_node, _Deadline(done.request_id))

    def _agg_timeout(self, fnc_node: NodeId, deadline: _Deadline):
        """Decide for the booked job of lowest ``(score, pile)``, as ``aggregate`` would.

        A job is scored at its pile's load when the pile handled it: the load
        before the first change in the pile's log after the job's
        ``(handled_at, seq)``, found by one bisection, else its load now.
        Sequence numbers are integers, so that change is the first entry at
        or after ``(handled_at, seq + 1)``.

        The jobs are booked nearest first, and a score is ``w_dist`` times the
        distance (the bits ``PileIndex.within`` sorted by) plus a term that is
        never negative.  Rounding is monotone, so once ``w_dist`` times a
        job's distance is above the best score, every later score is too,
        and the loop stops there: later jobs can neither win nor tie.  It
        stops only if the largest score a skipped job could have, at the
        farthest distance and a load of 2**63, which no queue reaches, is
        finite; otherwise every job is scored, so a non-finite score raises
        as it would unskipped.
        """
        window = self._windows.pop(deadline.request_id)
        request, jobs, changes = window.request, window.jobs, self._load_log
        cfg, origin = self.config, request.origin
        weights, best, chosen = cfg.weights, math.inf, None
        w_dist, w_wait = weights
        bounded = bool(jobs) and math.isfinite(  # every pile serves at the configured rate
            w_dist * math.dist(jobs[-1][2].location, origin)
            + w_wait * (2**63 / cfg.service_rate_per_hour))
        for handled_at, seq, pile in jobs:
            if bounded and w_dist * math.dist(pile.location, origin) > best:
                break
            logged = changes[pile.node]
            after = bisect.bisect_left(logged, (handled_at, seq + 1))
            load = logged[after][2] if after < len(logged) else pile.queue_len
            score = offer_score(request, pile, load, weights)
            if score < best or score == best and pile.node < chosen:
                best, chosen = score, pile.node
        self._tally.aggregated += len(jobs)
        reply = (Decision(request.request_id, chosen, self.queue.clock) if jobs
                 else FailureNotice(request.request_id, "aggregation-timeout"))
        self.send_wireless(fnc_node, request.requester, reply, request.request_id)

    def _decision_at_terminal(self, node: NodeId, decision: Decision):
        self._complete(node, decision, self.queue.clock)

    def _failure_at_terminal(self, node: NodeId, notice: FailureNotice):
        outcome = self._outcome_by_id[notice.request_id]
        outcome.failure = notice.reason

    def _report_at_fnc(self, fnc_node: NodeId, msg: StatusReportMsg):
        report_status(self.registries[fnc_node], msg.status)

    # ------------------------------------------------------- traditional
    def _full_at_arrival(self, pile_node: NodeId, done: _ComputeDone) -> bool:
        """Whether ``pile_node`` was full when ``done``'s copy reached it.

        Its load then is the load before the first change in its log after the
        copy's ``(arrival, seq)``, found by one bisection, else its load now.
        A pile reads its log in arrival order, so the entries before go.
        """
        host, changes = self.piles[pile_node], self._load_log[pile_node]
        load = host.pile.queue_len
        if changes:  # most loads have not changed since the last read
            after = bisect.bisect_left(changes, (done.arrival, done.seq + 1))
            if after < len(changes):
                load = changes[after][2]
            del changes[:after]
        return load >= host.capacity

    def _reply_to_terminal(self, pile_node: NodeId, done: _ComputeDone):
        """Score the request and offer the reply to its terminal's window as it is sent.

        A pile full when the copy arrived drops it.  The reply's arrival is
        ``send_wireless``'s, fixed at send, as a terminal has no receiver
        load.  One due at or after the deadline misses the window, as the
        deadline event, queued before any reply was sent, fires first on a
        tie; it is still scored, so a non-finite score fails the run.  The
        window keeps the lowest ``(score, pile)``: every pile is in the fog
        layer and replies once, so this is ``aggregate``'s minimum in any
        reply order.  A reply due past the horizon counts in ``events_left``.
        """
        if self._full_at_arrival(pile_node, done):
            return
        request, pile = done.request, self.piles[pile_node].pile
        score = offer_score(request, pile, pile.queue_len, self.config.weights)
        requester, request_id = request.requester, request.request_id
        here, there, clock = pile.location, self.position(requester), self.queue.clock
        arrival = (self.channel.acquire(clock) + self.channel.air_ms
                   + link_latency(self.wireless, here, there, 0.0))
        if arrival > self.horizon:
            self._past_horizon += 1
        window = self._windows.get(request_id)
        if window is not None and arrival < window.deadline:
            if score < window.best or score == window.best and pile_node < window.chosen:
                window.best, window.chosen = score, pile_node
            if window.last_arrival is None or arrival > window.last_arrival:
                window.last_arrival = arrival
        self.sent[JobResult] += 1
        self._outcome_by_id[request_id].messages_used += 1
        if self._traced:
            self.trace.append(SendTrace(clock, arrival, "wireless", pile_node, requester,
                                        here.distance_to(there), 0.0, "JobResult", request_id))

    def _window_close(self, node: NodeId, deadline: _Deadline):
        """Decide for the window's best reply, at the latest reply's arrival."""
        request_id = deadline.request_id
        window = self._windows.pop(request_id)
        if window.chosen is None:
            self._outcome_by_id[request_id].failure = "request-timed-out"
        else:
            self._complete(node, Decision(request_id, window.chosen, window.last_arrival),
                           window.last_arrival)

    # --------------------------------------------------------- migration
    def _complete(self, node: NodeId, decision: Decision, at: SimTime):
        """Record ``decision`` as reaching ``node`` at ``at``; complain if it is slow.

        Only a terminal with a flow, which a traditional one never has,
        tracks its latency and may ask its serving pile to migrate; the
        flow then counts as migrating until the verdict.
        """
        outcome = self._outcome_by_id[decision.request_id]
        outcome.decided_at = at
        outcome.latency_ms = at - outcome.issued_at
        outcome.chosen = decision.chosen
        pile = self.piles[decision.chosen].pile
        self._log_load(pile)
        pile.queue_len += 1
        cfg = self.config
        term = self.terminals[node]
        if term.flow_id is None:
            return
        alpha = cfg.ewma_alpha
        term.ewma_ms = (
            outcome.latency_ms
            if term.ewma_ms is None
            else alpha * outcome.latency_ms + (1 - alpha) * term.ewma_ms
        )
        if term.ewma_ms > cfg.t_upper_ms and term.flow_id not in self._active_migrations:
            self._active_migrations[term.flow_id] = None
            complaint = LatencyComplaint(term.flow_id, node, self.position(node), term.ewma_ms)
            self.send_wireless(node, term.serving_pile, complaint)

    def _candidate_group(self, source: NodeId, origin: Point2D) -> tuple[NodeId, ...]:
        """Piles other than ``source`` with headroom, by predicted latency to ``origin``."""
        base, per_m = self.wireless.base_ms, self.wireless.prop_ms_per_m
        scored = sorted([
            (base + per_m * math.dist(origin, status.location), node)  # link_latency, no load
            for node, status in self.registries[fnc_id(0)].statuses.items()
            if node != source and (load := status.resources).queue_len < load.capacity])
        return tuple(node for _, node in scored)

    def _complaint_at_pile(self, pile_node: NodeId, complaint: LatencyComplaint):
        host = self.piles[pile_node]
        cfg = self.config
        policy = MigrationPolicy(
            t_upper=cfg.t_upper_ms,
            candidates=self._candidate_group(pile_node, complaint.origin),
            max_attempts=cfg.max_migration_attempts or None,
        )
        session = MigrationSourceSession(host, complaint.flow_id, policy)
        self._active_migrations[complaint.flow_id] = (
            session, complaint.terminal, complaint.observed_latency_ms
        )
        self._run_migration_step(complaint.flow_id, session.begin(complaint.observed_latency_ms))

    def _run_migration_step(self, flow_id: str, step):
        session, terminal, trigger = self._active_migrations[flow_id]
        source = session.host.node
        if step.kind == "send-start":
            self.send_wired(source, step.target, StartMigration(flow_id, source))
        elif step.kind == "send-state":
            self.send_wired(source, step.target, ObjectStateMsg(step.state))
        elif step.kind in ("done", "failed", "not-needed"):
            outcome = step.outcome
            self.audits.append(
                MigrationAudit(
                    flow_id=flow_id,
                    source=source,
                    target=outcome.target,
                    attempts=outcome.attempts,
                    outcome=outcome.kind,
                    trigger_latency_ms=trigger,
                    t_upper_ms=self.config.t_upper_ms,
                    warned=outcome.warned,
                )
            )
            if outcome.kind == "migrated":
                term = self.terminals[terminal]
                term.serving_pile = outcome.target
                term.ewma_ms = None
            del self._active_migrations[flow_id]

    def _start_migration_at_target(self, target: NodeId, msg: StartMigration):
        accept = self.piles[target].accept_migration(msg.flow_id)
        self.send_wired(target, msg.source, MigrationResponse(msg.flow_id, target, accept))

    def _migration_response_at_source(self, source: NodeId, msg: MigrationResponse):
        session = self._active_migrations[msg.flow_id][0]
        self._run_migration_step(msg.flow_id, session.on_response(msg.accept))

    def _object_state_at_target(self, target: NodeId, msg: ObjectStateMsg):
        host = self.piles[target]
        try:
            on_migration_end(host, msg.state)
            ack = MigrationAck(msg.flow_id, target)
        except CapacityExceeded:
            ack = MigrationAck(msg.flow_id, target, bounced_state=msg.state)
        self.send_wired(target, msg.state.origin, ack)

    def _migration_ack_at_source(self, source: NodeId, msg: MigrationAck):
        session = self._active_migrations[msg.flow_id][0]
        self._run_migration_step(msg.flow_id, session.on_ack(msg.bounced_state))

    # Per architecture, the handler of each payload type at its event's target.
    _ROUTES = {
        "traditional": {
            _RequestTick: _issue_request,
            _MobilityTick: _step_terminals,
            _DrainTick: _drain_piles,
            _ComputeDone: _reply_to_terminal,
            _Deadline: _window_close,
        },
        "coordinated": {
            _RequestTick: _issue_request,
            _MobilityTick: _step_terminals,
            _ReportTick: _report_piles,
            _DrainTick: _drain_piles,
            ServiceRequest: _fnc_process,
            _JobsHandled: _jobs_handled,
            _Deadline: _agg_timeout,
            Decision: _decision_at_terminal,
            FailureNotice: _failure_at_terminal,
            StatusReportMsg: _report_at_fnc,
            LatencyComplaint: _complaint_at_pile,
            StartMigration: _start_migration_at_target,
            MigrationResponse: _migration_response_at_source,
            ObjectStateMsg: _object_state_at_target,
            MigrationAck: _migration_ack_at_source,
        },
    }

    # ------------------------------------------------------------ results
    def _total_load(self) -> int:
        return sum(host.pile.queue_len for host in self.piles.values())

    def _check_conservation(self):
        """Raise InvariantViolation on the first conservation law the run breaks.

        A request or flow with a message still due past the horizon may be
        caught mid-way; every other one must have come to rest.  A broadcast
        window closes by the horizon, so a queued computation names no request.
        """
        due = set()
        for event in self.queue:
            due.add(getattr(event.payload, "request_id", None))
            due.add(getattr(event.payload, "flow_id", None))

        def broken(law, detail):
            raise InvariantViolation(f"{law}: {detail}")

        tally = self._tally
        used = decided = 0
        for o in self.outcomes:
            used += o.messages_used
            if o.decided_at is not None:
                decided += 1
                if o.failure is not None:
                    broken("outcomes", f"{o.request_id} decided and failed ({o.failure})")
            elif o.failure is None and o.request_id not in due:
                broken("outcomes", f"{o.request_id} undecided, with no failure and "
                                   "nothing due past the horizon")

        unattributed = sum(n for kind, n in self.sent.items() if kind in _UNATTRIBUTED)
        if self.messages_total != used + unattributed:
            broken("messages", f"{self.messages_total} sent != {used} used by requests "
                               f"+ {unattributed} status reports and migration messages")
        if tally.aggregated > self.sent[JobResult]:
            broken("messages", f"FNC decisions read {tally.aggregated} replies, "
                               f"but piles sent {self.sent[JobResult]}")

        for request_id, window in self._windows.items():
            if window.deadline <= self.horizon:
                broken("windows", f"{request_id} open past its deadline {window.deadline} "
                                  f"<= horizon {self.horizon}")

        resident: dict[str, list[NodeId]] = {}
        for node, host in self.piles.items():
            for flow_id in host.flows:
                resident.setdefault(flow_id, []).append(node)
            for flow_id in host._reservations:
                if flow_id not in due:
                    broken("flows", f"{node} still holds a reservation for {flow_id}")
        for term in self.terminals.values():
            flow_id = term.flow_id
            if flow_id is None or flow_id in due:
                continue
            if resident.get(flow_id) != [term.serving_pile]:
                where = ", ".join(map(str, resident.get(flow_id, ())))
                broken("flows", f"{flow_id} resident at [{where}], served by {term.serving_pile}")
            if flow_id in self._active_migrations:
                broken("flows", f"{flow_id} migrating with nothing due past the horizon")

        expected = tally.base_load + decided - tally.drained
        if self._total_load() != expected:
            broken("pile load", f"queues hold {self._total_load()}, but {tally.base_load} "
                                f"at the start + {decided} decisions - {tally.drained} "
                                f"drains = {expected}")

    def summary_row(self, run_id: str = "", swept_variable: str = "",
                    swept_value: float | None = None) -> MetricsRow:
        latencies = [o.latency_ms for o in self.outcomes if o.completed]
        completed = len(latencies)
        issued = len(self.outcomes)
        migrations = sum(1 for a in self.audits if a.outcome == "migrated")
        return MetricsRow(
            run_id=run_id or f"single-{self.config.seed}-{self.config.architecture}",
            architecture=self.config.architecture,
            swept_variable=swept_variable,
            swept_value=swept_value,
            seed=self.config.seed,
            # A left fold, as 3.11's sum() is: 3.12's sum() compensates, moving the bits.
            mean_latency_ms=(reduce(operator.add, latencies, 0.0) / completed
                             if completed else None),
            p95_latency_ms=percentile_nearest_rank(latencies, 95.0) if completed else None,
            completed=completed,
            timed_out=issued - completed,
            messages_total=self.messages_total,
            migrations=migrations,
        )


def run_scenario(config: ScenarioConfig) -> Simulation:
    return Simulation(config).run()
