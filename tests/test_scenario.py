"""End-to-end behaviour of assembled scenario runs."""

import bisect
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from gridfog import engine, scenario
from gridfog.engine import LatencyModel, link_latency
from gridfog.errors import InvariantViolation
from gridfog.fognode import FlowInstance, evaluate_charging_request
from gridfog.harness import SweepSpec, emit_plot_data, run_sweep
from gridfog.messages import (
    JobDispatch, JobResult, LatencyComplaint, ServiceRequest, StatusReportMsg)
from gridfog.metrics import MetricsRow, MetricsTable
from gridfog.scenario import ScenarioConfig, Simulation, run_scenario
from gridfog.topology import PileIndex, Point2D, Registry, fog_id


def small_config(**overrides):
    base = dict(seed=7, sim_duration_ms=20_000.0, request_rate=2.0)
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.mark.parametrize("field, value", [
    ("n_fog", 2.5), ("n_terminals", 3.0), ("seed", 1.5),  # each broke mid-run
    ("capacity", 1.5), ("max_migration_attempts", 1.5), ("n_fnc", True),  # each ran
])
def test_an_integer_field_takes_only_an_integer(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
        ScenarioConfig(**{field: value})


def run_noting_origins(config, **kwargs):
    """Run ``config``; also return each request's origin, as the run sent it.

    A coordinated run queues each request it sends to its FNC, and a
    traditional one queues each copy's computation at a pile in range with the
    request in it, so the origin is noted where the queue takes either.
    """
    sim = Simulation(config, **kwargs)
    origins = {}
    schedule, schedule_under = sim.queue.schedule, sim.queue.schedule_under

    def note(payload):
        request = payload.request if isinstance(payload, scenario._ComputeDone) else payload
        if isinstance(request, ServiceRequest):
            origins[request.request_id] = request.origin

    def spy(fire_at, target, payload):
        note(payload)
        return schedule(fire_at, target, payload)

    def spy_under(fire_at, parent_at, parent_seq, target, payload):
        note(payload)
        return schedule_under(fire_at, parent_at, parent_seq, target, payload)

    sim.queue.schedule, sim.queue.schedule_under = spy, spy_under
    return sim.run(), origins


# ---------------------------------------------------------------- mobility

def reference_walk(start, waypoints, speed, dt):
    """Yield a walker's position after each step, by the random-waypoint arithmetic.

    The walker heads for its waypoint with velocity ``speed`` times the unit
    vector towards it, covers ``|velocity| * dt`` per step, lands exactly on
    the waypoint when that reaches or passes it, and then aims at the next
    draw of ``waypoints``.  A zero velocity never changes again.
    """
    def heading(frm, to):
        dist = frm.distance_to(to)
        if dist == 0.0:
            return (0.0, 0.0)
        return (speed * (to.x - frm.x) / dist, speed * (to.y - frm.y) / dist)

    position, waypoint = start, waypoints()
    velocity = heading(position, waypoint)
    while True:
        v = math.hypot(*velocity)
        if v != 0.0:
            step_len = v * dt / 1000.0
            remaining = position.distance_to(waypoint)
            if step_len < remaining:
                frac = step_len / remaining
                position = Point2D(position.x + (waypoint.x - position.x) * frac,
                                   position.y + (waypoint.y - position.y) * frac)
            else:
                position, waypoint = waypoint, waypoints()
                velocity = heading(position, waypoint)
        yield position


def each_step(sim):
    """Run ``sim`` one mobility step at a time; yield the step count after each."""
    step_ms = sim.config.mobility_step_ms
    for k in range(1, int(sim.config.sim_duration_ms // step_ms) + 1):
        sim.queue.run_until(k * step_ms, sim._handle)
        yield k


def positions_each_step(sim):
    """Run ``sim`` one mobility step at a time; yield every terminal's position after each."""
    for _ in each_step(sim):
        yield {node: sim.position(node) for node in sim.terminals}


def waypoint_draws(sim, node, draws):
    """Draw ``node``'s waypoints as its own stream does, counting each in ``draws``."""
    stream = sim.rng.child(f"waypoint/{node}")

    def draw():
        draws[node] += 1
        return Point2D(*stream.disk_point(0.0, 0.0, sim.config.arena_diameter_m / 2.0))
    return draw


class FixedDraws:
    """Stands in for a terminal's waypoint stream, handing out given points."""

    def __init__(self, *points):
        self.points = list(points)

    def disk_point(self, cx, cy, radius):
        point = self.points.pop(0)
        return point.x, point.y


def one_walker(start, *waypoints, speed=10.0):
    """A run whose only terminal starts at ``start`` and draws ``waypoints``."""
    sim = Simulation(ScenarioConfig(
        architecture="traditional", n_terminals=1, n_fog=1, n_fnc=0,
        request_rate=0.0, mobility_speed_mps=speed, mobility_step_ms=1000.0,
        sim_duration_ms=5000.0))
    (node, term), = sim.terminals.items()
    term.here = start
    term.waypoints = FixedDraws(*waypoints)
    sim._aim(term, start)
    return sim, node, term


def test_positions_follow_the_reference_walk():
    # A 200 m arena makes every walker land on and re-aim at many waypoints.
    sim = Simulation(small_config(arena_diameter_m=200.0, n_terminals=12,
                                  sim_duration_ms=60_000.0))
    cfg = sim.config
    walks, draws = {}, Counter()
    for node in sim.terminals:
        walks[node] = reference_walk(sim.position(node), waypoint_draws(sim, node, draws),
                                     cfg.mobility_speed_mps, cfg.mobility_step_ms)
    for positions in positions_each_step(sim):
        for node, walk in walks.items():
            assert positions[node] == next(walk)
    assert min(draws.values()) > 5  # every walker landed and re-aimed


def test_a_terminal_walks_only_when_its_position_is_read():
    # Eight terminals are read at a few random steps each, long walks apart;
    # four are never read.  No position table holds a terminal.
    sim = Simulation(small_config(arena_diameter_m=200.0, n_terminals=12, request_rate=0.0,
                                  sim_duration_ms=60_000.0))
    cfg = sim.config
    nodes = list(sim.terminals)
    read, unread = nodes[:8], nodes[8:]
    steps = int(cfg.sim_duration_ms // cfg.mobility_step_ms)
    pick = random.Random(5)
    read_at = {node: set(pick.sample(range(1, steps + 1), 1 + i)) for i, node in enumerate(read)}
    walks, draws = {}, Counter()
    for node in read:
        walks[node] = reference_walk(sim.position(node), waypoint_draws(sim, node, draws),
                                     cfg.mobility_speed_mps, cfg.mobility_step_ms)
    reads = 0
    for k in each_step(sim):
        for node, walk in walks.items():
            expected = next(walk)
            if k in read_at[node]:
                assert sim.position(node) == expected
                reads += 1
    assert reads == sum(map(len, read_at.values()))
    assert min(draws.values()) > 5  # every read walker landed and re-aimed
    placed = {r.node: r.location for r in sim.records}
    for node in unread:
        term = sim.terminals[node]
        assert (term.waypoints, term.waypoint, term.here) == (None, None, placed[node])
    assert not set(nodes) & set(sim.positions)


def test_mobility_zero_velocity_is_stationary():
    sim = Simulation(small_config(mobility_speed_mps=0.0))
    start = {node: sim.position(node) for node in sim.terminals}
    sim.run()
    assert sim.outcomes
    assert {node: sim.position(node) for node in sim.terminals} == start


def test_mobility_aimed_at_its_own_position_never_moves_again():
    sim, node, term = one_walker(Point2D(3.0, 4.0), Point2D(3.0, 4.0))
    assert term.step_m == 0.0
    for positions in positions_each_step(sim):  # a further draw would raise
        assert positions[node] == Point2D(3.0, 4.0)


def test_mobility_advances_by_speed_times_dt():
    sim, node, term = one_walker(Point2D(0.0, 0.0), Point2D(100.0, 0.0))
    assert term.step_m == 10.0
    for k, positions in enumerate(positions_each_step(sim), start=1):
        assert positions[node].x == pytest.approx(10.0 * k)
        assert positions[node].y == 0.0


def test_mobility_redraws_and_reaims_on_arrival():
    sim, node, term = one_walker(Point2D(0.0, 0.0), Point2D(5.0, 0.0),
                                 Point2D(5.0, 80.0), speed=15.0)
    steps = positions_each_step(sim)
    assert next(steps)[node] == Point2D(5.0, 0.0)
    assert term.waypoint == Point2D(5.0, 80.0)
    assert term.step_m == pytest.approx(15.0)
    after = next(steps)[node]
    assert after.x == 5.0
    assert after.y == pytest.approx(15.0)


def test_mobility_stays_inside_the_arena():
    sim = Simulation(small_config(n_terminals=40, sim_duration_ms=300_000.0,
                                  request_rate=0.0))
    radius = sim.config.arena_diameter_m / 2.0
    for positions in positions_each_step(sim):
        for node in sim.terminals:
            assert math.hypot(positions[node].x, positions[node].y) <= radius + 1e-6


# --------------------------------------------------------- frozen scenarios

def test_lone_pile_traditional_takes_two_messages_per_request():
    sim = run_scenario(small_config(
        architecture="traditional", n_fog=1, query_range_m=2800.0))
    assert sim.outcomes
    for outcome in sim.outcomes:
        assert outcome.completed
        assert outcome.messages_used == 2


def test_lone_pile_coordinated_takes_four_messages_per_request():
    sim = run_scenario(small_config(
        architecture="coordinated", n_fog=1, n_fnc=1, query_range_m=2800.0))
    assert sim.outcomes
    for outcome in sim.outcomes:
        assert outcome.completed
        assert outcome.messages_used == 4


def test_no_pile_in_range_leaves_requests_unserved():
    # With no pile at all, no coordinated terminal gets a flow either.
    for no_pile in (dict(query_range_m=1.0), dict(n_fog=0)):
        trad = run_scenario(small_config(architecture="traditional", **no_pile))
        assert trad.outcomes
        assert all(not o.completed for o in trad.outcomes)
        assert all(o.failure == "request-timed-out" for o in trad.outcomes)
        trad._check_conservation()

        coord = run_scenario(small_config(architecture="coordinated", **no_pile))
        assert coord.outcomes
        assert all(not o.completed for o in coord.outcomes)
        assert all(o.failure == "no-eligible-nodes" for o in coord.outcomes)
        coord._check_conservation()


def test_chosen_pile_is_the_distance_argmin_when_wait_weight_is_zero():
    for arch in ("traditional", "coordinated"):
        sim, origins = run_noting_origins(small_config(
            architecture=arch, query_range_m=2800.0, w_wait=0.0))
        assert any(o.completed for o in sim.outcomes)
        for outcome in sim.outcomes:
            if not outcome.completed:
                continue
            origin = origins[outcome.request_id]
            best = min(
                sim.piles,
                key=lambda n: (origin.distance_to(sim.positions[n]),
                               n.ordinal, n),
            )
            assert outcome.chosen == best


def test_both_architectures_agree_when_distance_decides():
    cfg = small_config(query_range_m=1200.0, w_wait=0.0)
    trad = run_scenario(ScenarioConfig(**{**cfg.__dict__,
                                          "architecture": "traditional"}))
    coord = run_scenario(ScenarioConfig(**{**cfg.__dict__,
                                           "architecture": "coordinated"}))
    trad_chosen = {o.request_id: o.chosen for o in trad.outcomes if o.completed}
    coord_chosen = {o.request_id: o.chosen for o in coord.outcomes if o.completed}
    shared = set(trad_chosen) & set(coord_chosen)
    assert shared
    for rid in shared:
        assert trad_chosen[rid] == coord_chosen[rid]


def test_more_coordinators_sit_closer_to_the_terminals():
    def mean_uplink(n_fnc):
        sim = Simulation(small_config(architecture="coordinated",
                                      n_fnc=n_fnc), trace=[]).run()
        dists = [t.distance_m for t in sim.trace
                 if t.medium == "wireless" and t.kind == "ServiceRequest"]
        return sum(dists) / len(dists)

    assert mean_uplink(4) < mean_uplink(1)


# ------------------------------------------------------------ trace checks

def test_wired_arrivals_match_the_link_model():
    sim = Simulation(small_config(architecture="coordinated"), trace=[]).run()
    model = LatencyModel(sim.config.backhaul_base_ms,
                         sim.config.backhaul_prop_ms_per_m,
                         sim.config.proc_ms_per_unit)
    wired = [t for t in sim.trace if t.medium == "backhaul"]
    assert wired
    for t in wired:
        src = sim.positions[t.src]
        dst = sim.positions[t.dst]
        expected = link_latency(model, src, dst, t.receiver_load)
        assert t.arrives_at - t.sent_at == pytest.approx(expected, abs=1e-9)


def test_wired_arrivals_are_exactly_the_link_model():
    # A 1 ms latency target makes every served terminal complain, so piles
    # also send each other migration messages over the backhaul.  A load
    # cost of 0.7 ms per job makes a sum taken in another order round apart.
    sim = Simulation(small_config(architecture="coordinated", t_upper_ms=1.0,
                                  proc_ms_per_unit=0.7), trace=[]).run()
    model = LatencyModel(sim.config.backhaul_base_ms,
                         sim.config.backhaul_prop_ms_per_m,
                         sim.config.proc_ms_per_unit)
    wired = [t for t in sim.trace if t.medium == "backhaul"]
    assert {"JobDispatch", "JobResult", "StatusReportMsg", "StartMigration",
            "MigrationResponse", "ObjectStateMsg", "MigrationAck"} <= {t.kind for t in wired}
    assert any(t.receiver_load > 0 for t in wired)
    for t in wired:
        expected = link_latency(model, sim.positions[t.src], sim.positions[t.dst],
                                t.receiver_load)
        assert t.arrives_at == t.sent_at + expected, t


def test_each_wired_send_arrives_after_the_link_model_to_the_bit():
    # Reports go pile to FNC on the set-up table's cost; migrations go pile
    # to pile on ``link_latency`` at the receiving pile's load.
    sim = Simulation(small_config(architecture="coordinated", t_upper_ms=1.0,
                                  proc_ms_per_unit=0.7))
    model, positions, send = sim.backhaul, sim.positions, sim.send_wired
    sends = Counter()

    def spy(src, dst, payload, request_id=None):
        host = sim.piles.get(dst)
        load = 0.0 if host is None else float(host.pile.queue_len)
        expected = sim.queue.clock + link_latency(model, positions[src], positions[dst], load)
        arrival = send(src, dst, payload, request_id)
        assert arrival == expected, (src, dst, payload)
        sends[src.layer, dst.layer] += 1
        return arrival

    sim.send_wired = spy
    sim.run()
    assert set(sends) == {("fog", "fnc"), ("fog", "fog")}
    for fnc, costs in sim._booking.links.items():
        assert list(costs) == list(sim.piles)
        for pile, cost in costs.items():
            assert cost == link_latency(model, positions[pile], positions[fnc], 0.0)


def test_a_traditional_run_keeps_no_books_yet_delivers_pile_to_pile():
    sim = Simulation(small_config(architecture="traditional"))
    assert sim._booking is None
    src, dst = list(sim.piles)[:2]
    sim.piles[dst].pile.queue_len = 3
    arrival = sim.send_wired(src, dst, _Stray())
    assert arrival == link_latency(sim.backhaul, sim.positions[src], sim.positions[dst], 3.0)
    assert any(e.fire_at == arrival and e.target == dst and isinstance(e.payload, _Stray)
               for e in sim.queue)


@pytest.mark.parametrize("architecture", ["traditional", "coordinated"])
def test_a_run_keeps_its_attributes_in_the_shared_key_dict(architecture):
    # CPython shares an instance's attribute keys with its class only up to
    # 30 names; past that every ``self.x`` on the event loop's path slows.
    # New state belongs in an existing attribute's object, such as _Booking.
    sim = Simulation(small_config(architecture=architecture), trace=[]).run()
    assert len(vars(sim)) <= 30


@pytest.mark.parametrize("architecture", ["traditional", "coordinated"])
def test_a_run_derives_its_set_up_streams_in_one_batch(architecture, monkeypatch):
    # Placement and arrivals come from one derivation; a stream built per
    # node would call it again.  Only a walker's waypoint stream, built when
    # it first aims, derives itself.
    batches, alone = [], []
    derive, seed_one = engine.stream_states, engine._pcg64_seed
    monkeypatch.setattr(engine, "stream_states",
                        lambda seed, names: batches.append(len(names)) or derive(seed, names))
    monkeypatch.setattr(engine, "_pcg64_seed",
                        lambda seed, entropy: alone.append(entropy) or seed_one(seed, entropy))
    cfg = small_config(architecture=architecture)
    sim = Simulation(cfg).run()
    for node in sim.terminals:
        sim.position(node)
    assert batches == [1 + cfg.n_fog + 2 * cfg.n_terminals]  # the root, then each child
    singles = [entropy for entropy in alone if isinstance(entropy, int)]
    waypoints = [engine._stream_entropy(f"root/waypoint/{node}") for node in sim.terminals]
    assert sorted(singles) == sorted(waypoints)


def test_a_coordinated_run_indexes_its_piles_once(monkeypatch):
    # Piles never move, so every FNC's range query reads the run's one index;
    # a registry keeps only the reports.
    built = []
    init = PileIndex.__init__
    monkeypatch.setattr(PileIndex, "__init__",
                        lambda index, piles: built.append(index) or init(index, piles))
    sim = Simulation(small_config(architecture="coordinated", n_fnc=3)).run()
    assert built == [sim.pile_index]
    assert sim._tally.aggregated > 0
    assert not hasattr(Registry, "within")
    assert all(vars(registry).keys() == {"_entries", "statuses"}
               for registry in sim.registries.values())


def test_wireless_transmissions_serialize_on_one_channel():
    sim = Simulation(small_config(architecture="traditional"), trace=[]).run()
    cfg = sim.config
    departures = []
    for t in sim.trace:
        if t.medium != "wireless":
            continue
        link = (cfg.wireless_base_ms + cfg.wireless_prop_ms_per_m * t.distance_m
                + cfg.proc_ms_per_unit * t.receiver_load)
        departure = t.arrives_at - cfg.wireless_air_ms - link
        assert departure >= t.sent_at - 1e-9
        departures.append(departure)
    assert departures
    departures.sort()
    for a, b in zip(departures, departures[1:]):
        assert b - a >= cfg.wireless_air_ms - 1e-9


@pytest.mark.parametrize("architecture", ["traditional", "coordinated"])
def test_trace_is_opt_in(architecture):
    plain = run_scenario(small_config(architecture=architecture, t_upper_ms=300.0))
    traced = Simulation(small_config(architecture=architecture, t_upper_ms=300.0),
                        trace=[]).run()
    assert plain.trace == ()
    assert plain.outcomes == traced.outcomes
    assert plain.audits == traced.audits
    assert plain.messages_total == traced.messages_total > 0
    assert plain.sent == traced.sent
    assert len(traced.trace) == traced.messages_total


@pytest.mark.parametrize("architecture", ["traditional", "coordinated"])
def test_wireless_sends_use_the_terminal_position_at_send_time(architecture):
    sim, origins = run_noting_origins(small_config(architecture=architecture), trace=[])
    placed = {r.node: r.location for r in sim.records}
    requests = [t for t in sim.trace
                if t.medium == "wireless" and t.kind == "ServiceRequest"]
    assert requests
    moved = 0
    for t in requests:
        origin = origins[t.request_id]
        assert t.distance_m == origin.distance_to(sim.positions[t.dst])
        moved += origin != placed[t.src]
    assert moved


def broadcast_one_way(sim, terminals, one_loop):
    """Broadcast one request from each of ``terminals``, with ``_broadcast`` or per pile.

    Returns each copy's ``(pile, request, arrival, seq)``, then the channel's
    ``free_at`` and the trace rows, each as its repr, which spells every float
    to the bit, then ``messages_total`` and each probe's ``messages_used``.
    A per-pile send queues an arrival event; ``_broadcast`` queues the
    computation ``compute_ms`` later, keyed under the arrival that it carries.
    """
    clock, sent = sim.queue.clock, []
    for seq, node in enumerate(terminals):
        request = ServiceRequest(f"{node}/probe{seq}", node, sim.position(node),
                                 "charging-query", sim.config.query_range_m, clock)
        sim._outcome_by_id[request.request_id] = scenario.RequestOutcome(
            request.request_id, node, clock)
        sent.append(request)
        if one_loop:
            sim._broadcast(request)
        else:
            for _, pile in sim.pile_index.within(request.origin, request.query_range_m):
                sim.send_wireless(node, pile, request, request.request_id)
    copies = []
    for e in sorted(sim.queue):
        if isinstance(e.payload, ServiceRequest):
            copies.append((e.target, e.payload, e.fire_at, e.seq))
        elif isinstance(e.payload, scenario._ComputeDone):
            request, arrival, seq = e.payload
            assert (e.fire_at, e.parent_at, e.parent_seq) == (
                arrival + sim.config.compute_ms, arrival, seq)
            copies.append((e.target, request, arrival, seq))
    used = [sim._outcome_by_id[r.request_id].messages_used for r in sent]
    return ([repr(copy) for copy in copies], repr(sim.channel.free_at),
            [repr(t) for t in sim.trace], sim.messages_total, used)


@pytest.mark.parametrize("overrides", [
    dict(),
    # No airtime and no propagation: equally loaded piles' copies arrive at once.
    dict(wireless_air_ms=0.0, wireless_prop_ms_per_m=0.0),
])
def test_broadcast_loop_sends_as_send_wireless_does(overrides):
    config = small_config(architecture="traditional", n_fog=40, query_range_m=1500.0,
                          **overrides)
    got = {}
    for one_loop in (True, False):
        sim = Simulation(config, trace=[])
        sim.queue.run_until(7_300.0, sim._handle)  # terminals have walked
        assert sim._steps > 0
        for host in sim.piles.values():
            host.pile.queue_len = host.node.ordinal % 3
        sim.channel.free_at = sim.queue.clock + 37.5  # a backlog on the channel
        got[one_loop] = broadcast_one_way(sim, list(sim.terminals)[:5], one_loop)
    assert got[True] == got[False]
    sent = [t for t in sim.trace if "/probe" in t.request_id]
    assert len(sent) > 50
    assert {t.receiver_load for t in sent} == {0.0, 1.0, 2.0}
    assert sent[0].arrives_at > sim.queue.clock + 37.5  # departed at the backlog's end
    arrivals = [t.arrives_at for t in sent]
    assert (len(set(arrivals)) < len(arrivals)) == (config.wireless_air_ms == 0.0)


# Some migration sessions here run out of candidates; a CLI test runs it too.
MIGRATION_EXHAUSTING = dict(seed=2, t_upper_ms=1.0, capacity=1, request_rate=16.0,
                            max_migration_attempts=2)


@pytest.mark.parametrize("config, edge", [
    pytest.param(small_config(architecture="traditional"), lambda sim: sim.sent[JobResult],
                 id="traditional"),
    pytest.param(small_config(architecture="coordinated"), lambda sim: sim.sent[JobDispatch],
                 id="coordinated"),
    pytest.param(ScenarioConfig(**MIGRATION_EXHAUSTING),
                 lambda sim: any(a.warned for a in sim.audits), id="migration-exhausting"),
    pytest.param(small_config(aggregation_timeout_ms=1.0),
                 lambda sim: sim.sent[JobResult] and not any(o.completed for o in sim.outcomes),
                 id="1ms-window"),
    # A job handled past the horizon sends no reply; those handled before it do.
    pytest.param(small_config(backhaul_base_ms=30_000.0, sim_duration_ms=30_000.0),
                 lambda sim: 0 < sim.sent[JobResult] < sim.sent[JobDispatch],
                 id="30s-backhaul"),
])
def test_every_message_is_traced(config, edge):
    sim = Simulation(config, trace=[]).run()
    assert edge(sim)
    assert sim.messages_total == sum(sim.sent.values()) == len(sim.trace)
    rows = Counter(t.kind for t in sim.trace)
    assert rows == {kind.__name__: n for kind, n in sim.sent.items() if n}


@pytest.mark.parametrize("architecture", ["traditional", "coordinated"])
@pytest.mark.parametrize("timeout_ms", [500.0, 1.0])
def test_trace_rows_per_request_equal_messages_used(architecture, timeout_ms):
    # With a 1 ms window every request is decided before any reply is sent,
    # so late JobResults must still count against their request.
    sim = Simulation(small_config(architecture=architecture, query_range_m=1200.0,
                                  aggregation_timeout_ms=timeout_ms), trace=[]).run()
    rows = Counter(t.request_id for t in sim.trace if t.request_id is not None)
    used = {o.request_id: o.messages_used for o in sim.outcomes}
    assert set(rows) <= set(used)
    assert {rid: rows[rid] for rid in used} == used
    assert any(t.kind == "JobResult" for t in sim.trace)
    if timeout_ms == 1.0:
        assert not any(o.completed for o in sim.outcomes)


@pytest.mark.parametrize("architecture", ["traditional", "coordinated"])
@pytest.mark.parametrize("service", [{}, dict(fnc_service_ms=0.3, compute_ms=97.1)])
def test_handling_waits_exactly_the_service_time_after_arrival(architecture, service):
    sim = Simulation(small_config(architecture=architecture, **service), trace=[]).run()
    cfg = sim.config
    requests = {t.request_id: t for t in sim.trace if t.kind == "ServiceRequest"}
    jobs = {(t.request_id, t.dst): t for t in sim.trace if t.kind == "JobDispatch"}
    results = [t for t in sim.trace if t.kind == "JobResult"]
    assert results
    if architecture == "coordinated":
        assert jobs
        for job in jobs.values():
            assert job.sent_at == requests[job.request_id].arrives_at + cfg.fnc_service_ms
    else:
        assert not jobs
        jobs = {(t.request_id, t.dst): t for t in sim.trace if t.kind == "ServiceRequest"}
    for result in results:
        assert result.sent_at == jobs[result.request_id, result.src].arrives_at + cfg.compute_ms


def test_reply_due_at_the_aggregation_deadline_misses_it():
    # With a zero-latency backhaul a pile's reply reaches the FNC exactly when
    # its aggregation window closes; the window closes first.
    for seed in range(1, 9):
        sim = run_scenario(small_config(
            seed=seed, architecture="coordinated", query_range_m=2800.0,
            backhaul_base_ms=0.0, backhaul_prop_ms_per_m=0.0, proc_ms_per_unit=0.0,
            compute_ms=250.0, aggregation_timeout_ms=250.0))
        assert sim.outcomes
        assert all(o.failure == "aggregation-timeout" for o in sim.outcomes)


def test_broadcast_reply_due_at_the_terminal_deadline_misses_it():
    # With a zero-latency, zero-airtime channel a pile's reply reaches the
    # terminal exactly when its reply window closes; the window closes first.
    for seed in range(1, 9):
        sim = Simulation(small_config(
            seed=seed, architecture="traditional", query_range_m=2800.0,
            wireless_air_ms=0.0, wireless_base_ms=0.0, wireless_prop_ms_per_m=0.0,
            proc_ms_per_unit=0.0, compute_ms=250.0, aggregation_timeout_ms=250.0),
            trace=[]).run()
        assert any(t.kind == "JobResult" for t in sim.trace)
        assert sim.outcomes
        assert all(o.failure == "request-timed-out" for o in sim.outcomes)


def test_status_reports_flow_only_under_coordination():
    coord = Simulation(ScenarioConfig(seed=3), trace=[]).run()
    reports = [t for t in coord.trace if t.kind == "StatusReportMsg"]
    ticks = int(coord.config.sim_duration_ms // coord.config.report_period_ms)
    assert len(reports) == ticks * coord.config.n_fog * coord.config.n_fnc

    trad = Simulation(ScenarioConfig(seed=3, architecture="traditional"), trace=[]).run()
    assert not any(t.kind == "StatusReportMsg" for t in trad.trace)


@pytest.mark.parametrize("architecture", ["traditional", "coordinated"])
@pytest.mark.parametrize("service_rate, drains", [(3600.0, 1), (30.0, 0)])
def test_periodic_duties_are_one_event_each(architecture, service_rate, drains):
    # Mobility, status reports (coordinated only) and queue drains each
    # queue one arena-wide event, and only if its first instant is in the run.
    sim = Simulation(small_config(architecture=architecture,
                                  service_rate_per_hour=service_rate))
    queued = len(sim.queue)
    duties = 1 + (architecture == "coordinated") + drains
    assert queued == len(sim.run().outcomes) + duties


def test_piles_report_in_pile_then_fnc_order_at_each_instant():
    sim = Simulation(small_config(
        architecture="coordinated", n_fnc=3, report_period_ms=500.0,
        mobility_step_ms=500.0, backhaul_base_ms=0.0, backhaul_prop_ms_per_m=0.0,
        proc_ms_per_unit=0.0), trace=[]).run()
    by_instant = {}
    for t in sim.trace:
        if t.kind == "StatusReportMsg":
            by_instant.setdefault(t.sent_at, []).append((t.src, t.dst))
    expected = [(pile, fnc) for pile in sim.piles for fnc in sim.registries]
    assert len(by_instant) == sim.config.sim_duration_ms // 500.0
    assert all(rows == expected for rows in by_instant.values())


# --------------------------------------------------------------- accounting

def test_queue_grows_by_one_per_completed_request():
    for arch in ("traditional", "coordinated"):
        sim = run_scenario(small_config(architecture=arch))
        completed = sum(1 for o in sim.outcomes if o.completed)
        total_queued = sum(h.pile.queue_len for h in sim.piles.values())
        assert total_queued == completed


def replies_past_horizon(sim) -> int:
    return sum(1 for t in sim.trace if t.kind == "JobResult" and t.arrives_at > sim.horizon)


def run_noting_reports(config):
    """Run ``config`` traced; also return the status reports sent and those queued.

    A sent report is ``(fnc, arrives_at, status, changed)``: ``changed`` when
    its pile's load differs from that of the report the pile sent that FNC
    before, the registry's seed at load 0 counting as the first.  A queued
    one is ``(fnc, fire_at, status)``.
    """
    sim = Simulation(config, trace=[])
    sent, queued, last = [], [], {}
    send, schedule = sim.send_wired, sim.queue.schedule

    def send_spy(src, dst, payload, request_id=None):
        arrival = send(src, dst, payload, request_id)
        if isinstance(payload, StatusReportMsg):
            load = payload.status.resources.queue_len
            sent.append((dst, arrival, payload.status, load != last.get((src, dst), 0)))
            last[src, dst] = load
        return arrival

    def schedule_spy(fire_at, target, payload):
        if isinstance(payload, StatusReportMsg):
            queued.append((target, fire_at, payload.status))
        return schedule(fire_at, target, payload)

    sim.send_wired, sim.queue.schedule = send_spy, schedule_spy
    return sim.run(), sent, queued


def test_only_a_changed_status_report_queues_an_arrival():
    # A backhaul slower than the report period keeps several reports per
    # pile in flight, so a registry's entry lags the pile's last report.
    sim, sent, queued = run_noting_reports(small_config(
        architecture="coordinated", backhaul_base_ms=1500.0, aggregation_timeout_ms=4000.0,
        service_rate_per_hour=3600.0, request_rate=16.0, capacity=2))
    changed = [(fnc, arrival, status) for fnc, arrival, status, new in sent if new]
    assert 0 < len(changed) < len(sent)
    assert queued == changed
    assert sum(t.kind == "StatusReportMsg" for t in sim.trace) == len(sent)


def test_events_left_counts_what_is_still_queued_at_the_horizon():
    # Broadcasting over the whole arena at this rate leaves replies due past
    # the horizon; they are filed at send, not queued, but still count.
    sim = Simulation(ScenarioConfig(seed=1, architecture="traditional",
                                    request_rate=64.0, query_range_m=2000.0),
                     trace=[]).run()
    assert sim.events_left == len(sim.queue) + replies_past_horizon(sim) == 1994


def test_events_left_counts_fnc_replies_due_past_the_horizon():
    # A 30 s backhaul delays every reply to its FNC past the horizon, and
    # the status reports of the run's last 20 s; the repeats among those
    # are filed at send, not queued, but still count.  So do the jobs of
    # the run's last 10 s, whose piles would handle them past the horizon:
    # a job's handling is booked at dispatch, not queued.
    sim, sent, _ = run_noting_reports(ScenarioConfig(seed=1, architecture="coordinated",
                                                     backhaul_base_ms=30_000.0))
    repeats = sum(1 for _, arrival, _, new in sent if not new and arrival > sim.horizon)
    unhandled = sum(1 for t in sim.trace if t.kind == "JobDispatch"
                    and t.arrives_at + sim.config.compute_ms > sim.horizon)
    assert replies_past_horizon(sim) > 0 and repeats > 0 and unhandled > 0
    assert sim.events_left == (len(sim.queue) + replies_past_horizon(sim) + repeats
                               + unhandled) == 575


def test_events_left_leaves_out_a_copy_a_full_pile_dropped_by_the_horizon():
    # With capacity 1 and no drain, a chosen pile stays full, and a copy to it
    # pays 20 s of receiver load, so copies sent late in the run reach it
    # after the run's last decision.  A full pile drops a copy on arrival:
    # one that arrives by the horizon leaves nothing due, even when its
    # computation would have fallen past the horizon.  Every other copy
    # whose arrival or computation falls past the horizon counts.
    cfg = ScenarioConfig(seed=1, architecture="traditional", capacity=1,
                         proc_ms_per_unit=20_000.0, compute_ms=5_000.0,
                         aggregation_timeout_ms=6_000.0, service_rate_per_hour=1.0)
    sim = Simulation(cfg, trace=[]).run()
    horizon = sim.horizon
    assert cfg.sim_duration_ms + cfg.aggregation_timeout_ms < horizon  # every window shut
    chosen_at = [(o.issued_at + cfg.aggregation_timeout_ms, o.chosen)
                 for o in sim.outcomes if o.completed]

    def full_at(pile, instant):
        return sum(at < instant for at, chosen in chosen_at if chosen == pile) >= cfg.capacity

    copies = [t for t in sim.trace if t.kind == "ServiceRequest"]
    arrived = [t for t in copies if t.arrives_at <= horizon]
    due = [t for t in arrived if t.arrives_at + cfg.compute_ms > horizon]
    dropped = [t for t in due if full_at(t.dst, t.arrives_at)]
    assert dropped
    assert sim.events_left == (len(copies) - len(arrived) + len(due) - len(dropped)
                               + replies_past_horizon(sim)) == 39


def test_a_traditional_load_log_stays_short_as_the_run_grows():
    # Dense requests and a drain every 2 s change loads often.  A pile's
    # computations read its log in arrival order and drop what they pass, so
    # the longest log is no longer in a run four times as long.
    def run(duration_ms):
        sim = Simulation(ScenarioConfig(seed=1, architecture="traditional", request_rate=16.0,
                                        service_rate_per_hour=1800.0,
                                        sim_duration_ms=duration_ms))
        log_load, longest = sim._log_load, [0]

        def spy(pile):
            log_load(pile)
            longest[0] = max(longest[0], len(sim._load_log[pile.node]))

        sim._log_load = spy
        sim.run()
        changes = sim._tally.drained + sum(o.completed for o in sim.outcomes)
        return longest[0], changes

    (short, short_changes), (long, long_changes) = run(30_000.0), run(120_000.0)
    assert long_changes > 3 * short_changes > 600
    assert long <= short


def test_full_pile_ignores_broadcasts():
    # With capacity 1 a chosen pile is full for the rest of the run (the
    # drain gap of 120 s exceeds it), so it must not answer any request
    # issued after the chooser's reply window closed.
    for seed in (1, 2, 3):
        sim = run_scenario(ScenarioConfig(seed=seed, architecture="traditional",
                                          capacity=1))
        window = sim.config.aggregation_timeout_ms
        done = [o for o in sim.outcomes if o.completed]
        assert len(done) >= 5
        for a in done:
            for b in done:
                if b.issued_at > a.issued_at + window:
                    assert b.chosen != a.chosen


def test_latencies_are_positive_and_bounded():
    for arch in ("traditional", "coordinated"):
        sim = run_scenario(small_config(architecture=arch))
        cfg = sim.config
        floor = 2 * (cfg.wireless_air_ms + cfg.wireless_base_ms)
        for o in sim.outcomes:
            if not o.completed:
                continue
            assert o.latency_ms > floor
            assert o.latency_ms <= cfg.aggregation_timeout_ms + 2000.0
            assert o.decided_at == pytest.approx(o.issued_at + o.latency_ms)


def test_traditional_decides_within_the_reply_window():
    sim = run_scenario(small_config(architecture="traditional"))
    for o in sim.outcomes:
        if o.completed:
            assert o.latency_ms <= sim.config.aggregation_timeout_ms + 1e-9


@pytest.mark.parametrize("architecture", ["traditional", "coordinated"])
def test_run_leaves_no_reply_window_open(architecture):
    sim = run_scenario(small_config(architecture=architecture))
    assert sim.outcomes
    assert not sim._windows
    sim._check_conservation()


def trace_by_request(sim):
    """``{request_id: {kind: [SendTrace, ...]}}`` in send order."""
    rows = {}
    for t in sim.trace:
        rows.setdefault(t.request_id, {}).setdefault(t.kind, []).append(t)
    return rows


def test_fnc_decides_when_the_last_dispatched_job_replies():
    # A deadline this long never closes a window that every job answers,
    # so each decision leaves the FNC on its last reply's arrival.
    sim = Simulation(small_config(architecture="coordinated",
                                  aggregation_timeout_ms=60_000.0), trace=[]).run()
    decided = {rid: kinds for rid, kinds in trace_by_request(sim).items()
               if "Decision" in kinds}
    assert decided
    for kinds in decided.values():
        results = kinds["JobResult"]
        assert len(results) == len(kinds["JobDispatch"])
        [decision] = kinds["Decision"]
        assert decision.sent_at == max(r.arrives_at for r in results)


def test_fnc_decides_at_the_latest_arrival_not_the_last_send():
    # A loaded pile gets its job late and replies last, but if it is close
    # to the FNC its reply can still overtake a farther pile's.
    sim = Simulation(small_config(architecture="coordinated", query_range_m=2000.0,
                                  aggregation_timeout_ms=60_000.0), trace=[])
    for host in sim.piles.values():
        host.pile.queue_len = host.node.ordinal % 4
    sim.run()
    overtaken = 0
    for kinds in trace_by_request(sim).values():
        if "Decision" not in kinds:
            continue
        results = kinds["JobResult"]
        latest = max(r.arrives_at for r in results)
        overtaken += results[-1].arrives_at < latest
        [decision] = kinds["Decision"]
        assert decision.sent_at == latest
    assert overtaken


def test_fnc_decides_at_the_deadline_among_replies_that_beat_it():
    # With distance alone deciding, the chosen pile is the nearest of those
    # whose reply arrived strictly before the deadline.
    sim, origins = run_noting_origins(
        small_config(architecture="coordinated", query_range_m=2000.0,
                     aggregation_timeout_ms=285.0, w_wait=0.0), trace=[])
    partial = late_best = 0
    for rid, kinds in trace_by_request(sim).items():
        if "JobDispatch" not in kinds:
            continue
        deadline = kinds["JobDispatch"][0].sent_at + sim.config.aggregation_timeout_ms
        results = kinds["JobResult"]
        in_time = [r for r in results if r.arrives_at < deadline]
        if not in_time or len(in_time) == len(results):
            continue
        partial += 1
        [decision] = kinds["Decision"]
        assert decision.sent_at == deadline

        def nearest(replies):
            return min((sim.positions[r.src].distance_to(origins[rid]), r.src)
                       for r in replies)[1]

        assert sim._outcome_by_id[rid].chosen == nearest(in_time)
        late_best += nearest(results) != nearest(in_time)
    assert partial and late_best


def load_changes(sim, initial):
    """Each instant the lone pile's load changes, and its load after, from the trace.

    Every decision that reaches its terminal adds one charge; every drain
    takes one off a non-empty pile.
    """
    period = 3_600_000.0 / sim.config.service_rate_per_hour
    changes = [(t.arrives_at, +1) for t in sim.trace if t.kind == "Decision"]
    changes += [(k * period, -1)
                for k in range(1, int(sim.config.sim_duration_ms // period) + 1)]
    load, after = initial, []
    for at, step in sorted(changes):
        load = max(0, load + step)
        after.append((at, load))
    return after


def test_a_job_is_scored_on_its_piles_load_when_handled(monkeypatch):
    # One pile, drained every 100 ms and charged by every decision, so its
    # load moves while jobs are in flight.  A job is scored on the load
    # its pile has at the instant it handles the job, not at dispatch.
    cfg = ScenarioConfig(seed=2, architecture="coordinated", n_terminals=4, n_fog=1,
                         n_fnc=1, request_rate=120.0, sim_duration_ms=10_000.0,
                         service_rate_per_hour=36_000.0, w_dist=0.0)
    scored = {}
    offer_score = scenario.offer_score

    def spy(request, pile, load, weights):
        assert request.request_id not in scored  # one job per decision
        scored[request.request_id] = score = offer_score(request, pile, load, weights)
        return score

    monkeypatch.setattr(scenario, "offer_score", spy)
    sim = Simulation(cfg, trace=[])
    (host,) = sim.piles.values()
    host.pile.queue_len = 3
    sim.run()
    changes = load_changes(sim, 3)

    def load_at(instant):
        return next((load for at, load in reversed(changes) if at < instant), 3)

    moved = 0
    for t in sim.trace:
        if t.kind != "JobDispatch" or t.request_id not in scored:
            continue
        load = load_at(t.arrives_at + cfg.compute_ms)
        assert scored[t.request_id] == cfg.w_wait * load / cfg.service_rate_per_hour
        moved += load_at(t.sent_at) != load
    assert moved > 10


def test_every_score_a_decision_reads_is_the_one_pile_score_at_the_handled_load(monkeypatch):
    # Dense requests on two piles, both weights non-zero, so loads move
    # between a job's dispatch and its handling.  The FNC's decision must
    # score each job with the very bits the one-pile function gives its
    # pile at the load it had when it handled the job.
    cfg = ScenarioConfig(seed=3, architecture="coordinated", request_rate=2000.0,
                         sim_duration_ms=6000.0, n_fog=2, wireless_air_ms=8.0)
    assert cfg.w_dist > 0 and cfg.w_wait > 0
    assert cfg.sim_duration_ms < 3_600_000.0 / cfg.service_rate_per_hour  # no drain
    decisions = {}  # per request, the scores its decision read and when
    offer_score = scenario.offer_score

    def spy(request, pile, load, weights):
        score = offer_score(request, pile, load, weights)
        results, _ = decisions.setdefault(request.request_id, ([], sim.queue.clock))
        results.append(JobResult(request.request_id, pile.node, score))
        return score

    monkeypatch.setattr(scenario, "offer_score", spy)
    sim = Simulation(cfg, trace=[])
    requests = {}
    send = sim.send_wireless

    def note(src, dst, payload, request_id=None):
        if isinstance(payload, ServiceRequest):
            requests[payload.request_id] = payload
        return send(src, dst, payload, request_id)

    sim.send_wireless = note
    sim.run()
    # Each pile starts empty and gains one charge per decision that reaches
    # its terminal.
    charged = {node: [] for node in sim.piles}
    for t in sim.trace:
        chosen = sim._outcome_by_id[t.request_id].chosen if t.kind == "Decision" else None
        if chosen is not None:
            charged[chosen].append(t.arrives_at)
    for times in charged.values():
        times.sort()
    jobs = {(t.request_id, t.dst): t for t in sim.trace if t.kind == "JobDispatch"}

    def load_at(node, instant):
        assert instant not in charged[node]
        return bisect.bisect_left(charged[node], instant)

    read = moved = moved_after_handling = 0
    for results, decided_at in decisions.values():
        last_handled = -math.inf
        for result in results:
            job = jobs[result.request_id, result.responder]
            handled_at = job.arrives_at + cfg.compute_ms
            load = load_at(result.responder, handled_at)
            at_load = replace(sim.piles[result.responder].pile, queue_len=load)
            expected = evaluate_charging_request(requests[result.request_id], at_load, cfg.weights)
            assert repr(result) == repr(expected)
            moved += load_at(result.responder, job.sent_at) != load
            last_handled = max(last_handled, handled_at)
        read += len(results)
        # The FNC scores when it decides, so a load that changed after the
        # window's last job was handled must be read back from the log.
        moved_after_handling += any(
            load_at(r.responder, decided_at) != load_at(r.responder, last_handled)
            for r in results)
    assert read > 1000 and moved > 10 and moved_after_handling > 10


NON_FINITE_SCORES = [
    dict(w_dist=1e306),  # far piles' distance terms overflow
    dict(w_dist=1e306, n_fog=50),  # only far ones; each request's best pile is near
    dict(service_rate_per_hour=1e-320, w_wait=0.0),  # a loaded pile's wait is 0 * inf
]


@pytest.mark.parametrize("overrides", NON_FINITE_SCORES)
def test_a_non_finite_score_fails_the_run(overrides):
    # The FNC stops scoring at the first job that cannot win, but only when
    # no job it skips could score past the largest float; so a run that
    # meets a non-finite score still fails, and each sweep cell is an error row.
    for architecture in ("traditional", "coordinated"):
        with pytest.raises(ValueError, match="^score must be finite$"):
            run_scenario(small_config(architecture=architecture, **overrides))
    table = run_sweep(SweepSpec("n_fnc", (1.0,), repetitions=1, base=small_config(**overrides)))
    assert [(row.architecture, row.error) for row in table] == [
        (architecture, "ValueError: score must be finite")
        for architecture in ("traditional", "coordinated")]


class _Stray:
    """A payload that no architecture routes."""


def _serve_elsewhere(sim):
    term = next(t for t in sim.terminals.values() if t.flow_id is not None)
    term.serving_pile = next(node for node in sim.piles if node != term.serving_pile)


def _host_nowhere(sim):
    term = next(t for t in sim.terminals.values() if t.flow_id is not None)
    del sim.piles[term.serving_pile].flows[term.flow_id]


def _host_twice(sim):
    # The copy goes on a pile the law reads after the serving pile, so a law
    # that looks only at the first pile it finds lets it through.
    piles = list(sim.piles)
    term = next(t for t in sim.terminals.values()
                if t.flow_id is not None and t.serving_pile != piles[-1])
    flow = sim.piles[term.serving_pile].flows[term.flow_id]
    host = sim.piles[piles[piles.index(term.serving_pile) + 1]]
    host.install_flow(FlowInstance.restore(flow.snapshot(), host.node))


def _relabel_replies_as_jobs(sim):
    # The total stays put, so only the replies law can break.
    moved = sim.sent[JobResult] - sim._tally.aggregated + 1
    sim.sent[JobResult] -= moved
    sim.sent[JobDispatch] += moved


@pytest.mark.parametrize("law, tamper", [
    ("pile load", lambda sim: setattr(next(iter(sim.piles.values())).pile, "queue_len", 99)),
    ("flows", lambda sim: next(iter(sim.piles.values()))._reservations.add("flow-x")),
    ("windows", lambda sim: sim._windows.update(
        stale=scenario._ReplyWindow(sim.horizon))),
    ("messages", lambda sim: sim.sent.update({ServiceRequest: sim.sent[ServiceRequest] + 1})),
    pytest.param("messages", lambda sim: sim.send_wired(
        next(iter(sim.piles)), next(iter(sim.registries)), _Stray()), id="messages-stray-send"),
    ("outcomes", lambda sim: setattr(sim.outcomes[0], "failure", None)
     or setattr(sim.outcomes[0], "decided_at", None)),
    pytest.param(r"outcomes: \S+ decided and failed \(lost\)", lambda sim: setattr(
        next(o for o in sim.outcomes if o.completed), "failure", "lost"),
        id="outcomes-decided-and-failed"),
    pytest.param("messages", lambda sim: sim.send_wired(
        *list(sim.piles)[:2], LatencyComplaint("flow-x", next(iter(sim.terminals)),
                                               Point2D(0.0, 0.0), 1.0),
        sim.outcomes[0].request_id), id="messages-complaint-for-a-request"),
    pytest.param(r"messages: FNC decisions read \d+ replies, but piles sent \d+",
                 _relabel_replies_as_jobs, id="messages-replies-overread"),
    pytest.param(r"flows: flow-terminal-\d+ resident at \[fog-\d+\], served by fog-\d+$",
                 _serve_elsewhere,
                 id="flows-served-elsewhere"),
    pytest.param(r"flows: flow-terminal-\d+ resident at \[\], served by fog-\d+$",
                 _host_nowhere, id="flows-resident-nowhere"),
    pytest.param(r"flows: flow-terminal-\d+ resident at \[fog-\d+, fog-\d+\], served by fog-\d+$",
                 _host_twice, id="flows-resident-twice"),
    pytest.param(r"flows: \S+ migrating with nothing due past the horizon$",
                 lambda sim: sim._active_migrations.update(
                     {next(iter(sim.terminals.values())).flow_id: None}),
                 id="flows-left-migrating"),
])
def test_conservation_check_names_the_broken_law(law, tamper):
    # ``law`` names the law, optionally followed by a pattern of the detail.
    name, _, detail = law.partition(": ")
    sim = run_scenario(small_config(architecture="coordinated"))
    sim._check_conservation()
    tamper(sim)
    with pytest.raises(InvariantViolation, match=f"^{name}: {detail}"):
        sim._check_conservation()


def test_a_second_run_returns_the_run_without_checking_again():
    sim = run_scenario(small_config(architecture="coordinated"))
    sim.sent[ServiceRequest] += 1  # the check would now name the messages law
    assert sim.run() is sim


@pytest.mark.parametrize("architecture", ["traditional", "coordinated"])
def test_unrouted_payload_raises_naming_its_type(architecture):
    sim = Simulation(small_config(architecture=architecture))
    sim.queue.schedule(0.0, next(iter(sim.terminals)), _Stray())
    with pytest.raises(TypeError, match="_Stray"):
        sim.run()


def test_summary_row_is_internally_consistent():
    sim = Simulation(small_config(architecture="coordinated",
                                  query_range_m=1.0), trace=[]).run()
    row = sim.summary_row(run_id="x", swept_variable="query_range_m",
                          swept_value=1.0)
    assert row.completed == 0
    assert row.timed_out == len(sim.outcomes)
    assert row.mean_latency_ms is None
    assert row.p95_latency_ms is None
    assert row.messages_total == len(sim.trace)


def test_the_mean_latency_is_a_left_fold_on_every_python():
    # Summed left to right, ten 0.1s give 0.9999999999999999; a compensated
    # sum, as 3.12's sum() is, gives 1.0 and a mean of 0.1.
    sim = Simulation(small_config())
    terminal = next(iter(sim.terminals))
    sim.outcomes = [scenario.RequestOutcome(f"r{i}", terminal, 0.0, decided_at=0.1,
                                            latency_ms=0.1) for i in range(10)]
    assert sim.summary_row().mean_latency_ms == 0.09999999999999999


def test_plot_data_is_correctly_rounded_on_every_python():
    # statistics.stdev is correctly rounded from CPython 3.11 on; 3.10 gives
    # 250.71564237863848 here.
    table = MetricsTable([MetricsRow(f"r{i}", "traditional", "n_fnc", 1.0, i,
                                     mean_latency_ms=mean)
                          for i, mean in enumerate([348.0, 278.0, 743.0])])
    (point,) = emit_plot_data(table)["traditional"]
    assert point.mean_latency_ms == 456.3333333333333
    assert point.std_latency_ms == 250.71564237863845


# ---------------------------------------------------------------- migration

def test_migration_triggers_only_above_the_latency_bound():
    sim = run_scenario(ScenarioConfig(seed=11))
    for audit in sim.audits:
        assert audit.trigger_latency_ms > audit.t_upper_ms


def test_a_latency_equal_to_the_bound_sends_no_complaint():
    # A terminal's first EWMA sample is its latency to the bit, so a bound set
    # to the run's earliest latency ties it; one ulp below, it complains.
    config = small_config(architecture="coordinated")
    first = min((o for o in run_scenario(config).outcomes if o.completed),
                key=lambda o: (o.decided_at, o.request_id))
    for bound, complaints in ((first.latency_ms, 0), (math.nextafter(first.latency_ms, 0), 1)):
        sim = Simulation(replace(config, t_upper_ms=bound), trace=[]).run()
        again = next(o for o in sim.outcomes if o.request_id == first.request_id)
        assert (again.decided_at, again.latency_ms) == (first.decided_at, first.latency_ms)
        assert complaints == sum(t.kind == "LatencyComplaint" and t.src == first.terminal
                                 and t.sent_at == first.decided_at for t in sim.trace)


def test_tiny_latency_bound_forces_migrations():
    sim = run_scenario(small_config(architecture="coordinated",
                                    t_upper_ms=1.0))
    migrated = [a for a in sim.audits if a.outcome == "migrated"]
    assert migrated
    for audit in migrated:
        assert audit.target is not None
        assert audit.target != audit.source
        assert audit.attempts >= 1
        assert audit.trigger_latency_ms > 1.0
    for term in sim.terminals.values():
        assert term.flow_id not in sim._active_migrations
    last_target = {}
    for audit in sim.audits:
        if audit.outcome == "migrated":
            last_target[audit.flow_id] = audit.target
    for term in sim.terminals.values():
        if term.flow_id in last_target:
            assert term.serving_pile == last_target[term.flow_id]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_migrated_flows_end_resident_on_their_serving_pile(seed):
    sim = Simulation(small_config(seed=seed, architecture="coordinated",
                                  t_upper_ms=1.0), trace=[]).run()
    assert any(a.outcome == "migrated" for a in sim.audits)
    assert any(t.kind == "ObjectStateMsg" for t in sim.trace)
    for term in sim.terminals.values():
        hosts = [node for node, pile in sim.piles.items() if pile.has_flow(term.flow_id)]
        assert hosts == [term.serving_pile]
    for pile in sim.piles.values():
        assert not pile._reservations
    sim._check_conservation()


@pytest.mark.parametrize("overrides", [
    dict(t_upper_ms=1.0),  # golden "coordinated-migrating"
    # golden "coordinated-migration-bounded": full piles refuse most migrations
    dict(t_upper_ms=1.0, capacity=1, request_rate=16.0, max_migration_attempts=2),
])
def test_every_state_lands_on_the_slot_its_target_reserved(monkeypatch, overrides):
    # A target refuses only when asked to accept, so the state it is then
    # sent finds the slot that its accept reserved, however full it is now.
    install = scenario.on_migration_end
    landed = []

    def install_reserved(host, state):
        assert state.flow_id in host._reservations, (host.node, state.flow_id)
        landed.append(state.flow_id)
        return install(host, state)

    monkeypatch.setattr(scenario, "on_migration_end", install_reserved)
    for seed in (1, 2, 3):
        Simulation(ScenarioConfig(seed=seed, architecture="coordinated", **overrides)).run()
    assert landed


def test_runs_are_reproducible():
    a = Simulation(small_config(architecture="coordinated", t_upper_ms=300.0), trace=[]).run()
    b = Simulation(small_config(architecture="coordinated", t_upper_ms=300.0), trace=[]).run()
    assert a.outcomes == b.outcomes
    assert a.audits == b.audits
    assert a.messages_total == b.messages_total
    assert a.trace == b.trace
