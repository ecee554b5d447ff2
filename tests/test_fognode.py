"""Pile scoring, session flows, and the migration protocol."""

import logging
import math
import random

import pytest

from gridfog.errors import CapacityExceeded, FlowNotResident
from gridfog.fognode import (
    SESSION_OPERATORS,
    FlowInstance,
    FogNode,
    MigrationPolicy,
    PileState,
    evaluate_charging_request,
    migration_source,
    on_migration_end,
)
from gridfog.messages import ServiceRequest
from gridfog.topology import Point2D, fog_id, terminal_id


def request_at(x, y, range_m=1000.0):
    return ServiceRequest(
        request_id="r1",
        requester=terminal_id(0),
        origin=Point2D(x, y),
        kind="charging-query",
        query_range_m=range_m,
        issued_at=0.0,
    )


def pile_at(ordinal, x, y, queue_len=0):
    return PileState(fog_id(ordinal), Point2D(x, y), queue_len=queue_len)


def test_score_zero_for_colocated_idle_pile():
    result = evaluate_charging_request(request_at(5.0, 5.0), pile_at(0, 5.0, 5.0), (1.0, 1.0))
    assert result.score == 0.0


def test_score_distance_term():
    result = evaluate_charging_request(request_at(0.0, 0.0), pile_at(0, 250.0, 0.0), (1.0, 0.0))
    assert result.score == pytest.approx(250.0)


def test_score_wait_term_uses_hours():
    pile = pile_at(0, 0.0, 0.0, queue_len=15)  # 15 / 30 per hour = 0.5 h
    result = evaluate_charging_request(request_at(0.0, 0.0), pile, (0.0, 2.0))
    assert result.score == pytest.approx(1.0)


def test_zero_weights_rejected():
    with pytest.raises(ValueError):
        evaluate_charging_request(request_at(0, 0), pile_at(0, 1, 1), (0.0, 0.0))


@pytest.mark.parametrize("pile, weights", [
    # 1e308 m times 250 m overflows to inf.
    (PileState(fog_id(0), Point2D(250.0, 0.0)), (1e308, 0.0)),
    # An infinite wait times a zero weight is nan.
    (PileState(fog_id(0), Point2D(250.0, 0.0), queue_len=1, service_rate=1e-320),
     (1.0, 0.0)),
])
def test_non_finite_score_rejected(pile, weights):
    # JobResult itself checks nothing: this is the one guard on its score.
    with pytest.raises(ValueError, match="finite"):
        evaluate_charging_request(request_at(0.0, 0.0), pile, weights)


def host(ordinal=0, queue_len=0, capacity=8):
    return FogNode(pile_at(ordinal, 0.0, 0.0, queue_len=queue_len), capacity=capacity)


def test_flow_instance_reorders_and_dedupes():
    inst = FlowInstance("f1", SESSION_OPERATORS, fog_id(0))
    assert inst.offer(3) == []
    assert inst.offer(1) == [1]
    assert inst.offer(1) == []
    assert inst.offer(2) == [2, 3]
    assert inst.processed_log == [1, 2, 3]
    assert inst.operator_states == {"ingest": 3, "assess": 3, "act": 3}


def test_snapshot_restore_round_trip():
    src = host(0)
    inst = src.create_flow("f1")
    for seq in [*range(1, 8), 9, 10]:  # 8 is late, so 9 and 10 wait past the gap
        inst.offer(seq)
    state = src.release_flow("f1", forward_to=fog_id(1))
    assert len(state.operator_states) == 3
    assert state.cursor == 7
    assert state.pending == (9, 10)
    restored = FlowInstance.restore(state, fog_id(1))
    assert restored.snapshot().operator_states == state.operator_states
    assert restored.snapshot().cursor == state.cursor
    assert restored.offer(8) == [8, 9, 10]
    assert restored.operator_states == {"ingest": 10, "assess": 10, "act": 10}


def test_below_threshold_not_needed():
    src = host(0)
    src.create_flow("f1")
    policy = MigrationPolicy(t_upper=50.0, candidates=(fog_id(1), fog_id(2)))
    outcome = migration_source(src, "f1", 10.0, policy, respond=lambda c: True)
    assert outcome.kind == "not-needed"
    assert outcome.attempts == 0
    assert src.has_flow("f1")


def test_empty_group_warns_and_fails(caplog):
    src = host(0)
    src.create_flow("f1")
    policy = MigrationPolicy(t_upper=50.0, candidates=())
    with caplog.at_level(logging.WARNING):
        outcome = migration_source(src, "f1", 80.0, policy, respond=lambda c: True)
    assert outcome.kind == "failed"
    assert outcome.warned
    assert any("can not migrate" in r.message for r in caplog.records)
    assert src.has_flow("f1")


def test_reject_then_accept_consumes_candidates():
    src = host(0)
    src.create_flow("f1")
    a, b = fog_id(1), fog_id(2)
    answers = {a: False, b: True}
    policy = MigrationPolicy(t_upper=50.0, candidates=(a, b))
    outcome = migration_source(src, "f1", 80.0, policy, respond=lambda c: answers[c])
    assert outcome.kind == "migrated"
    assert outcome.target == b
    assert outcome.attempts == 2
    assert not src.has_flow("f1")
    assert src.forwarding["f1"] == b


def test_first_accept_migrates():
    src = host(0)
    src.create_flow("f1")
    policy = MigrationPolicy(t_upper=50.0, candidates=(fog_id(1),))
    outcome = migration_source(src, "f1", 80.0, policy, respond=lambda c: True)
    assert outcome.kind == "migrated"
    assert outcome.target == fog_id(1)
    assert not src.has_flow("f1")


def test_all_reject_exhausts_group(caplog):
    src = host(0)
    src.create_flow("f1")
    policy = MigrationPolicy(t_upper=50.0, candidates=(fog_id(1), fog_id(2), fog_id(3)))
    with caplog.at_level(logging.WARNING):
        outcome = migration_source(src, "f1", 80.0, policy, respond=lambda c: False)
    assert outcome.kind == "failed"
    assert outcome.attempts == 3
    assert outcome.warned
    assert src.has_flow("f1")


@pytest.mark.parametrize("group, max_attempts, asked", [
    (4, 2, 2),  # the bound stops the session before the group runs out
    (3, 9, 3),  # the group runs out before the bound
])
def test_attempt_bound_stops_the_session(caplog, group, max_attempts, asked):
    src = host(0)
    src.create_flow("f1")
    candidates = tuple(fog_id(k) for k in range(1, group + 1))
    policy = MigrationPolicy(t_upper=50.0, candidates=candidates, max_attempts=max_attempts)
    seen = []
    with caplog.at_level(logging.WARNING):
        outcome = migration_source(src, "f1", 80.0, policy,
                                   respond=lambda c: seen.append(c) and False)
    assert seen == list(candidates[:asked])
    assert outcome.kind == "failed"
    assert outcome.attempts == asked
    assert outcome.warned
    assert any("can not migrate" in r.message for r in caplog.records)
    assert src.has_flow("f1")


def test_unknown_flow_rejected():
    src = host(0)
    policy = MigrationPolicy(t_upper=50.0, candidates=(fog_id(1),))
    with pytest.raises(FlowNotResident):
        migration_source(src, "ghost", 80.0, policy, respond=lambda c: True)


def test_migration_end_installs_at_target():
    src, dst = host(0), host(1)
    inst = src.create_flow("f1")
    for seq in range(1, 5):
        inst.offer(seq)
    state = src.release_flow("f1", forward_to=dst.node)
    ack = on_migration_end(dst, state)
    assert ack == "ack:f1"
    assert dst.has_flow("f1")
    assert dst.flows["f1"].cursor == 4


def test_migration_end_full_target_rejects():
    src = host(0)
    src.create_flow("f1")
    state = src.release_flow("f1", forward_to=fog_id(1))
    full = host(1, queue_len=8, capacity=8)
    with pytest.raises(CapacityExceeded):
        on_migration_end(full, state)


def test_late_reject_bounces_back_and_retries():
    src = host(0)
    src.create_flow("f1")
    full = host(1, queue_len=8, capacity=8)
    ok = host(2)
    targets = {fog_id(1): full, fog_id(2): ok}

    def deliver(candidate, state):
        try:
            on_migration_end(targets[candidate], state)
            return None
        except CapacityExceeded:
            return state

    policy = MigrationPolicy(t_upper=50.0, candidates=(fog_id(1), fog_id(2)))
    outcome = migration_source(src, "f1", 80.0, policy, respond=lambda c: True, deliver_state=deliver)
    assert outcome.kind == "migrated"
    assert outcome.target == fog_id(2)
    assert outcome.attempts == 2
    assert ok.has_flow("f1")
    assert not src.has_flow("f1")


def test_reservation_survives_queue_growth():
    dst = host(1, queue_len=7, capacity=8)
    assert dst.accept_migration("f1")
    dst.pile.queue_len = 8  # fills up between accept and state arrival
    src = host(0)
    src.create_flow("f1")
    state = src.release_flow("f1", forward_to=dst.node)
    assert on_migration_end(dst, state) == "ack:f1"


def test_threshold_monotonicity():
    rng = random.Random(31)
    for _ in range(100):
        latency = rng.uniform(0, 200)
        low, high = sorted((rng.uniform(1, 200), rng.uniform(1, 200)))
        outcomes = {}
        for t_upper in (low, high):
            src = host(0)
            src.create_flow("f1")
            policy = MigrationPolicy(t_upper=t_upper, candidates=(fog_id(1),))
            outcomes[t_upper] = migration_source(
                src, "f1", latency, policy, respond=lambda c: True
            ).kind
        if outcomes[low] == "not-needed":
            assert outcomes[high] == "not-needed"


@pytest.mark.parametrize("latency, kind", [
    (50.0, "not-needed"),  # at the bound is not above it, as for the simulator's EWMA
    (math.nextafter(50.0, math.inf), "migrated"),
])
def test_a_latency_at_the_bound_does_not_migrate(latency, kind):
    src = host(0)
    src.create_flow("f1")
    policy = MigrationPolicy(t_upper=50.0, candidates=(fog_id(1),))
    assert migration_source(src, "f1", latency, policy, respond=lambda c: True).kind == kind


def test_exactly_once_with_mid_stream_migration():
    baseline = host(0)
    base_inst = baseline.create_flow("f1")
    for seq in range(1, 101):
        base_inst.offer(seq)

    src, dst = host(0), host(1)
    inst = src.create_flow("f1")
    for seq in range(1, 41):
        inst.offer(seq)

    def deliver(candidate, state):
        on_migration_end(dst, state)
        return None

    policy = MigrationPolicy(t_upper=50.0, candidates=(fog_id(1),))
    outcome = migration_source(src, "f1", 80.0, policy, respond=lambda c: True, deliver_state=deliver)
    assert outcome.kind == "migrated"

    remaining = list(range(41, 101))
    random.Random(3).shuffle(remaining)
    for seq in remaining:
        kind, _ = src.offer_event("f1", seq)
        assert kind == "forward"
        dst.offer_event("f1", seq)

    combined = inst.processed_log + dst.flows["f1"].processed_log
    assert combined == base_inst.processed_log == list(range(1, 101))
