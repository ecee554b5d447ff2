"""Candidate filtering, dispatch, and aggregation."""

import random

import pytest

from gridfog.coordinator import aggregate, dispatch, filter_candidates
from gridfog.errors import EmptyResultSet, NoEligibleNodes
from gridfog.messages import JobDispatch, JobResult, ServiceRequest
from gridfog.topology import (
    NodeStatus,
    Point2D,
    Registry,
    ResourceProfile,
    fog_id,
    report_status,
    terminal_id,
)


def request_at(x, y, range_m=500.0, request_id="r1"):
    return ServiceRequest(
        request_id=request_id,
        requester=terminal_id(0),
        origin=Point2D(x, y),
        kind="charging-query",
        query_range_m=range_m,
        issued_at=0.0,
    )


def register_pile(reg, ordinal, x, y, queue_len=0, capacity=64, t=0.0):
    report_status(
        reg,
        NodeStatus(
            fog_id(ordinal),
            Point2D(x, y),
            ResourceProfile(capacity=capacity, queue_len=queue_len),
            t,
        ),
    )


def test_single_nearby_pile_is_candidate():
    reg = Registry()
    register_pile(reg, 0, 100.0, 0.0)
    assert filter_candidates(reg, request_at(0, 0, 500.0)) == [fog_id(0)]


def test_out_of_range_piles_raise():
    reg = Registry()
    register_pile(reg, 0, 900.0, 0.0)
    register_pile(reg, 1, 0.0, -800.0)
    with pytest.raises(NoEligibleNodes):
        filter_candidates(reg, request_at(0, 0, 500.0))


def test_congested_piles_excluded():
    reg = Registry()
    register_pile(reg, 0, 100.0, 0.0, queue_len=64, capacity=64)
    register_pile(reg, 1, 200.0, 0.0, queue_len=63, capacity=64)
    assert filter_candidates(reg, request_at(0, 0, 500.0)) == [fog_id(1)]


def test_candidates_match_brute_force():
    rng = random.Random(11)
    reg = Registry()
    placed = {}
    for i in range(10):
        x, y = rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)
        queue = rng.choice([0, 2, 64])
        placed[fog_id(i)] = (x, y, queue)
        register_pile(reg, i, x, y, queue_len=queue)
    req = request_at(50.0, -20.0, 700.0)
    expected = sorted(
        (Point2D(x, y).distance_to(req.origin), node)
        for node, (x, y, queue) in placed.items()
        if queue < 64 and Point2D(x, y).distance_to(req.origin) <= 700.0
    )
    assert filter_candidates(reg, req) == [n for _, n in expected]


def test_candidate_monotonicity_in_range():
    rng = random.Random(13)
    reg = Registry()
    for i in range(12):
        register_pile(reg, i, rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
    for _ in range(20):
        r1 = rng.uniform(100, 1500)
        r2 = r1 + rng.uniform(0, 500)
        try:
            small = set(filter_candidates(reg, request_at(0, 0, r1)))
        except NoEligibleNodes:
            small = set()
        large = set(filter_candidates(reg, request_at(0, 0, r2)))
        assert small <= large


def test_dispatch_one_per_candidate():
    req = request_at(0, 0)
    candidates = [fog_id(i) for i in range(4)]
    jobs = dispatch(req, candidates, clock=12.0)
    assert len(jobs) == 4
    assert {j.assignee for j in jobs} == set(candidates)
    assert all(j.dispatched_at == 12.0 and j.request_id == "r1" for j in jobs)


def test_dispatch_single_candidate():
    jobs = dispatch(request_at(0, 0), [fog_id(3)], clock=0.0)
    assert len(jobs) == 1


def test_dispatch_requires_candidates():
    with pytest.raises(NoEligibleNodes):
        dispatch(request_at(0, 0), [], clock=0.0)


def test_job_messages_are_tuples_with_the_dataclass_face():
    req = request_at(0.0, 0.0)
    [job] = dispatch(req, [fog_id(3)], clock=12.0)
    result = JobResult("r1", fog_id(2), 5.0)
    assert repr(job) == (
        "JobDispatch(request=ServiceRequest(request_id='r1', "
        "requester=NodeId(layer='terminal', ordinal=0), origin=Point2D(x=0.0, y=0.0), "
        "kind='charging-query', query_range_m=500.0, issued_at=0.0), "
        "assignee=NodeId(layer='fog', ordinal=3), dispatched_at=12.0)"
    )
    assert repr(result) == (
        "JobResult(request_id='r1', responder=NodeId(layer='fog', ordinal=2), score=5.0)"
    )
    assert JobDispatch._fields == ("request", "assignee", "dispatched_at")
    assert JobResult._fields == ("request_id", "responder", "score")
    assert hash(job) == hash((req, fog_id(3), 12.0))
    assert hash(result) == hash(("r1", fog_id(2), 5.0))
    assert job.request_id == "r1"


def test_aggregate_single_result():
    d = aggregate("r1", [JobResult("r1", fog_id(2), 5.0)], clock=30.0)
    assert d.chosen == fog_id(2)
    assert d.decided_at == 30.0


def test_aggregate_tie_breaks_by_ordinal():
    results = [
        JobResult("r1", fog_id(5), 3.0),
        JobResult("r1", fog_id(2), 2.0),
        JobResult("r1", fog_id(1), 2.0),
    ]
    assert aggregate("r1", results, clock=0.0).chosen == fog_id(1)


def test_aggregate_matches_argmin_oracle():
    rng = random.Random(17)
    for _ in range(50):
        results = [
            JobResult("r1", fog_id(i), rng.uniform(0, 100)) for i in range(10)
        ]
        rng.shuffle(results)
        decision = aggregate("r1", results, clock=1.0)
        best = min(r.score for r in results)
        winners = [r.responder for r in results if r.score == best]
        assert decision.chosen == min(winners, key=lambda n: n.ordinal)


def test_aggregate_empty_results():
    with pytest.raises(EmptyResultSet):
        aggregate("r1", [], clock=0.0)


def test_aggregate_ignores_foreign_request_ids():
    with pytest.raises(EmptyResultSet):
        aggregate("r1", [JobResult("r2", fog_id(0), 1.0)], clock=0.0)
