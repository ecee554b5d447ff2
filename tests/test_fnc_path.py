"""The simulator's FNC path against the step-by-step reference in ``coordinator``.

``Simulation`` dispatches in one loop over its pile index's range hits and
decides in one loop over the booked jobs, which stops at the first job that
cannot win.  For any registry, loads, range and weights it must give what
``filter_candidates -> dispatch -> score_piles -> aggregate`` gives, whose
range query scans every report rather than the index: the same
candidates in the same order, the same chosen pile, the same bits for every
score it reads, a reference score above the chosen one for every pile it
skips, and the same error where a score is not finite.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

from gridfog import scenario
from gridfog.coordinator import aggregate, dispatch, filter_candidates
from gridfog.errors import NoEligibleNodes
from gridfog.fognode import score_piles
from gridfog.messages import Decision, FailureNotice, ServiceRequest
from gridfog.scenario import RequestOutcome, ScenarioConfig, Simulation
from gridfog.topology import (
    NodeStatus,
    PileIndex,
    Point2D,
    Registry,
    ResourceProfile,
    fnc_id,
    fog_id,
    report_status,
    terminal_id,
)

CAPACITY = 4
FNC = fnc_id(0)
coordinate = st.floats(-300.0, 300.0)
point = st.tuples(coordinate, coordinate)


@st.composite
def fnc_cases(draw):
    """Piles on a few shared spots, the loads the registry shows and the true ones."""
    spots = draw(st.lists(point, min_size=1, max_size=4))
    reported = st.one_of(st.sampled_from((CAPACITY - 1, CAPACITY)), st.integers(0, CAPACITY))
    piles = draw(st.lists(st.tuples(st.sampled_from(spots), reported, st.integers(0, 2 * CAPACITY)),
                          min_size=1, max_size=10))
    origin = draw(point)
    # A range that ends exactly on a spot, or any other.
    edges = [d for spot in spots if (d := math.dist(origin, spot)) > 0.0]
    range_m = draw(st.one_of(st.sampled_from(edges), st.floats(0.5, 800.0))
                   if edges else st.floats(0.5, 800.0))
    # (1.0, 1e300) overflows the stopping rule's bound, so every job is
    # scored; (1e306, 600.0) overflows it, and the score, of a pile past ~180 m.
    weights = draw(st.sampled_from([(1.0, 600.0), (0.0, 600.0), (1.0, 0.0), (0.25, 3.0),
                                    (1.0, 1e300), (1e306, 600.0)]))
    return piles, origin, range_m, weights


def fnc_path(piles, origin, range_m, weights):
    """The simulator's answer: (candidates in order, reply or error, score per pile read)."""
    cfg = ScenarioConfig(architecture="coordinated", n_terminals=1, n_fog=len(piles), n_fnc=1,
                         w_dist=weights[0], w_wait=weights[1], capacity=CAPACITY,
                         aggregation_timeout_ms=10_000.0)
    sim = Simulation(cfg)
    registry = sim.registries[FNC] = Registry()
    for i, (spot, reported, load) in enumerate(piles):
        pile = sim.piles[fog_id(i)].pile
        pile.location = sim.positions[pile.node] = Point2D(*spot)
        pile.queue_len = load
        report_status(registry, NodeStatus(pile.node, pile.location,
                                           ResourceProfile(CAPACITY, reported), 0.0))
    sim.pile_index = PileIndex(host.pile for host in sim.piles.values())  # the moved piles
    request = ServiceRequest("terminal-0/r0", terminal_id(0), Point2D(*origin),
                             "charging-query", range_m, 0.0)
    sim._outcome_by_id[request.request_id] = RequestOutcome(request.request_id,
                                                            request.requester, 0.0)
    replies, scores = [], {}
    sim.send_wireless = lambda src, dst, payload, request_id=None: replies.append(payload)

    def recording(request, pile, load, weights):
        scores[pile.node] = score = offer_score(request, pile, load, weights)
        return score

    offer_score = scenario.offer_score
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "offer_score", recording)
        sim._fnc_process(FNC, request)
        window = sim._windows.get(request.request_id)
        order = None if window is None else [pile.node for _, _, pile in window.jobs]
        if window is not None:
            try:
                sim._agg_timeout(FNC, scenario._Deadline(request.request_id))
            except ValueError as error:
                replies.append(error)
    [reply] = replies
    return sim, registry, request, order, reply, scores


@given(fnc_cases())
@example(([((0.0, 0.0), CAPACITY, 0), ((5.0, 0.0), CAPACITY, 1)], (1.0, 0.0), 50.0,
          (1.0, 600.0))).via("every pile full")
@example(([((10.0, 0.0), 0, 2), ((10.0, 0.0), CAPACITY - 1, 2), ((0.0, 10.0), 1, 2)],
          (0.0, 0.0), 10.0, (0.0, 600.0))).via("duplicate spots, equal scores")
@example(([((25.0, 0.0), 0, 0), ((5.0, 0.0), 1, 1)], (0.0, 0.0), 50.0,
          (1.0, 600.0))).via("a farther pile's distance term ties the best and its lower id wins")
@example(([((30.0, 0.0), 0, 0), ((5.0, 0.0), 1, 1), ((10.0, 0.0), 1, 2)], (0.0, 0.0), 50.0,
          (0.0, 600.0))).via("no distance weight, the farthest pile wins")
@example(([((1.0, 0.0), 0, 0), ((300.0, 0.0), 0, 0)], (0.0, 0.0), 400.0,
          (1e306, 600.0))).via("the bound overflows, and so does the far pile's score")
def test_the_fnc_path_matches_the_reference_chain(case):
    sim, registry, request, order, reply, scores = fnc_path(*case)
    try:
        candidates = filter_candidates(registry, request)
    except NoEligibleNodes:
        assert order is None
        assert reply == FailureNotice(request.request_id, "no-eligible-nodes")
        return
    jobs = dispatch(request, candidates, 0.0)
    assert order == [job.assignee for job in jobs]
    offers = [(sim.piles[job.assignee].pile, sim.piles[job.assignee].pile.queue_len)
              for job in jobs]
    try:
        results = score_piles(request, offers, case[3])
    except ValueError as error:
        assert type(reply) is ValueError and reply.args == error.args
        return
    expected = aggregate(request.request_id, results, 0.0)
    assert reply == Decision(request.request_id, expected.chosen, 0.0)
    reference = {r.responder: r.score for r in results}
    assert {node: score.hex() for node, score in scores.items()} == {
        node: reference[node].hex() for node in scores}
    best = reference[expected.chosen]
    assert all(score > best for node, score in reference.items() if node not in scores)
