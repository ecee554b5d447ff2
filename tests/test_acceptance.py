"""Acceptance gate: eight project-level checks, one test and one line each.

The three trend checks rerun the standard sweeps at their default settings
(base seed 1, 10 repetitions) and assert the qualitative shape of the
resulting latency curves. The remaining checks pin protocol correctness:
decision equivalence against a brute-force oracle, the migration state
machine, exactly-once event delivery across a migration, sweep determinism,
and event-engine ordering.
"""

import logging
import math
import random
import statistics

import numpy as np
import pytest

from gridfog.coordinator import aggregate, dispatch, filter_candidates
from gridfog.engine import EventQueue, RngStream, _stream_entropy
from gridfog.errors import SchedulingInPast
from gridfog.fognode import (
    FogNode,
    MigrationPolicy,
    PileState,
    evaluate_charging_request,
    migration_source,
    on_migration_end,
)
from gridfog.harness import default_sweep, emit_csv, run_sweep
from gridfog.messages import ServiceRequest
from gridfog.topology import (
    NodeStatus,
    Point2D,
    Registry,
    ResourceProfile,
    fog_id,
    report_status,
    terminal_id,
)

REPS = 10


def _rep_of(row) -> int:
    return int(row.run_id.split("/rep")[1].split("/")[0])


def _cells(table):
    """(swept_value, architecture) -> {rep: mean_latency_ms}."""
    out = {}
    for row in table:
        out.setdefault((row.swept_value, row.architecture), {})[
            _rep_of(row)] = row.mean_latency_ms
    return out


def _pooled(cells, value, arch):
    means = [cells[(value, arch)][rep] for rep in range(REPS)]
    assert all(m is not None for m in means)
    return statistics.mean(means)


# ----------------------------------------------------------------- trends

def test_acceptance_1_query_range_trend():
    table = run_sweep(default_sweep("range"))
    cells = _cells(table)
    values = sorted({row.swept_value for row in table})
    lo, second_hi, hi = values[0], values[-2], values[-1]

    families_ok = 0
    for rep in range(REPS):
        t = {v: cells[(v, "traditional")][rep] for v in values}
        c = {v: cells[(v, "coordinated")][rep] for v in values}
        if any(m is None for m in list(t.values()) + list(c.values())):
            continue
        ok = (c[second_hi] <= t[second_hi]
              and c[hi] <= t[hi]
              and t[hi] - c[hi] > 0.0
              and abs(c[lo] - t[lo]) <= 0.15 * t[lo])
        families_ok += ok
    assert families_ok >= 9, f"only {families_ok}/10 seed families hold"

    t_hi, c_hi = _pooled(cells, hi, "traditional"), _pooled(cells, hi, "coordinated")
    t2, c2 = _pooled(cells, second_hi, "traditional"), _pooled(cells, second_hi, "coordinated")
    t_lo, c_lo = _pooled(cells, lo, "traditional"), _pooled(cells, lo, "coordinated")
    assert c2 <= t2 and c_hi <= t_hi and t_hi - c_hi > 0.0
    assert abs(c_lo - t_lo) <= 0.15 * t_lo
    print(f"\nPASS 1/8: query-range trend ({families_ok}/10 families; "
          f"gap at {hi:g} m = {t_hi - c_hi:+.1f} ms; "
          f"smallest-range relative difference {abs(c_lo - t_lo) / t_lo:.1%})")


def test_acceptance_2_request_volume_trend():
    table = run_sweep(default_sweep("requests"))
    cells = _cells(table)
    values = sorted({row.swept_value for row in table})
    trad = [_pooled(cells, v, "traditional") for v in values]
    coord = [_pooled(cells, v, "coordinated") for v in values]
    assert all(b >= a for a, b in zip(trad, trad[1:])), f"traditional dips: {trad}"
    assert all(b >= a for a, b in zip(coord, coord[1:])), f"coordinated dips: {coord}"
    gap_lo = trad[0] - coord[0]
    gap_hi = trad[-1] - coord[-1]
    assert gap_hi >= gap_lo, f"gap shrank: {gap_lo:.1f} -> {gap_hi:.1f}"
    print(f"\nPASS 2/8: request-volume trend (both curves non-decreasing; "
          f"gap {gap_lo:+.1f} ms at {values[0]:g} -> {gap_hi:+.1f} ms "
          f"at {values[-1]:g})")


def test_acceptance_3_coordinator_count_trend():
    table = run_sweep(default_sweep("fnc"))
    cells = _cells(table)
    values = sorted({row.swept_value for row in table})
    coord = [_pooled(cells, v, "coordinated") for v in values]
    assert all(b <= a for a, b in zip(coord, coord[1:])), \
        f"latency rose with coordinator count: {coord}"
    steps = ", ".join(f"{b - a:+.1f}" for a, b in zip(coord, coord[1:]))
    print(f"\nPASS 3/8: coordinator-count trend (means "
          f"{', '.join(f'{m:.1f}' for m in coord)}; steps {steps} ms)")


# ----------------------------------------------------------- correctness

def test_acceptance_4_decision_matches_brute_force_oracle():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [2026, _stream_entropy("oracle")])))

    def disk_point(cx, cy, radius):
        """``RngStream.disk_point``'s sqrt-radius polar draw, on ``rng``."""
        r = radius * math.sqrt(rng.random())
        theta = rng.random() * 2.0 * math.pi
        return cx + r * math.cos(theta), cy + r * math.sin(theta)

    w_dist, w_wait = 1.0, 600.0
    service_per_hour = 30.0
    mismatches = 0
    for case in range(100):
        n_piles = int(rng.integers(8, 16))
        origin = Point2D(*disk_point(0.0, 0.0, 1000.0))
        query_range = 200.0 + 1800.0 * rng.random()
        registry = Registry()
        piles = {}
        queues = {}
        for k in range(n_piles):
            node = fog_id(k)
            loc = Point2D(*disk_point(0.0, 0.0, 1000.0))
            if k == 0:
                loc = origin  # guarantee one eligible candidate
            queue = int(rng.integers(0, 71))
            if k == 0:
                queue = min(queue, 63)
            queues[node] = queue
            piles[node] = PileState(node, loc, queue_len=queue,
                                    service_rate=service_per_hour)
            report_status(registry, NodeStatus(
                node, loc,
                ResourceProfile(capacity=64, queue_len=queue,
                                service_rate=service_per_hour / 3600.0),
                reported_at=0.0))
        request = ServiceRequest(
            request_id=f"case-{case}", requester=terminal_id(0),
            origin=origin, kind="charging-query",
            query_range_m=query_range, issued_at=0.0)

        candidates = filter_candidates(registry, request)
        jobs = dispatch(request, candidates, clock=0.0)
        results = [evaluate_charging_request(request, piles[j.assignee],
                                             (w_dist, w_wait))
                   for j in jobs]
        shuffled = list(results)
        random.Random(case).shuffle(shuffled)
        decision = aggregate(request.request_id, shuffled, clock=1.0)

        def score(node):
            dist = origin.distance_to(piles[node].location)
            return w_dist * dist + w_wait * queues[node] / service_per_hour

        eligible = [n for n in piles
                    if origin.distance_to(piles[n].location) <= query_range
                    and queues[n] < 64]
        best = min(eligible, key=lambda n: (score(n), n.ordinal, n))
        if decision.chosen != best:
            mismatches += 1
    assert mismatches == 0
    print("\nPASS 4/8: chosen pile equals brute-force argmin on 100/100 "
          "randomized instances")


def _migration_host(k: int) -> FogNode:
    pile = PileState(fog_id(k), Point2D(float(k), 0.0))
    return FogNode(pile, capacity=8)


def test_acceptance_5_migration_state_machine(caplog):
    # (a) observed latency below the bound: nothing moves
    src = _migration_host(0)
    src.create_flow("f")
    asked = []
    policy = MigrationPolicy(t_upper=50.0, candidates=(fog_id(1),))
    outcome = migration_source(src, "f", 30.0, policy,
                               respond=lambda c: asked.append(c) or True)
    assert outcome.kind == "not-needed"
    assert src.has_flow("f")
    assert asked == []

    # (b) first candidate accepts: released at the source, one attempt
    src, dst = _migration_host(0), _migration_host(1)
    src.create_flow("f")
    asked = []

    def deliver(candidate, state):
        on_migration_end(dst, state)

    policy = MigrationPolicy(t_upper=50.0, candidates=(fog_id(1), fog_id(2)))
    outcome = migration_source(src, "f", 80.0, policy,
                               respond=lambda c: asked.append(c) or True,
                               deliver_state=deliver)
    assert outcome.kind == "migrated"
    assert outcome.target == fog_id(1)
    assert outcome.attempts == 1
    assert asked == [fog_id(1)]
    assert not src.has_flow("f")
    assert src.forwarding["f"] == fog_id(1)
    assert dst.has_flow("f")

    # (c) reject then accept: V shrinks head-first, two attempts
    src, dst2 = _migration_host(0), _migration_host(2)
    src.create_flow("f")
    asked = []

    def deliver2(candidate, state):
        on_migration_end(dst2, state)

    policy = MigrationPolicy(t_upper=50.0,
                             candidates=(fog_id(1), fog_id(2), fog_id(3)))
    outcome = migration_source(
        src, "f", 80.0, policy,
        respond=lambda c: asked.append(c) or c == fog_id(2),
        deliver_state=deliver2)
    assert outcome.kind == "migrated"
    assert outcome.target == fog_id(2)
    assert outcome.attempts == 2
    assert asked == [fog_id(1), fog_id(2)]
    assert not src.has_flow("f")

    # (d) every candidate rejects, then an empty group: warned, kept local
    src = _migration_host(0)
    src.create_flow("f")
    asked = []
    policy = MigrationPolicy(t_upper=50.0,
                             candidates=(fog_id(1), fog_id(2), fog_id(3)))
    with caplog.at_level(logging.WARNING):
        outcome = migration_source(src, "f", 80.0, policy,
                                   respond=lambda c: asked.append(c) or False)
    assert outcome.kind == "failed"
    assert outcome.warned
    assert outcome.attempts == 3
    assert asked == [fog_id(1), fog_id(2), fog_id(3)]
    assert src.has_flow("f")
    assert any("can not migrate" in rec.message for rec in caplog.records)

    caplog.clear()
    src = _migration_host(0)
    src.create_flow("f")
    with caplog.at_level(logging.WARNING):
        outcome = migration_source(src, "f", 80.0,
                                   MigrationPolicy(t_upper=50.0, candidates=()),
                                   respond=lambda c: True)
    assert outcome.kind == "failed"
    assert outcome.warned
    assert src.has_flow("f")
    assert any("can not migrate" in rec.message for rec in caplog.records)
    print("\nPASS 5/8: migration state machine matches on all four paths")


def test_acceptance_6_exactly_once_across_migration():
    baseline = _migration_host(0)
    base_inst = baseline.create_flow("f")
    for seq in range(1, 1001):
        base_inst.offer(seq)

    src, dst = _migration_host(0), _migration_host(1)
    inst = src.create_flow("f")
    for seq in range(1, 401):
        inst.offer(seq)

    def deliver(candidate, state):
        on_migration_end(dst, state)

    policy = MigrationPolicy(t_upper=50.0, candidates=(fog_id(1),))
    outcome = migration_source(src, "f", 99.0, policy,
                               respond=lambda c: True, deliver_state=deliver)
    assert outcome.kind == "migrated"

    remaining = list(range(401, 1001))
    random.Random(6).shuffle(remaining)
    for seq in remaining:
        kind, _ = src.offer_event("f", seq)
        assert kind == "forward"
        dst.offer_event("f", seq)

    combined = inst.processed_log + dst.flows["f"].processed_log
    assert combined == base_inst.processed_log == list(range(1, 1001))
    print("\nPASS 6/8: 1000 events processed exactly once across a "
          "mid-stream migration")


def test_acceptance_7_sweep_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_csv(run_sweep(default_sweep("range")), first)
    emit_csv(run_sweep(default_sweep("range")), second)
    a, b = first.read_bytes(), second.read_bytes()
    assert a == b
    assert len(a.splitlines()) == 1 + 5 * REPS * 2
    print(f"\nPASS 7/8: full range sweep twice -> byte-identical CSV "
          f"({len(a)} bytes)")


def test_acceptance_8_event_engine_ordering():
    rng = RngStream(8, "engine")
    queue = EventQueue()
    expected = []
    for i in range(10_000):
        fire_at = 1_000_000.0 * rng.random()
        queue.schedule(fire_at, terminal_id(0), i)
        expected.append((fire_at, i))
    seen = []
    queue.run_until(2_000_000.0, lambda ev: seen.append((ev.fire_at, ev.seq)))
    assert len(seen) == 10_000
    assert seen == sorted(expected, key=lambda p: (p[0], p[1]))

    late = EventQueue()
    late.schedule(100.0, terminal_id(0), "x")
    late.run_until(100.0, lambda ev: None)
    with pytest.raises(SchedulingInPast):
        late.schedule(50.0, terminal_id(0), "y")
    late.schedule(100.0, terminal_id(0), "z")  # scheduling at the clock is fine
    print("\nPASS 8/8: 10k events fire in exact order; past scheduling "
          "is rejected")
