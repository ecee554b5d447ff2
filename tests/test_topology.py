"""Placement, registry semantics, and range queries."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from gridfog.engine import RngStream
from gridfog.errors import StaleReport
from gridfog.topology import (
    Layer,
    NodeRecord,
    NodeStatus,
    PileIndex,
    Point2D,
    Registry,
    ResourceProfile,
    fog_id,
    nodes_within,
    place_nodes,
    report_status,
    sector_centroid,
    sector_index,
    terminal_id,
)


def numeric_sector_centroid(k, n, radius, steps=2000):
    """Independent centroid estimate: grid integration in polar coordinates."""
    theta = 2.0 * math.pi / n
    sx = sy = area = 0.0
    for i in range(steps):
        r = (i + 0.5) / steps * radius
        dr = radius / steps
        for j in range(steps // 10):
            phi = k * theta + (j + 0.5) / (steps // 10) * theta
            dphi = theta / (steps // 10)
            w = r * dr * dphi
            sx += r * math.cos(phi) * w
            sy += r * math.sin(phi) * w
            area += w
    return sx / area, sy / area


def test_default_counts_give_33_records():
    rng = RngStream(1)
    records = place_nodes(20, 10, 2, 2000.0, rng)
    assert len(records) == 33
    assert [r.node.layer for r in records].count("cloud") == 1
    for rec in records:
        if rec.node.layer in ("terminal", "fog"):
            assert math.hypot(rec.location.x, rec.location.y) <= 1000.0 + 1e-9


def test_zero_counts_still_place_cloud():
    records = place_nodes(0, 0, 0, 2000.0, RngStream(1))
    assert len(records) == 1
    assert records[0].node.layer == "cloud"


def test_four_fnc_sector_centroids():
    records = place_nodes(0, 0, 4, 2000.0, RngStream(1))
    fncs = [r for r in records if r.node.layer == "fnc"]
    assert len(fncs) == 4
    for k, rec in enumerate(sorted(fncs, key=lambda r: r.node)):
        ex, ey = numeric_sector_centroid(k, 4, 1000.0)
        assert rec.location.x == pytest.approx(ex, abs=1.0)
        assert rec.location.y == pytest.approx(ey, abs=1.0)


def test_single_fnc_sits_at_center():
    p = sector_centroid(0, 1, 1000.0)
    assert p.x == pytest.approx(0.0)
    assert p.y == pytest.approx(0.0)


def test_sector_index_partitions_fncs_to_own_sector():
    for n in (1, 2, 3, 4, 7):
        for k in range(n):
            c = sector_centroid(k, n, 1000.0)
            if n == 1:
                assert sector_index(Point2D(1.0, 0.0), 1) == 0
            else:
                assert sector_index(c, n) == k


def test_placement_deterministic():
    a = place_nodes(20, 10, 2, 2000.0, RngStream(42))
    b = place_nodes(20, 10, 2, 2000.0, RngStream(42))
    assert a == b


def test_placement_stable_when_counts_grow():
    small = place_nodes(5, 3, 2, 2000.0, RngStream(7))
    big = place_nodes(8, 6, 2, 2000.0, RngStream(7))
    by_id_small = {r.node: r.location for r in small}
    by_id_big = {r.node: r.location for r in big}
    for node, loc in by_id_small.items():
        if node.layer in ("terminal", "fog"):
            assert by_id_big[node] == loc


def status(node, x, y, t, queue_len=0):
    return NodeStatus(
        node, Point2D(x, y), ResourceProfile(capacity=64, queue_len=queue_len), t
    )


def test_first_report_registers_node():
    reg = Registry()
    report_status(reg, status(fog_id(3), 10.0, 0.0, 0.0))
    assert fog_id(3) in reg
    assert len(reg) == 1


def test_newer_report_replaces():
    reg = Registry()
    report_status(reg, status(fog_id(3), 10.0, 0.0, 0.0))
    report_status(reg, status(fog_id(3), 10.0, 0.0, 5.0, queue_len=5))
    assert reg.get(fog_id(3)).resources.queue_len == 5
    assert len(reg) == 1


def test_stale_report_rejected_and_registry_unchanged():
    reg = Registry()
    report_status(reg, status(fog_id(3), 10.0, 0.0, 5.0))
    before = reg.entries()
    with pytest.raises(StaleReport):
        report_status(reg, status(fog_id(3), 99.0, 0.0, 4.0))
    assert reg.entries() == before


def test_identical_rereport_is_noop():
    reg = Registry()
    s = status(fog_id(1), 1.0, 2.0, 3.0)
    report_status(reg, s)
    before = reg.entries()
    report_status(reg, s)
    assert reg.entries() == before


def test_nodes_within_zero_range():
    reg = Registry()
    report_status(reg, status(fog_id(0), 10.0, 0.0, 0.0))
    assert nodes_within(reg, Point2D(0.0, 0.0), 0.0, Layer.FOG) == []


def test_nodes_within_full_range_returns_all_fog():
    reg = Registry()
    rng = random.Random(3)
    for i in range(10):
        report_status(
            reg, status(fog_id(i), rng.uniform(-900, 900), rng.uniform(-400, 400), 0.0)
        )
    report_status(reg, status(terminal_id(0), 0.0, 0.0, 0.0))
    found = nodes_within(reg, Point2D(0.0, 0.0), 2000.0, Layer.FOG)
    assert sorted(found) == [fog_id(i) for i in range(10)]


def test_nodes_within_matches_brute_force():
    rng = random.Random(17)
    reg = Registry()
    placed = {}
    for i in range(60):
        x, y = rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)
        node = fog_id(i) if i % 2 == 0 else terminal_id(i)
        placed[node] = (x, y)
        report_status(reg, status(node, x, y, 0.0))
    center = Point2D(120.0, -80.0)
    expected = sorted(
        (math.hypot(x - center.x, y - center.y), node)
        for node, (x, y) in placed.items()
        if node.layer == "fog" and math.hypot(x - center.x, y - center.y) <= 500.0
    )
    assert nodes_within(reg, center, 500.0, Layer.FOG) == [n for _, n in expected]


def test_nodes_within_monotone_in_range():
    rng = random.Random(23)
    reg = Registry()
    for i in range(40):
        report_status(
            reg, status(fog_id(i), rng.uniform(-1000, 1000), rng.uniform(-1000, 1000), 0.0)
        )
    center = Point2D(0.0, 0.0)
    for _ in range(20):
        r1 = rng.uniform(0, 1500)
        r2 = r1 + rng.uniform(0, 500)
        inner = set(nodes_within(reg, center, r1, Layer.FOG))
        outer = set(nodes_within(reg, center, r2, Layer.FOG))
        assert inner <= outer


def test_nodes_within_sees_nodes_that_join_or_move_after_a_query():
    reg = Registry()
    report_status(reg, status(fog_id(0), 10.0, 0.0, 0.0))
    center = Point2D(0.0, 0.0)
    assert nodes_within(reg, center, 50.0, Layer.FOG) == [fog_id(0)]
    report_status(reg, status(fog_id(1), 5.0, 0.0, 1.0))
    assert nodes_within(reg, center, 50.0, Layer.FOG) == [fog_id(1), fog_id(0)]
    report_status(reg, status(fog_id(0), 1.0, 0.0, 2.0))
    assert nodes_within(reg, center, 50.0, Layer.FOG) == [fog_id(0), fog_id(1)]
    report_status(reg, status(fog_id(1), 500.0, 0.0, 3.0))
    assert nodes_within(reg, center, 50.0, Layer.FOG) == [fog_id(0)]


def test_point_is_a_tuple_with_the_dataclass_face():
    p = Point2D(3.0, -4.0)
    assert repr(p) == "Point2D(x=3.0, y=-4.0)"
    assert Point2D._fields == ("x", "y")
    assert hash(p) == hash((3.0, -4.0))
    assert p.distance_to(Point2D(0.0, 0.0)) == 5.0


# PileIndex against the all-pile scans it replaced in the simulator.

def scan_within(locations, center, range_m):
    return sorted(
        (loc.distance_to(center), node)
        for node, loc in locations.items()
        if loc.distance_to(center) <= range_m
    )


def scan_nearest(locations, point):
    if not locations:
        return None
    return min(locations, key=lambda node: (locations[node].distance_to(point), node))


def index_of(locations):
    return PileIndex([NodeRecord(node, loc) for node, loc in locations.items()])


coords = st.floats(-2000.0, 2000.0, allow_nan=False)
points = st.builds(Point2D, coords, coords)


@st.composite
def pile_sets(draw):
    """Piles at random points, or drawn from a few points so many coincide.

    Ordinals are shuffled against insertion order, so a tie broken by index
    position instead of by NodeId shows.
    """
    pool = draw(st.one_of(
        st.lists(points, max_size=40),
        st.lists(points, min_size=1, max_size=4).flatmap(
            lambda few: st.lists(st.sampled_from(few), max_size=40)),
    ))
    ordinals = draw(st.permutations(range(len(pool))))
    return {fog_id(i): p for i, p in zip(ordinals, pool)}


@given(pile_sets(), points, st.floats(0.0, 6000.0))
def test_pile_index_within_matches_scan(locations, center, range_m):
    assert index_of(locations).within(center, range_m) == scan_within(locations, center, range_m)


@given(pile_sets(), points, st.data())
def test_pile_index_keeps_a_pile_exactly_at_range(locations, center, data):
    if not locations:
        return
    node = data.draw(st.sampled_from(sorted(locations)))
    range_m = locations[node].distance_to(center)
    hits = index_of(locations).within(center, range_m)
    assert (range_m, node) in hits
    assert hits == scan_within(locations, center, range_m)


@given(pile_sets(), points)
def test_pile_index_range_below_every_distance_is_empty(locations, center):
    closest = min((loc.distance_to(center) for loc in locations.values()), default=1.0)
    range_m = math.nextafter(closest, -math.inf)
    assert index_of(locations).within(center, range_m) == []
    assert scan_within(locations, center, range_m) == []


@given(pile_sets(), points)
def test_pile_index_nearest_matches_scan(locations, point):
    assert index_of(locations).nearest(point) == scan_nearest(locations, point)


def test_pile_index_coincident_piles_tie_by_node():
    here = Point2D(3.0, 4.0)
    locations = {fog_id(7): here, fog_id(2): here, fog_id(5): Point2D(30.0, 40.0)}
    index = index_of(locations)
    assert index.nearest(Point2D(0.0, 0.0)) == fog_id(2)
    assert index.within(Point2D(0.0, 0.0), 5.0) == [(5.0, fog_id(2)), (5.0, fog_id(7))]


def test_pile_index_without_piles():
    index = PileIndex([])
    assert index.within(Point2D(0.0, 0.0), 1e9) == []
    assert index.nearest(Point2D(0.0, 0.0)) is None
