"""Placement, registry semantics, and range queries."""

import math
import random

import pytest

from gridfog.engine import RngStream
from gridfog.errors import StaleReport
from gridfog.topology import (
    Layer,
    NodeStatus,
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
