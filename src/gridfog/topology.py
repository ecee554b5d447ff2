"""Node identity, arena placement, the status registry and the pile index.

The arena is a circle (2000 m diameter by default).  Terminals and fog
nodes (charging piles) are placed uniformly at random inside it; each
fog node coordinator (FNC) sits at the centroid of its equal angular
sector; the cloud is a single logical record at the arena center that
no message reaches.  Piles never move once placed, so a run indexes
their positions once; a registry holds only what reports say.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .engine import RngStream, SimTime
from .errors import StaleReport


class Layer:
    """The layer tags that ``NodeId.layer`` takes."""

    TERMINAL = "terminal"
    FOG = "fog"
    FNC = "fnc"
    CLOUD = "cloud"


class NodeId(NamedTuple):
    """Layer tag plus ordinal, e.g. ``fog-3``.  Totally ordered.

    A plain tuple underneath, so hashing and ordering run in C.
    """

    layer: str
    ordinal: int

    def __str__(self) -> str:
        return f"{self.layer}-{self.ordinal}"


def terminal_id(ordinal: int) -> NodeId:
    return NodeId(Layer.TERMINAL, ordinal)


def fog_id(ordinal: int) -> NodeId:
    return NodeId(Layer.FOG, ordinal)


def fnc_id(ordinal: int) -> NodeId:
    return NodeId(Layer.FNC, ordinal)


def cloud_id(ordinal: int = 0) -> NodeId:
    return NodeId(Layer.CLOUD, ordinal)


class Point2D(NamedTuple):
    x: float
    y: float

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class ResourceProfile:
    """Compute capacity, pending-job count, and drain rate of a node."""

    capacity: int
    queue_len: int = 0
    service_rate: float = 0.01  # jobs per virtual second

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError("capacity must be > 0")
        if self.queue_len < 0:
            raise ValueError("queue_len must be >= 0")
        if self.service_rate <= 0:
            raise ValueError("service_rate must be > 0")


@dataclass(frozen=True)
class NodeStatus:
    """One periodic report: who, where, and how loaded, at what time."""

    node: NodeId
    location: Point2D
    resources: ResourceProfile
    reported_at: SimTime


@dataclass(frozen=True)
class NodeRecord:
    """Static placement record produced by ``place_nodes``."""

    node: NodeId
    location: Point2D


class Registry:
    """Latest status per node, as one coordinator sees it.

    Entries are replaced only by strictly newer reports; an identical
    re-report is a no-op and an older one raises StaleReport.  ``statuses``
    is a read-only live view of them.  A registry keeps no geometry of its
    own: a run's range queries read its one ``PileIndex``.
    """

    def __init__(self):
        self._entries: dict[NodeId, NodeStatus] = {}
        self.statuses: Mapping[NodeId, NodeStatus] = MappingProxyType(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._entries

    def get(self, node: NodeId) -> NodeStatus | None:
        return self._entries.get(node)

    def entries(self) -> list[NodeStatus]:
        return sorted(self._entries.values(), key=lambda s: s.node)


def report_status(registry: Registry, status: NodeStatus) -> Registry:
    """Fold one report into the registry (mutating it) and return it."""
    existing = registry._entries.get(status.node)
    if existing is not None:
        if status.reported_at < existing.reported_at:
            raise StaleReport(
                f"{status.node}: report at {status.reported_at} older than "
                f"stored {existing.reported_at}"
            )
        if status.reported_at == existing.reported_at:
            return registry
    registry._entries[status.node] = status
    return registry


def nodes_within(
    registry: Registry, center: Point2D, range_m: float, layer: str
) -> list[NodeId]:
    """Registered nodes of ``layer`` within ``range_m`` of ``center``.

    Sorted by ascending distance, ties broken by NodeId: a scan of every
    report, with the bits and the order that ``PileIndex.within`` promises.
    """
    if range_m < 0:
        raise ValueError("range_m must be >= 0")
    hits = sorted((math.dist(status.location, center), node)
                  for node, status in registry.statuses.items() if node.layer == layer)
    return [node for distance, node in hits if distance <= range_m]


class PileIndex:
    """Static node positions, indexed once for range and nearest-node queries.

    Built from anything with a ``node`` and a ``location``, such as the
    simulator's pile records; it keeps only those two.  numpy only narrows
    each query down to the nodes worth an exact test.  Its distances may
    differ from ``Point2D.distance_to`` in the last bit, so they are
    compared with a relative slack far above that, plus an absolute one
    for distances in the subnormal range, where a relative slack adds
    nothing.  ``math.dist``, which takes ``hypot`` of the coordinate
    differences just as ``Point2D.distance_to`` does, and a ``(distance,
    node)`` sort or min on the survivors then decide, so the answers equal
    those of a scan over every node.
    """

    _REL_SLACK = 1e-9
    _ABS_SLACK = 1e-300  # m

    def __init__(self, piles: Iterable[NodeRecord]):
        piles = list(piles)
        self._nodes = [r.node for r in piles]
        self._locations = [r.location for r in piles]
        # x + iy: one subtraction and one abs give every distance.
        self._xy = np.array([complex(p.x, p.y) for p in self._locations], dtype=complex)

    def _distances(self, point: Point2D) -> np.ndarray:
        return np.abs(self._xy - complex(point.x, point.y))

    def _exact(self, point: Point2D, d: np.ndarray, bound: float) -> list[tuple[float, NodeId]]:
        """``(distance, pile)`` for the piles whose ``d`` is not clearly above ``bound``."""
        keep = d <= bound * (1.0 + self._REL_SLACK) + self._ABS_SLACK
        locations, nodes = self._locations, self._nodes
        return [(math.dist(locations[i], point), nodes[i]) for i in keep.nonzero()[0].tolist()]

    def within(self, center: Point2D, range_m: float) -> list[tuple[float, NodeId]]:
        """``(distance, pile)`` for every pile within ``range_m`` of ``center``, sorted."""
        hits = self._exact(center, self._distances(center), range_m)
        hits.sort()
        return hits[:bisect_right(hits, range_m, key=itemgetter(0))]

    def nearest(self, point: Point2D) -> NodeId | None:
        """The pile closest to ``point``, ties broken by NodeId; None without piles."""
        if not self._nodes:
            return None
        d = self._distances(point)
        return min(self._exact(point, d, float(d[d.argmin()])))[1]


def sector_index(point: Point2D, n_sectors: int) -> int:
    """Which equal angular sector (measured from +x, counterclockwise) holds the point."""
    if n_sectors <= 0:
        raise ValueError("n_sectors must be > 0")
    angle = math.atan2(point.y, point.x) % (2.0 * math.pi)
    return min(int(angle / (2.0 * math.pi / n_sectors)), n_sectors - 1)


def sector_centroid(k: int, n_sectors: int, radius: float) -> Point2D:
    """Centroid of the k-th of ``n_sectors`` equal sectors of the arena disk."""
    theta = 2.0 * math.pi / n_sectors
    d = 0.0 if n_sectors == 1 else (4.0 * radius / (3.0 * theta)) * math.sin(theta / 2.0)
    angle = (k + 0.5) * theta
    return Point2D(d * math.cos(angle), d * math.sin(angle))


def place_nodes(
    n_terminals: int,
    n_fog: int,
    n_fnc: int,
    arena_diameter_m: float,
    rng: RngStream,
) -> list[NodeRecord]:
    """Place every node for a run; always includes exactly one cloud record.

    Terminals and fog nodes draw their positions from per-node child
    streams, so changing one count never moves other nodes.  FNCs sit at
    their sector centroids; the cloud sits at the center.
    """
    if min(n_terminals, n_fog, n_fnc) < 0:
        raise ValueError("node counts must be >= 0")
    if arena_diameter_m <= 0:
        raise ValueError("arena diameter must be > 0")
    radius = arena_diameter_m / 2.0
    records: list[NodeRecord] = []
    for node in [*map(terminal_id, range(n_terminals)), *map(fog_id, range(n_fog))]:
        x, y = rng.child(str(node)).disk_point(0.0, 0.0, radius)
        records.append(NodeRecord(node, Point2D(x, y)))
    for k in range(n_fnc):
        records.append(NodeRecord(fnc_id(k), sector_centroid(k, n_fnc, radius)))
    records.append(NodeRecord(cloud_id(), Point2D(0.0, 0.0)))
    return records
