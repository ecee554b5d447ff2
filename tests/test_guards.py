"""Argument checks of the simulator's building blocks, each with its own message."""

import re

import pytest

from gridfog.engine import RngStream
from gridfog.errors import FlowNotResident
from gridfog.fognode import (
    FlowState,
    FogNode,
    MigrationPolicy,
    MigrationSourceSession,
    PileState,
)
from gridfog.messages import ServiceRequest
from gridfog.metrics import percentile_nearest_rank
from gridfog.topology import (
    Layer,
    Point2D,
    Registry,
    ResourceProfile,
    fog_id,
    nodes_within,
    place_nodes,
    sector_index,
    terminal_id,
)

HERE = Point2D(0.0, 0.0)


def host_of(flow_id=None):
    host = FogNode(PileState(fog_id(0), HERE))
    if flow_id is not None:
        host.create_flow(flow_id)
    return host


def session(candidates):
    return MigrationSourceSession(host_of("f1"), "f1", MigrationPolicy(50.0, candidates))


GUARDS = [
    # fognode
    ("flow-state-cursor", lambda: FlowState("f1", (), -1, fog_id(0)),
     ValueError, "cursor must be >= 0"),
    ("policy-threshold", lambda: MigrationPolicy(0.0, ()),
     ValueError, "t_upper must be > 0"),
    ("policy-duplicates", lambda: MigrationPolicy(50.0, (fog_id(1), fog_id(1))),
     ValueError, "candidate group contains duplicates"),
    ("policy-attempts", lambda: MigrationPolicy(50.0, (fog_id(1),), max_attempts=0),
     ValueError, "max_attempts must be >= 1"),
    ("policy-attempts-float", lambda: MigrationPolicy(50.0, (fog_id(1),), max_attempts=1.5),
     ValueError, "max_attempts must be an integer"),
    ("policy-attempts-bool", lambda: MigrationPolicy(50.0, (fog_id(1),), max_attempts=True),
     ValueError, "max_attempts must be an integer"),
    ("pile-queue", lambda: PileState(fog_id(0), HERE, queue_len=-1),
     ValueError, "queue_len must be >= 0"),
    ("pile-rate", lambda: PileState(fog_id(0), HERE, service_rate=0.0),
     ValueError, "service_rate must be > 0"),
    ("node-capacity", lambda: FogNode(PileState(fog_id(0), HERE), capacity=0),
     ValueError, "capacity must be > 0"),
    ("event-for-absent-flow", lambda: host_of().offer_event("ghost", 1),
     FlowNotResident, "ghost"),
    ("release-absent-flow", lambda: host_of().release_flow("ghost", fog_id(1)),
     FlowNotResident, "ghost"),
    ("source-in-its-group", lambda: session((fog_id(1), fog_id(0))),
     ValueError, "candidate group must not include the source"),
    ("response-before-start", lambda: session((fog_id(1),)).on_response(True),
     RuntimeError, "no outstanding candidate"),
    # messages
    ("request-range", lambda: ServiceRequest("r1", terminal_id(0), HERE, "charging-query",
                                             0.0, 0.0),
     ValueError, "query_range_m must be > 0"),
    # metrics
    ("percentile-of-nothing", lambda: percentile_nearest_rank([], 95.0),
     ValueError, "no values"),
    ("percentile-q-zero", lambda: percentile_nearest_rank([1.0], 0.0),
     ValueError, "q must be in (0, 100]"),
    ("percentile-q-above", lambda: percentile_nearest_rank([1.0], 100.5),
     ValueError, "q must be in (0, 100]"),
    # topology
    ("profile-capacity", lambda: ResourceProfile(capacity=0),
     ValueError, "capacity must be > 0"),
    ("profile-queue", lambda: ResourceProfile(capacity=1, queue_len=-1),
     ValueError, "queue_len must be >= 0"),
    ("profile-rate", lambda: ResourceProfile(capacity=1, service_rate=0.0),
     ValueError, "service_rate must be > 0"),
    ("negative-range", lambda: nodes_within(Registry(), HERE, -1.0, Layer.FOG),
     ValueError, "range_m must be >= 0"),
    ("no-sectors", lambda: sector_index(HERE, 0),
     ValueError, "n_sectors must be > 0"),
    ("negative-count", lambda: place_nodes(1, -1, 1, 100.0, RngStream(1)),
     ValueError, "node counts must be >= 0"),
    ("empty-arena", lambda: place_nodes(1, 1, 1, 0.0, RngStream(1)),
     ValueError, "arena diameter must be > 0"),
]


@pytest.mark.parametrize("call, error, message",
                         [pytest.param(*case[1:], id=case[0]) for case in GUARDS])
def test_a_bad_argument_raises_its_own_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
