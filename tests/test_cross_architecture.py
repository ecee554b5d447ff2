"""Both architectures decide alike when no link costs anything.

With every link, processing and FNC service cost at 0, a request reaches
its FNC, and its broadcast copies reach every pile in range, the instant it
is issued.  A job and a copy's computation are then handled at the same
instant, at the same load, and each reply lands 0.0001 ms before the
window's deadline.  With capacity and latency bounds out of reach, no pile
is filtered out and no flow migrates, so the FNC and the broadcasting
terminal choose the same pile at the same instant for every request.  A
distance weight of 0 makes most scores tie, which both must break alike.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gridfog.scenario import ScenarioConfig, Simulation

FREE_LINKS = dict(
    wireless_base_ms=0.0, wireless_prop_ms_per_m=0.0, wireless_air_ms=0.0,
    backhaul_base_ms=0.0, backhaul_prop_ms_per_m=0.0, proc_ms_per_unit=0.0,
    fnc_service_ms=0.0, compute_ms=499.9999, aggregation_timeout_ms=500.0,
    capacity=10**6, t_upper_ms=10**9,
)


@st.composite
def free_link_configs(draw):
    w_dist = draw(st.sampled_from([0.0, 1.0]))
    return dict(
        FREE_LINKS,
        seed=draw(st.integers(0, 2**32 - 1)),
        n_terminals=draw(st.integers(1, 20)),
        n_fog=draw(st.integers(0, 15)),
        n_fnc=draw(st.integers(1, 4)),
        arena_diameter_m=draw(st.floats(100.0, 3000.0)),
        query_range_m=draw(st.floats(50.0, 3000.0)),
        request_rate=draw(st.floats(0.0, 120.0)),
        sim_duration_ms=draw(st.floats(1000.0, 8000.0)),
        service_rate_per_hour=draw(st.sampled_from([30.0, 3600.0, 36000.0])),
        mobility_speed_mps=draw(st.floats(0.0, 30.0)),
        mobility_step_ms=draw(st.floats(100.0, 1000.0)),
        w_dist=w_dist,
        w_wait=draw(st.sampled_from([1.0, 600.0] if w_dist == 0.0 else [0.0, 1.0, 600.0])),
    )


def decisions(config: dict, architecture: str) -> list:
    sim = Simulation(ScenarioConfig(**config, architecture=architecture)).run()
    return [(o.request_id, o.chosen, o.decided_at) for o in sim.outcomes]


@settings(deadline=None)
@given(free_link_configs())
def test_free_links_give_both_architectures_the_same_decisions(config):
    assert decisions(config, "traditional") == decisions(config, "coordinated")
