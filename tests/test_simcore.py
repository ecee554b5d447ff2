"""Event engine, latency formula, and RNG stream behavior."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfog import engine
from gridfog.engine import EventQueue, LatencyModel, RngStream, link_latency
from gridfog.errors import SchedulingInPast


class P:
    def __init__(self, x, y):
        self.x = x
        self.y = y


def test_schedule_first_event():
    q = EventQueue()
    ev = q.schedule(5.0, "n1", "hello")
    assert len(q) == 1
    assert ev.seq == 0
    assert ev.fire_at == 5.0


def test_equal_fire_at_pops_fifo():
    q = EventQueue()
    q.schedule(3.0, "a", "first")
    q.schedule(3.0, "b", "second")
    seen = []
    q.run_until(10.0, lambda ev: seen.append(ev.payload))
    assert seen == ["first", "second"]


def test_schedule_in_past_rejected():
    q = EventQueue()
    q.schedule(7.0, "a", "x")
    q.run_until(7.0, lambda ev: None)
    assert q.clock == 7.0
    with pytest.raises(SchedulingInPast):
        q.schedule(3.0, "a", "y")


def test_run_until_empty_queue_advances_clock():
    q = EventQueue()
    assert q.run_until(100.0, lambda ev: None) == 0
    assert q.clock == 100.0


def test_run_until_respects_deadline():
    q = EventQueue()
    for t in (1.0, 2.0, 3.0):
        q.schedule(t, "a", t)
    assert q.run_until(2.0, lambda ev: None) == 2
    assert len(q) == 1


def test_run_until_processes_follow_ups():
    q = EventQueue()

    def handler(ev):
        q.schedule(ev.fire_at + 1.0, ev.target, ev.payload)

    q.schedule(0.0, "a", "tick")
    # Chain fires at 0,1,2,3,4,5; the follow-up at 6 stays queued.
    assert q.run_until(5.0, handler) == 6
    assert len(q) == 1


def test_run_until_clock_tracks_last_event():
    q = EventQueue()
    assert q.seq == -1  # no event handled yet
    q.schedule(4.0, "a", "x")
    reserved = q.reserve()
    q.schedule(6.0, "a", "y")
    seen = []
    q.run_until(10.0, lambda ev: seen.append((ev.seq, q.seq, q.clock)))
    assert seen == [(0, 0, 4.0), (reserved + 1, reserved + 1, 6.0)]
    assert q.clock == 10.0

    q2 = EventQueue()
    q2.schedule(4.0, "a", "x")
    q2.run_until(4.0, lambda ev: None)
    assert q2.clock == 4.0


def test_link_latency_zero_distance():
    m = LatencyModel(base_ms=2.0)
    p = P(10.0, -3.0)
    assert link_latency(m, p, p, 0.0) == 2.0


def test_link_latency_propagation():
    m = LatencyModel(base_ms=2.0, prop_ms_per_m=0.01)
    assert link_latency(m, P(0, 0), P(1000, 0), 0.0) == pytest.approx(12.0)


def test_link_latency_receiver_load():
    m = LatencyModel(base_ms=2.0, prop_ms_per_m=0.01, proc_ms_per_unit=0.5)
    assert link_latency(m, P(0, 0), P(0, 1000), 4.0) == pytest.approx(14.0)


def test_link_latency_symmetry():
    rng = random.Random(42)
    m = LatencyModel(base_ms=1.5, prop_ms_per_m=0.02, proc_ms_per_unit=0.7)
    for _ in range(200):
        a = P(rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
        b = P(rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
        load = rng.uniform(0, 20)
        assert link_latency(m, a, b, load) == pytest.approx(link_latency(m, b, a, load))


def test_negative_coefficients_rejected():
    with pytest.raises(ValueError):
        LatencyModel(base_ms=-1.0)


def test_event_order_is_total():
    rng = random.Random(7)
    q = EventQueue()
    for i in range(10_000):
        q.schedule(rng.uniform(0.0, 1000.0), "n", i)
    seen = []
    q.run_until(1000.0, lambda ev: seen.append((ev.fire_at, ev.seq)))
    assert len(seen) == 10_000
    assert seen == sorted(seen)
    assert len({s for _, s in seen}) == 10_000


def test_a_block_reservation_takes_consecutive_numbers():
    q = EventQueue()
    q.schedule(1.0, "n", "before")
    first = q.reserve(4)
    assert first == 1
    assert q.schedule(1.0, "n", "after").seq == first + 4
    assert len(q) == 2  # a reservation stores nothing
    seen = []
    q.run_until(1.0, lambda ev: seen.append(ev.payload))
    assert seen == ["before", "after"]


def test_clock_never_rewinds_in_handler():
    rng = random.Random(19)
    q = EventQueue()
    observed = []

    def handler(ev):
        observed.append(q.clock)
        if q.clock < 500.0 and rng.random() < 0.5:
            q.schedule(q.clock + rng.uniform(0.0, 50.0), "n", None)

    for _ in range(100):
        q.schedule(rng.uniform(0.0, 400.0), "n", None)
    q.run_until(600.0, handler)
    assert observed == sorted(observed)


def test_rng_stream_reproducible():
    a = RngStream(123, "alpha")
    b = RngStream(123, "alpha")
    assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]


def test_rng_streams_differ_by_name_and_seed():
    base = [RngStream(123, "alpha").random() for _ in range(10)]
    other_name = [RngStream(123, "beta").random() for _ in range(10)]
    other_seed = [RngStream(124, "alpha").random() for _ in range(10)]
    assert base != other_name
    assert base != other_seed


def test_child_streams_stable_under_new_nodes():
    root = RngStream(99)
    first = [root.child(f"node-{i}").random() for i in range(5)]
    root2 = RngStream(99)
    again = [root2.child(f"node-{i}").random() for i in range(6)]
    assert first == again[:5]


def numpy_stream(seed, entropy):
    """numpy's own generator for a stream: SeedSequence, then PCG64, then Generator."""
    seq = np.random.SeedSequence([seed & (2**64 - 1), entropy])
    return np.random.Generator(np.random.PCG64(seq))


def assert_draws_match(stream, gen):
    state = gen.bit_generator.state["state"]
    assert (stream.state, stream.inc) == (state["state"], state["inc"])
    assert [stream.random() for _ in range(8)] == [gen.random() for _ in range(8)]
    r, theta = 300.0 * math.sqrt(gen.random()), gen.random() * 2.0 * math.pi
    assert stream.disk_point(5.0, -7.0, 300.0) == (5.0 + r * math.cos(theta),
                                                    -7.0 + r * math.sin(theta))
    # The stream fetches numpy's bulk draws, 8 then 16 then 32; numpy draws these one by one.
    bulk = stream.exponentials(2.5)
    assert [next(bulk) for _ in range(30)] == [float(gen.exponential(2.5)) for _ in range(30)]
    gen.exponential(2.5, size=26)  # the rest of the third batch
    assert stream.random() == gen.random()


seeds = st.one_of(
    st.integers(-(2**70), -1), st.just(0), st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**70))


@settings(deadline=None)
@given(seed=seeds, names=st.lists(st.text(), min_size=1, max_size=4))
def test_streams_match_numpy(seed, names):
    # One batch for every name, and each stream alone, checked against numpy's own objects.
    root = RngStream.with_children(seed, names)
    assert_draws_match(root, numpy_stream(seed, engine._stream_entropy("root")))
    for name in names:
        entropy = engine._stream_entropy(f"root/{name}")
        assert_draws_match(root.child(name), numpy_stream(seed, entropy))
        assert_draws_match(RngStream(seed, f"root/{name}"), numpy_stream(seed, entropy))


@pytest.mark.parametrize("seed", [-5, 0, 7, 2**32 + 3, 2**64 + 11])
def test_short_entropy_rows_match_numpy(seed, monkeypatch):
    # An entropy below 2**32 is one word to numpy; no name reaches it in
    # practice, so a batch mixing it with two-word rows is made by hand.
    entropies = {"zero": 0, "one-word": 0xDEADBEEF, "two-word": 2**32, "full": 2**64 - 1}
    monkeypatch.setattr(engine, "_stream_entropy", entropies.__getitem__)
    states = engine.stream_states(seed, list(entropies))
    for (state, inc), (name, entropy) in zip(states, entropies.items()):
        assert_draws_match(RngStream(seed, name, state, inc), numpy_stream(seed, entropy))
        assert_draws_match(RngStream(seed, name), numpy_stream(seed, entropy))


def test_disk_point_inside_radius():
    rng = RngStream(5, "disk")
    for _ in range(1000):
        x, y = rng.disk_point(0.0, 0.0, 1000.0)
        assert math.hypot(x, y) <= 1000.0 + 1e-9


def test_disk_point_roughly_uniform():
    # Half the area of the disk lies inside r/sqrt(2): check the split.
    rng = RngStream(11, "disk")
    n = 20_000
    inner = sum(
        1
        for _ in range(n)
        if math.hypot(*rng.disk_point(0.0, 0.0, 1000.0)) <= 1000.0 / math.sqrt(2)
    )
    assert abs(inner / n - 0.5) < 0.02
