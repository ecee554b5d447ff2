"""Self-tests of the benchmark: ``python3 -m pytest bench`` from the repo root.

They run tiny configurations, so they check the tracer's bookkeeping and
the benchmark's contract, not the recorded digests of the full workloads.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gridfog import ScenarioConfig, Simulation, engine, scenario  # noqa: E402
from tracer import Tracer  # noqa: E402

# Small enough for a unit test, and every decision latency EWMA crosses
# t_upper_ms, so migration sessions run to completion inside the horizon.
TINY = dict(architecture="coordinated", n_terminals=40, n_fog=20, n_fnc=2,
            sim_duration_ms=20_000.0, t_upper_ms=340.0)


def traced_run(config: ScenarioConfig):
    with Tracer() as t:
        layers.install(t)
        sim = Simulation(config).run()
    return sim, layers.layer_metrics(t)


def test_engine_events_equal_run_until_return():
    with Tracer() as t:
        layers.install(t)
        sim = Simulation(ScenarioConfig(seed=3, **TINY))
        processed = sim.queue.run_until(1e12, sim._handle)
    got = layers.layer_metrics(t)
    assert processed > 0
    assert got["engine.events"] == processed
    assert got["engine.events_left"] == len(sim.queue) == 0


def test_send_calls_sum_to_messages_total():
    for arch in ("coordinated", "traditional"):
        sim, got = traced_run(ScenarioConfig(seed=5, **{**TINY, "architecture": arch}))
        sent = got["scenario.send_wireless_calls"] + got["scenario.send_wired_calls"]
        assert sent == sim.messages_total > 0
        assert sum(got["scenario.sent." + k] for k in layers.PAYLOAD_TYPES) == sent
        assert got["scenario.trace_rows"] == len(sim.trace)


def test_migration_sessions_equal_audits():
    sim, got = traced_run(ScenarioConfig(seed=3, **TINY))
    assert got["fognode.migration_sessions"] == len(sim.audits) > 0
    migrated = sum(1 for a in sim.audits if a.outcome == "migrated")
    assert got["fognode.migrated_ratio"] == migrated / len(sim.audits)


def test_spans_have_parents_requests_and_self_time():
    with Tracer() as t:
        layers.install(t)
        Simulation(ScenarioConfig(seed=3, **TINY)).run()
    names = [t.span_names[i] for i in t.name]
    handler = t.span_names.index("scenario.handler")
    for pos, name in enumerate(names):
        if name == "coordinator.dispatch":
            assert t.name[t.parent[pos]] == handler
            assert t.request[pos] == t.request[t.parent[pos]] >= 0
    for name, total in t.total_s.items():
        assert 0.0 <= t.self_s[name] <= total + 1e-9


def test_every_wrapper_is_restored():
    t = Tracer()
    layers.install(t)
    patched = list(t._saved)
    assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    t.close()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    Simulation(ScenarioConfig(seed=3, **TINY)).run()
    assert not t.calls and not t.counts
    assert engine.EventQueue.run_until.__qualname__ == "EventQueue.run_until"
    assert scenario.filter_candidates.__module__ == "gridfog.coordinator"


@pytest.mark.parametrize("name, run", [
    ("sweep", lambda seed, d: workloads.sweep("fnc", seed, d, reps=1)),
    ("city", functools.partial(workloads.city, TINY)),
])
def test_traced_digest_equals_untraced(tmp_path, name, run):
    plain = run(7, tmp_path)
    with Tracer() as t:
        layers.install(t)
        traced = run(7, tmp_path)
    assert traced == plain
    assert run(8, tmp_path) != plain


def test_stopwatch_stamps_without_changing_output(tmp_path):
    plain = workloads.city(TINY, 7, tmp_path)
    stopwatch = measure.Stopwatch()
    with Tracer() as t:
        stopwatch.install(t)
        stamped = workloads.city(TINY, 7, tmp_path)
        sim = Simulation(ScenarioConfig(seed=7, **TINY))
        processed = sim.queue.run_until(1e12, sim._handle)
    assert stamped == plain
    assert engine.EventQueue.run_until.__qualname__ == "EventQueue.run_until"
    per_run = 2 + processed // measure.EVENTS_PER_STAMP  # entry to and exit from __init__
    assert processed >= measure.EVENTS_PER_STAMP
    assert len(stopwatch.ends) == 2 * per_run
    assert list(stopwatch.in_setup) == 2 * ([0, 1] + [0] * (per_run - 2))
    whole, setup = stopwatch.scaled_seconds()
    assert 0 < setup < whole


def test_scaled_seconds_divide_by_the_probes_around_each_interval():
    # Thirty 1 s intervals; from the 15th stamp on the probe takes twice as
    # long, so the intervals whose nearby probes are mostly slow count half.
    stopwatch = measure.Stopwatch()
    for i in range(31):
        stopwatch.ends.append(float(i))
        stopwatch.starts.append(float(i))
        stopwatch.probes.append((1 if i < 15 else 2) * measure.PROBE_S)
        stopwatch.in_setup.append(i in (1, 20))
    assert measure.PROBE_WINDOW == 5
    assert stopwatch.host_seconds() == 30.0
    assert stopwatch.scaled_seconds() == (14 + 16 * 0.5, 1 + 0.5)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    declared = [m["name"] for m in spec["per_layer"]]
    computed = layers.layer_metrics(Tracer())
    added_by_run = {"engine.events_per_s", "trace.overhead_s", "trace.spans"}
    assert len(declared) == len(set(declared))
    assert set(declared) == set(computed) | added_by_run


def test_recorded_digests_cover_the_default_seed():
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text())
    assert set(recorded) == set(workloads.WORKLOADS)
    assert all("1" in seeds for seeds in recorded.values())


def test_peak_memory_adds_up_concurrent_children():
    size_mib = 32
    hold = (f"b = b'x' * ({size_mib} << 20); import sys; "
            "sys.stdout.write('.'); sys.stdout.flush(); sys.stdin.read()")
    before = run._tree_rss_kib(os.getpid())
    children = [subprocess.Popen([sys.executable, "-c", hold], stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE) for _ in range(2)]
    try:
        for child in children:
            assert child.stdout.read(1) == b"."
        grown = run._tree_rss_kib(os.getpid()) - before
    finally:
        for child in children:
            child.stdin.close()
            child.wait()
    assert grown >= 2 * size_mib * 1024
