"""Per-layer wrappers for the traced run, one group per gridfog module.

Names that ``scenario.py`` (and ``coordinator.py``, ``harness.py``,
``cli.py``) import with ``from .x import name`` are looked up in the
importing module, so each is patched there as well as in its home module;
otherwise the wrapper would count zero calls.  README.md in this directory
maps each metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import gridfog
from gridfog import cli, coordinator, engine, fognode, harness, metrics, scenario, topology
from tracer import Tracer

# Payload types the simulator transmits, in protocol order.  FlowEventMsg is
# defined but not sent yet; its count turns non-zero once flows get events.
PAYLOAD_TYPES = (
    "ServiceRequest", "JobDispatch", "JobResult", "Decision", "FailureNotice",
    "StatusReportMsg", "LatencyComplaint", "StartMigration", "MigrationResponse",
    "ObjectStateMsg", "MigrationAck", "FlowEventMsg",
)

_MIGRATION_SPANS = (
    "fognode.MigrationSourceSession", "fognode.begin", "fognode.on_response",
    "fognode.on_ack", "fognode.accept_migration", "fognode.on_migration_end",
)


def _event_request(event):
    payload = event.payload
    request_id = getattr(payload, "request_id", None)
    if request_id is None:
        request_id = getattr(getattr(payload, "request", None), "request_id", None)
    return request_id


def _send_request(sim, src, dst, payload, request_id=None):
    return request_id


def install(t: Tracer) -> None:
    """Wrap the public functions of every gridfog module in ``t``."""
    n, v = t.counts, t.sums
    last_link = [0.0]

    # engine -----------------------------------------------------------
    def after_run_until(_, processed, queue, deadline, handler):
        n["engine.events"] += processed
        n["engine.events_left"] += len(queue)

    handler_span = t.spanned("scenario.handler", request_of=_event_request)
    run_until_span = t.spanned("engine.run_until", after=after_run_until)

    def make_run_until(fn):
        def run_until(queue, deadline, handler):
            return fn(queue, deadline, handler_span(handler))
        return run_until_span(run_until)

    t.patch([engine.EventQueue], "run_until", make_run_until)
    t.patch([engine.EventQueue], "schedule", t.spanned("engine.schedule"))

    def keep_link(result, *args, **kwargs):
        last_link[0] = result

    t.patch([engine, scenario, gridfog], "link_latency",
            t.counted("engine.link_latency", after=keep_link))
    t.patch([engine.RngStream], "__post_init__", t.spanned("engine.rng_stream"))

    # topology ---------------------------------------------------------
    t.patch([topology, scenario], "place_nodes", t.spanned("topology.place_nodes"))

    def before_report(registry, status):
        existing = registry.get(status.node)
        return existing is not None and existing.reported_at == status.reported_at

    def after_report(noop, result, registry, status):
        n["topology.report_noop"] += noop

    t.patch([topology, scenario], "report_status",
            t.spanned("topology.report_status", before=before_report, after=after_report))

    def after_nodes_within(_, hits, registry, center, range_m, layer):
        n["topology.scanned"] += len(registry)
        n["topology.returned"] += len(hits)

    t.patch([topology, coordinator], "nodes_within",
            t.spanned("topology.nodes_within", after=after_nodes_within))
    t.patch([topology.Registry], "entries", t.spanned("topology.registry_entries"))
    t.patch([topology.Point2D], "distance_to", t.counted("topology.distance"))

    # coordinator ------------------------------------------------------
    t.patch([coordinator, scenario], "filter_candidates",
            t.spanned("coordinator.filter_candidates",
                      request_of=lambda registry, request: request.request_id))

    def after_dispatch(_, jobs, request, candidates, clock):
        n["coordinator.fanout"] += len(jobs)

    t.patch([coordinator, scenario], "dispatch",
            t.spanned("coordinator.dispatch",
                      request_of=lambda request, candidates, clock: request.request_id,
                      after=after_dispatch))

    def after_aggregate(_, decision, request_id, results, clock):
        n["coordinator.results"] += len(results)

    t.patch([coordinator, scenario], "aggregate",
            t.spanned("coordinator.aggregate",
                      request_of=lambda request_id, results, clock: request_id,
                      after=after_aggregate))

    # fognode ----------------------------------------------------------
    t.patch([fognode, scenario], "evaluate_charging_request",
            t.spanned("fognode.evaluate",
                      request_of=lambda request, pile, weights: request.request_id))
    session = fognode.MigrationSourceSession
    t.patch([session], "__init__", t.spanned("fognode.MigrationSourceSession"))
    t.patch([session], "begin", t.spanned("fognode.begin"))
    t.patch([session], "on_response", t.spanned("fognode.on_response"))

    def after_ack(_, step, *args, **kwargs):
        n["fognode.migrated"] += step.kind == "done"

    t.patch([session], "on_ack", t.spanned("fognode.on_ack", after=after_ack))

    def after_accept(_, accepted, host, flow_id):
        n["fognode.accepted"] += bool(accepted)

    t.patch([fognode.FogNode], "accept_migration",
            t.spanned("fognode.accept_migration", after=after_accept))
    t.patch([fognode, scenario], "on_migration_end", t.spanned("fognode.on_migration_end"))
    t.patch([fognode.FlowInstance], "offer", t.counted("fognode.flow_offer"))

    # scenario ---------------------------------------------------------
    sim_cls = scenario.Simulation
    t.patch([sim_cls], "__init__", t.spanned("scenario.init"))

    def after_run(_, sim_, *args):
        n["scenario.trace_rows"] += len(getattr(sim_, "trace", ()))
        v["scenario.sim_ms"] += sim_.queue.clock

    t.patch([sim_cls], "run", t.spanned("scenario.run", after=after_run))

    def before_send(sim_, *args, **kwargs):
        return sim_.queue.clock

    def after_wireless(sent_at, arrival, sim_, src, dst, payload, request_id=None):
        n["scenario.sent." + type(payload).__name__] += 1
        air = sim_.channel.air_ms
        v["scenario.airtime_ms"] += air
        v["scenario.channel_wait_ms"] += arrival - sent_at - air - last_link[0]

    def after_wired(_, arrival, sim_, src, dst, payload, request_id=None):
        n["scenario.sent." + type(payload).__name__] += 1

    t.patch([sim_cls], "send_wireless",
            t.spanned("scenario.send_wireless", request_of=_send_request,
                      before=before_send, after=after_wireless))
    t.patch([sim_cls], "send_wired",
            t.spanned("scenario.send_wired", request_of=_send_request, after=after_wired))
    t.patch([sim_cls], "summary_row", t.spanned("metrics.summary_row"))

    # metrics ----------------------------------------------------------
    t.patch([metrics, scenario, gridfog], "percentile_nearest_rank",
            t.counted("metrics.percentile"))

    # harness / cli ----------------------------------------------------
    def after_sweep(_, table, spec):
        n["harness.cells"] += len(table)

    t.patch([harness, cli, gridfog], "run_sweep",
            t.spanned("harness.run_sweep", after=after_sweep))
    t.patch([harness, cli, gridfog], "emit_csv", t.spanned("harness.emit_csv"))
    t.patch([harness, cli, gridfog], "parse_csv", t.spanned("harness.parse_csv"))
    t.patch([harness, cli, gridfog], "emit_plot_data", t.spanned("harness.plot_data"))
    t.patch([cli], "main", t.spanned("cli.main"))


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced workload repetition.

    Ratios with an empty base read 0.  ``engine.events_per_s`` and the
    ``trace.*`` metrics need the untraced wall time, so ``run.py`` adds them.
    """
    calls, secs, n, v = t.calls, t.total_s, t.counts, t.sums

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "engine.events": n["engine.events"],
        "engine.loop_self_s": secs["engine.run_until"] - secs["scenario.handler"],
        "engine.schedule_calls": calls["engine.schedule"],
        "engine.schedule_s": secs["engine.schedule"],
        "engine.events_left": n["engine.events_left"],
        "engine.link_latency_calls": n["engine.link_latency"],
        "engine.rng_streams": calls["engine.rng_stream"],
        "engine.rng_stream_s": secs["engine.rng_stream"],
        "topology.place_nodes_s": secs["topology.place_nodes"],
        "topology.report_status_calls": calls["topology.report_status"],
        "topology.report_status_s": secs["topology.report_status"],
        "topology.report_noop_ratio": ratio(n["topology.report_noop"],
                                            calls["topology.report_status"]),
        "topology.nodes_within_calls": calls["topology.nodes_within"],
        "topology.nodes_within_s": secs["topology.nodes_within"],
        "topology.range_hit_ratio": ratio(n["topology.returned"], n["topology.scanned"]),
        "topology.registry_entries_calls": calls["topology.registry_entries"],
        "topology.registry_entries_s": secs["topology.registry_entries"],
        "topology.distance_calls": n["topology.distance"],
        "coordinator.filter_candidates_calls": calls["coordinator.filter_candidates"],
        "coordinator.filter_candidates_s": secs["coordinator.filter_candidates"],
        "coordinator.fanout_mean": ratio(n["coordinator.fanout"], calls["coordinator.dispatch"]),
        "coordinator.dispatch_s": secs["coordinator.dispatch"],
        "coordinator.aggregate_calls": calls["coordinator.aggregate"],
        "coordinator.aggregate_s": secs["coordinator.aggregate"],
        "coordinator.results_per_decision": ratio(n["coordinator.results"],
                                                  calls["coordinator.aggregate"]),
        "fognode.evaluate_calls": calls["fognode.evaluate"],
        "fognode.evaluate_s": secs["fognode.evaluate"],
        "fognode.migration_sessions": calls["fognode.MigrationSourceSession"],
        "fognode.migration_steps": (calls["fognode.begin"] + calls["fognode.on_response"]
                                    + calls["fognode.on_ack"]),
        "fognode.migration_s": sum(secs[name] for name in _MIGRATION_SPANS),
        "fognode.migrated_ratio": ratio(n["fognode.migrated"],
                                        calls["fognode.MigrationSourceSession"]),
        "fognode.accept_ratio": ratio(n["fognode.accepted"], calls["fognode.accept_migration"]),
        "fognode.flow_offers": n["fognode.flow_offer"],
        "scenario.init_s": secs["scenario.init"],
        "scenario.handler_s": secs["scenario.handler"],
        "scenario.send_wireless_calls": calls["scenario.send_wireless"],
        "scenario.send_wireless_s": secs["scenario.send_wireless"],
        "scenario.send_wired_calls": calls["scenario.send_wired"],
        "scenario.send_wired_s": secs["scenario.send_wired"],
        "scenario.trace_rows": n["scenario.trace_rows"],
        "scenario.channel_wait_ms_mean": ratio(v["scenario.channel_wait_ms"],
                                               calls["scenario.send_wireless"]),
        "scenario.channel_busy_share": ratio(v["scenario.airtime_ms"], v["scenario.sim_ms"]),
        "metrics.percentile_calls": n["metrics.percentile"],
        "metrics.summary_row_s": secs["metrics.summary_row"],
        "harness.cells": n["harness.cells"],
        "harness.run_sweep_s": secs["harness.run_sweep"],
        "harness.emit_csv_s": secs["harness.emit_csv"],
        "harness.parse_csv_s": secs["harness.parse_csv"],
        "harness.plot_data_s": secs["harness.plot_data"],
        "cli.main_s": secs["cli.main"],
    }
    for kind in PAYLOAD_TYPES:
        out["scenario.sent." + kind] = n["scenario.sent." + kind]
    return out
