"""Watch a serving dataflow migrate between charging piles.

Part one drives the migration handshake by hand on two isolated fog
nodes: a latency complaint above the bound makes the source offer its
flow around the candidate group, ship the operator state, and leave a
forwarding stub behind, while in-flight events keep being processed
exactly once.

Part two lowers the latency bound inside a full simulation until nearly
every EV complains, then prints the audit trail the run leaves behind.

Run:  python3 demos/migration_walkthrough.py
"""

import random

from gridfog import ScenarioConfig, run_scenario
from gridfog.fognode import (
    FogNode,
    MigrationPolicy,
    PileState,
    migration_source,
    on_migration_end,
)
from gridfog.topology import Point2D, fog_id


def hand_driven():
    print("-- by hand ------------------------------------------------")
    src = FogNode(PileState(fog_id(0), Point2D(0.0, 0.0)), capacity=8)
    dst = FogNode(PileState(fog_id(1), Point2D(900.0, 0.0)), capacity=8)
    flow = src.create_flow("ev-7-session")
    for seq in range(1, 6):
        flow.offer(seq)
    print(f"source processed events {flow.processed_log} before the complaint")

    def deliver(candidate, state):
        on_migration_end(dst, state)

    policy = MigrationPolicy(t_upper=400.0, candidates=(fog_id(1),))
    outcome = migration_source(src, "ev-7-session", 712.0, policy,
                               respond=lambda c: True, deliver_state=deliver)
    print(f"observed 712 ms > bound 400 ms -> {outcome.kind} to "
          f"{outcome.target} in {outcome.attempts} attempt(s)")

    late = [8, 6, 9, 7, 10]  # arrive at the old address, out of order
    for seq in late:
        kind, target = src.offer_event("ev-7-session", seq)
        assert kind == "forward"
        dst.offer_event("ev-7-session", seq)
    log = dst.flows["ev-7-session"].processed_log
    print(f"late events {late} forwarded by the stub; target resumed "
          f"in order: {log}\n")


def in_simulation():
    print("-- inside a run --------------------------------------------")
    cfg = ScenarioConfig(seed=42, t_upper_ms=250.0)
    sim = run_scenario(cfg)
    migrated = [a for a in sim.audits if a.outcome == "migrated"]
    failed = [a for a in sim.audits if a.outcome == "failed"]
    print(f"latency bound forced down to {cfg.t_upper_ms:.0f} ms: "
          f"{len(migrated)} migrations, {len(failed)} failed attempts\n")
    for audit in sim.audits[:8]:
        where = str(audit.target) if audit.target is not None else "nowhere"
        print(f"  {audit.flow_id:>18}: {audit.source} -> {where:>7} "
              f"({audit.outcome}, trigger {audit.trigger_latency_ms:5.1f} ms, "
              f"{audit.attempts} attempt(s))")
    if len(sim.audits) > 8:
        print(f"  ... and {len(sim.audits) - 8} more")


def main():
    random.seed(0)
    hand_driven()
    in_simulation()


if __name__ == "__main__":
    main()
