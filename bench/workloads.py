"""The three benchmark workloads and the bytes each one hands its user.

Every workload part runs gridfog in this process, writes its CSV output
into a scratch directory, checks that output for consistency, and returns
the hex sha256 over the output bytes.  The digest is canonical: node ids are
written as their text form and floats with ``repr``, so it changes only
when a value a user can see changes, never when an internal type does.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
from pathlib import Path

from gridfog import cli, harness, metrics, scenario

SWEEPS = ("range", "requests", "fnc")
SWEEP_REPS = 10

# Coordinated city: the FNC path (filter, dispatch to ~300 candidates,
# aggregate) dominates.  t_upper_ms sits between the median and the p95 of
# decision latency, so the migration protocol runs inside the simulator.
CITY_COORDINATED = dict(
    architecture="coordinated", n_terminals=1000, n_fog=500, n_fnc=4,
    sim_duration_ms=5000.0, t_upper_ms=350.0,
)
# Broadcast city: every request scans all 1000 piles to reach ~10 in range;
# registry, coordinator and migration stay idle.
CITY_BROADCAST = dict(
    architecture="traditional", n_terminals=100, n_fog=1000, query_range_m=100.0,
    sim_duration_ms=300_000.0,
)
# Each city workload runs its city on this many seeds, derived from the
# workload's seed, so that one seed's placement does not set the host time.
CITY_RUNS = 3

OUTCOME_FIELDS = ("request_id", "terminal", "issued_at", "decided_at", "latency_ms",
                  "chosen", "messages_used", "failure")
AUDIT_FIELDS = ("flow_id", "source", "target", "attempts", "outcome",
                "trigger_latency_ms", "t_upper_ms", "warned")


class OutputError(Exception):
    """The program's output failed a consistency check."""


def _text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _record(kind: str, obj, names) -> bytes:
    return (",".join([kind, *(_text(getattr(obj, name)) for name in names)]) + "\n").encode()


def _add_file(h, label: str, data: bytes) -> None:
    h.update(f"{label} {len(data)}\n".encode())
    h.update(data)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def sweep(name: str, seed: int, workdir: Path, reps: int = SWEEP_REPS) -> str:
    """One standard sweep followed by ``plot-data``, both through the CLI."""
    sweep_csv, plot_csv = workdir / f"sweep_{name}.csv", workdir / f"plot_{name}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        codes = (
            cli.main(["sweep", "--sweep", name, "--seed", str(seed),
                      "--reps", str(reps), "--out", str(sweep_csv)]),
            cli.main(["plot-data", str(sweep_csv), "--out", str(plot_csv)]),
        )
    if codes != (0, 0):
        raise OutputError(f"{name}: gridfog exited with {codes}")
    rows = _read_rows(sweep_csv)
    values = harness.default_sweep(name).values
    expected = len(values) * reps * len(scenario.ARCHITECTURES)
    if len(rows) != expected:
        raise OutputError(f"{name}: {len(rows)} rows, expected {expected}")
    errors = [row["run_id"] for row in rows if row["error"]]
    if errors:
        raise OutputError(f"{name}: error rows {errors[:3]}")
    points = _read_rows(plot_csv)
    served = sum(1 for row in rows if row["mean_latency_ms"])
    if (len(points) != len(values) * len(scenario.ARCHITECTURES)
            or sum(int(p["repetitions"]) for p in points) != served):
        raise OutputError(f"{name}: plot data does not cover the sweep rows")
    h = hashlib.sha256()
    _add_file(h, sweep_csv.name, sweep_csv.read_bytes())
    _add_file(h, plot_csv.name, plot_csv.read_bytes())
    return h.hexdigest()


def city(overrides: dict, seed: int, workdir: Path) -> str:
    """One large run: its metrics row, every RequestOutcome and MigrationAudit."""
    cfg = scenario.ScenarioConfig(seed=seed, **overrides)
    sim = scenario.run_scenario(cfg)
    table = metrics.MetricsTable()
    row = sim.summary_row()
    table.append(row)
    out = workdir / "city.csv"
    harness.emit_csv(table, out)
    _check_city(sim, row)
    h = hashlib.sha256()
    _add_file(h, out.name, out.read_bytes())
    for outcome in sim.outcomes:
        h.update(_record("outcome", outcome, OUTCOME_FIELDS))
    for audit in sim.audits:
        h.update(_record("audit", audit, AUDIT_FIELDS))
    return h.hexdigest()


def city_run(overrides: dict, index: int, seed: int, workdir: Path) -> str:
    """The ``index``-th city run of a workload with seed ``seed``."""
    return city(overrides, CITY_RUNS * seed + index, workdir)


def _check_city(sim, row) -> None:
    if row.error:
        raise OutputError(f"error row: {row.error}")
    done = [o for o in sim.outcomes if o.completed]
    if row.completed != len(done) or row.completed + row.timed_out != len(sim.outcomes):
        raise OutputError("completed/unserved counts disagree with the outcomes")
    if not done:
        raise OutputError("no request completed")
    for o in done:
        if o.latency_ms != o.decided_at - o.issued_at or o.chosen not in sim.piles:
            raise OutputError(f"{o.request_id}: inconsistent outcome")
    if row.migrations != sum(1 for a in sim.audits if a.outcome == "migrated"):
        raise OutputError("migrations column disagrees with the audit log")


def digest_of(part_digests) -> str:
    """A workload's digest: sha256 over its parts' digests, in order."""
    return hashlib.sha256("\n".join(part_digests).encode()).hexdigest()


# Each workload is a list of parts run in order; a part returns the digest
# of its output.
WORKLOADS = {
    "paper-sweeps": [functools.partial(sweep, name) for name in SWEEPS],
    "city-coordinated": [functools.partial(city_run, CITY_COORDINATED, i)
                         for i in range(CITY_RUNS)],
    "city-broadcast": [functools.partial(city_run, CITY_BROADCAST, i)
                       for i in range(CITY_RUNS)],
}
