"""Pinned output of a small matrix of traced runs and of the CLI's files.

Each config's digest is a sha256 over, for each of its seeds in order,
the repr of every ``RequestOutcome``, ``MigrationAudit`` and ``SendTrace``
of the run, its summary row and its ``events_left``.  A change that is
meant to keep every output byte must leave every digest as it is.  A
change that is meant to alter output re-records them with
``python3 tests/record_golden.py`` and names each config whose digest
moved.

Each CLI case's digest covers the bytes of every file that ``gridfog``
writes for it: the metrics CSV, ``_topology.csv`` and ``--trace`` JSONL of
a run, or the sweep CSV and its ``plot-data`` CSV, both as written to
``--out`` and as printed.  A config file that sets every key to its
default must give the same bytes as no config file at all.

The digests below were recorded with CPython 3.11.7 and numpy 2.4.6.
"""

import contextlib
import hashlib
import io
from dataclasses import fields
from pathlib import Path

import pytest

from gridfog.cli import main
from gridfog.scenario import ScenarioConfig, Simulation

SEEDS = (1, 2, 3)

# A backhaul that takes no time at all: replies land on the very instant
# some other event is due.
_INSTANT_BACKHAUL = dict(backhaul_base_ms=0.0, backhaul_prop_ms_per_m=0.0,
                         proc_ms_per_unit=0.0)

CONFIGS = {
    "coordinated": dict(architecture="coordinated"),
    "traditional": dict(architecture="traditional"),
    # Status reports, mobility steps and zero-latency replies share instants.
    "coordinated-instant-backhaul": dict(
        architecture="coordinated", report_period_ms=500.0, mobility_step_ms=500.0,
        **_INSTANT_BACKHAUL),
    # Every reply reaches its FNC exactly at the aggregation deadline.
    "coordinated-reply-at-deadline": dict(
        architecture="coordinated", query_range_m=2800.0, compute_ms=250.0,
        aggregation_timeout_ms=250.0, **_INSTANT_BACKHAUL),
    # Every pile's reply reaches its terminal exactly at the window's deadline.
    "traditional-reply-at-deadline": dict(
        architecture="traditional", query_range_m=2800.0, wireless_base_ms=1.0,
        wireless_air_ms=0.0, wireless_prop_ms_per_m=0.0, proc_ms_per_unit=0.0,
        compute_ms=2.0, aggregation_timeout_ms=4.0),
    "coordinated-1ms-window": dict(
        architecture="coordinated", query_range_m=1200.0, aggregation_timeout_ms=1.0),
    "traditional-1ms-window": dict(
        architecture="traditional", query_range_m=1200.0, aggregation_timeout_ms=1.0),
    # Some replies miss the window and some make it.
    "coordinated-short-window": dict(
        architecture="coordinated", query_range_m=2000.0, aggregation_timeout_ms=285.0),
    "coordinated-migrating": dict(architecture="coordinated", t_upper_ms=1.0),
    # Piles full after one charge refuse most migrations, and a session
    # gives up after two refusals where the whole group would find a pile.
    "coordinated-migration-bounded": dict(
        architecture="coordinated", t_upper_ms=1.0, capacity=1, request_rate=16.0,
        max_migration_attempts=2),
    # Replies still queued at the horizon.
    "traditional-overload": dict(
        architecture="traditional", request_rate=64.0, query_range_m=2000.0,
        sim_duration_ms=20_000.0),
    # A backhaul slower than the report period keeps several reports per
    # pile in flight, and full piles drop out of the FNCs' candidates.
    "coordinated-slow-backhaul": dict(
        architecture="coordinated", backhaul_base_ms=1500.0, report_period_ms=1000.0,
        aggregation_timeout_ms=4000.0, service_rate_per_hour=3600.0, request_rate=16.0,
        capacity=2),
    # Walkers land on and re-aim at many waypoints between two requests.
    "traditional-fast-walkers": dict(
        architecture="traditional", arena_diameter_m=300.0, query_range_m=150.0,
        mobility_speed_mps=100.0, mobility_step_ms=100.0, request_rate=2.0),
    # Requests so dense that a pile's queue often changes between a job's
    # dispatch and its handling, which the job's score must see.
    "coordinated-load-moves": dict(
        architecture="coordinated", request_rate=2000.0, sim_duration_ms=6000.0, n_fog=2,
        wireless_air_ms=8.0),
    # As above, with a distance term so small that the load a job is scored
    # at, not the pile's distance, picks the pile.
    "coordinated-load-decides": dict(
        architecture="coordinated", request_rate=2000.0, sim_duration_ms=6000.0, n_fog=2,
        wireless_air_ms=8.0, w_dist=0.001),
    # Piles full after one charge drop most broadcasts, and with no airtime
    # and no propagation a request reaches every pile in range at once.
    "traditional-full-piles-instant": dict(
        architecture="traditional", capacity=1, wireless_air_ms=0.0,
        wireless_prop_ms_per_m=0.0),
    # Computations so long that copies arriving at different instants are due
    # at one: the sums round together, so each must run where its arrival
    # would have queued it, and their replies take the channel in that order.
    "traditional-computations-round-together": dict(
        architecture="traditional", compute_ms=2.0**47, aggregation_timeout_ms=2.0**48,
        n_fog=20, wireless_prop_ms_per_m=0.5, request_rate=30.0, sim_duration_ms=20_000.0),
}

GOLDEN = {
    "coordinated": "111eb77cd3f40f59f9ddbae9080ed6e3d2def9938d6345ddb5210881d550c000",
    "traditional": "66b259043193c8ee4e60ae839f1a078eac437eff3fd6c18febc0a1bf824b5906",
    "coordinated-instant-backhaul": "8ee10305a02410272efb3d69f6850fa29a3277216129f5eaf197470ac1e8c78c",
    "coordinated-reply-at-deadline": "2b28ad5589321a9d7fb61d039d7b845b1fb914d6f2a882efa3e2d26c65bd8dc1",
    "traditional-reply-at-deadline": "ebaa2435069d1ddba0a8002183ff4015de68a84a204f1976f72238292b182454",
    "coordinated-1ms-window": "92d941a1e858199913bedbf18d8aad8db801efe521aa0d8eb894b6dc52a47139",
    "traditional-1ms-window": "5b5deb7d09d8d21618abc364e84823487067b6045ffb6ac78f28adce02936cbc",
    "coordinated-short-window": "e293c372120cf77b7502898c72d0e635a33cccc2a3ead9029219c2b066ae67f6",
    "coordinated-migrating": "6ed107af31919aa0134ac37ab3db5cb01188d44f89609124003fe078c5be2498",
    "coordinated-migration-bounded": "a5fa1d494438b2f2e654eea07062ddbe6b26c5411b0934848da8463c5d2f4039",
    "traditional-overload": "f88131261367511cd3cd616c3a08f3f9b37de535b840d6e0e680f026efab6153",
    "coordinated-slow-backhaul": "a32e43415c70bb3aa77890a714c61768dce2a3cfe6be7e8b682781e8b996ca88",
    "traditional-fast-walkers": "cc1540c3c6261d18dc0059da8744c9f87d705596bef20e607f4c97b122e88c7f",
    "coordinated-load-moves": "6e2e93d0cbb41c2233709269245e4f0be9e8d33dcb1a7a0ec2bf60db0b3cf91e",
    "coordinated-load-decides": "3ff69f348dea067ca3cf5941e74df21adf0101c3efd069283cea42e71b81d3c5",
    "traditional-full-piles-instant": "0f293d2a075471f3ec4705bae646309dd3755172fb94d851716c03de4ce26c37",
    "traditional-computations-round-together": "e374f231a03e1ee548bd2740336be8f695a9d9ac5ea0150b7226d9605c74e52f",
}


def digest(name: str) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        sim = Simulation(ScenarioConfig(seed=seed, **CONFIGS[name]), trace=[]).run()
        for record in (*sim.outcomes, *sim.audits, *sim.trace, sim.summary_row()):
            h.update(repr(record).encode())
            h.update(b"\n")
        h.update(f"events_left={sim.events_left}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", CONFIGS)
def test_output_matches_the_recorded_digest(name):
    assert digest(name) == GOLDEN[name]


# ------------------------------------------------------------ CLI output files

CLI_CASES = {
    "run-coordinated": ["run", "--seed", "3"],
    "run-traditional": ["run", "--seed", "3", "--arch", "traditional"],
    "sweep-fnc": ["sweep", "--sweep", "fnc", "--reps", "1"],
}

FILE_GOLDEN = {
    "run-coordinated": "3c54d7e36939984e84acdcc27e2c96aa9dd4237ad3b49a543d1b35ac2c718a4a",
    "run-traditional": "d0459e1d8ddbc083323584a718e58d77ceb97efa0ae0dd5775de3841761260d8",
    "sweep-fnc": "4bca86b2200b0238f183b737f8d7ae9d4301f303b2799b5f2f0ad28032238d28",
}


def _gridfog(*args: str) -> bytes:
    """Run the CLI in-process and return what it printed, as UTF-8."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(list(args)) == 0
    return printed.getvalue().encode("utf-8")


def cli_digest(name: str, workdir: Path, *extra: str) -> str:
    """sha256 over every file the CLI writes for case ``name``, in order."""
    args = [*CLI_CASES[name], *extra]
    if args[0] == "run":
        _gridfog(*args, "--out", str(workdir / "m.csv"),
                 "--trace", str(workdir / "t.jsonl"))
        files = {label: (workdir / label).read_bytes()
                 for label in ("m.csv", "m_topology.csv", "t.jsonl")}
    else:
        sweep, plot = str(workdir / "s.csv"), str(workdir / "p.csv")
        _gridfog(*args, "--out", sweep)
        _gridfog("plot-data", sweep, "--out", plot)
        files = {"s.csv": Path(sweep).read_bytes(), "p.csv": Path(plot).read_bytes(),
                 "stdout": _gridfog("plot-data", sweep)}
    h = hashlib.sha256()
    for label, data in files.items():
        h.update(f"{label} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def write_default_config(path: Path) -> None:
    """A config file that names every ``ScenarioConfig`` key at its default."""
    defaults = ScenarioConfig()
    path.write_text("".join(f"{f.name} = {getattr(defaults, f.name)}\n"
                            for f in fields(ScenarioConfig)), encoding="utf-8")


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_files_match_the_recorded_digest(name, tmp_path):
    assert cli_digest(name, tmp_path) == FILE_GOLDEN[name]


@pytest.mark.parametrize("name", CLI_CASES)
def test_a_config_of_every_default_writes_the_same_files(name, tmp_path):
    config = tmp_path / "defaults.cfg"
    write_default_config(config)
    assert cli_digest(name, tmp_path, "--config", str(config)) == FILE_GOLDEN[name]
