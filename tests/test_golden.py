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
    # at one: the sums round together, so they run in the order they were
    # queued, and their replies take the channel in that order.
    "traditional-computations-round-together": dict(
        architecture="traditional", compute_ms=2.0**47, aggregation_timeout_ms=2.0**48,
        n_fog=20, wireless_prop_ms_per_m=0.5, request_rate=30.0, sim_duration_ms=20_000.0),
    # With no distance term every idle pile scores exactly 0.0, so most
    # broadcast windows hold ties, which the lowest pile must win.
    "traditional-score-ties": dict(architecture="traditional", w_dist=0.0),
}

GOLDEN = {
    "coordinated": "4454a042fdb2433e247d4811f376b827c8f4e29897d061d2f391390a00761fbb",
    "traditional": "66b259043193c8ee4e60ae839f1a078eac437eff3fd6c18febc0a1bf824b5906",
    "coordinated-instant-backhaul": "7650c00c17d7f4e154977eb3b074b88eb937bc6c2479336ea58b6e4fbfd4e321",
    "coordinated-reply-at-deadline": "6b74ff22442fd0500677f70192577dbb30604bde0d8fecb0d21dbd92207a00d5",
    "traditional-reply-at-deadline": "ebaa2435069d1ddba0a8002183ff4015de68a84a204f1976f72238292b182454",
    "coordinated-1ms-window": "92b434676a268e92614e6a356a87a7b265eb66e23cd0abac35ea44a298ccd623",
    "traditional-1ms-window": "5b5deb7d09d8d21618abc364e84823487067b6045ffb6ac78f28adce02936cbc",
    "coordinated-short-window": "72aa76d3beb98446b3e00a1e898773fbac6f07e9e0fc106e5f1a023a39fadd6f",
    "coordinated-migrating": "b049961335020c60247bc87ddf00800abc2e05acee4cdc3f6da01329d0f04ae0",
    "coordinated-migration-bounded": "b13e9995e4333f62ad3b9b17fd4339b5746504137e8708c91834c2a90a880bc0",
    "traditional-overload": "f88131261367511cd3cd616c3a08f3f9b37de535b840d6e0e680f026efab6153",
    "coordinated-slow-backhaul": "5c203bc3d6c7fc2a4bcbe79f22989c66f04a82180c26ec9b76d92b5f37f77b70",
    "traditional-fast-walkers": "cc1540c3c6261d18dc0059da8744c9f87d705596bef20e607f4c97b122e88c7f",
    "coordinated-load-moves": "0a9bf9983148a7aa4bd901b0934f433bfacc1e24924caf8fd85fd67d341e11c4",
    "coordinated-load-decides": "702d1ab4edf2883181dc82a6ccff166a682c0a8c71dc6e74e5a4fa23d98f6ebd",
    "traditional-full-piles-instant": "0f293d2a075471f3ec4705bae646309dd3755172fb94d851716c03de4ce26c37",
    "traditional-computations-round-together": "e5142352fd38655ea0c68b408c9f7243fa1ef5cd14dc3b9a549f07531f3d3812",
    "traditional-score-ties": "1d65be04ee23276d081e08199a289effe27aba5a86e020dee1b70c9b85cb8aff",
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
    "run-coordinated": "9b2dd8b1c8ad98a0dbfe57dbedb723cc0a57f3b78ab4c48877c59af79ce8f73c",
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
