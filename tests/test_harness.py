"""Config parsing, sweep execution, CSV emission, plot aggregation, CLI."""

import csv
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import gridfog
from gridfog.cli import main
from gridfog.errors import (
    InvalidValue,
    MixedSweepVariables,
    ParseError,
    UnknownKey,
)
from gridfog.harness import (
    DEFAULT_SWEEP_VALUES,
    SweepSpec,
    _cell_config,
    default_sweep,
    derive_seed,
    emit_csv,
    emit_plot_data,
    load_config,
    parse_csv,
    run_sweep,
    write_topology_csv,
)
from gridfog.metrics import COLUMNS, MetricsRow, MetricsTable
from gridfog.scenario import ScenarioConfig, SendTrace, run_scenario


def tiny_base(**overrides):
    """A base config small enough for fast sweep tests."""
    base = dict(seed=5, sim_duration_ms=5_000.0, request_rate=2.0,
                n_terminals=6, n_fog=4)
    base.update(overrides)
    return ScenarioConfig(**base)


# ------------------------------------------------------------- config files

def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(path)
    assert cfg == ScenarioConfig()
    assert (cfg.n_terminals, cfg.n_fog, cfg.n_fnc) == (20, 10, 2)
    assert cfg.arena_diameter_m == 2000.0


def test_single_key_overrides_one_field(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("n_fnc = 4\n")
    cfg = load_config(path)
    assert cfg.n_fnc == 4
    assert cfg == ScenarioConfig(n_fnc=4)


def test_comments_and_blank_lines_are_ignored(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# full line comment\n"
        "\n"
        "query_range_m = 750  # trailing comment\n"
        "architecture = traditional\n"
    )
    cfg = load_config(path)
    assert cfg.query_range_m == 750.0
    assert cfg.architecture == "traditional"


def test_negative_fog_count_is_invalid(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_fog = -1\n")
    with pytest.raises(InvalidValue) as err:
        load_config(path)
    assert err.value.line_no == 1


def test_non_numeric_value_is_invalid(tmp_path):
    # An integer key takes an integer literal only.
    for line in ("n_terminals = twenty", "n_fnc = 2.0"):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(InvalidValue) as err:
            load_config(path)
        assert err.value.line_no == 1


@pytest.mark.parametrize("line", [
    "sim_duration_ms = nan", "query_range_m = nan", "request_rate = inf",
])
def test_non_finite_value_is_invalid(tmp_path, line):
    # NaN slips past every ordered comparison, and an infinite request rate
    # would make the arrival loop spin forever, so both must fail at load.
    path = tmp_path / "bad.cfg"
    path.write_text(f"n_fnc = 2\n{line}\n")
    with pytest.raises(InvalidValue) as err:
        load_config(path)
    assert err.value.line_no == 2
    assert err.value.key == line.split()[0]


@pytest.mark.parametrize("lines", [
    *([f"{key} = -1"] for key in (
        "wireless_base_ms", "wireless_prop_ms_per_m", "wireless_air_ms",
        "backhaul_base_ms", "backhaul_prop_ms_per_m", "proc_ms_per_unit",
        "compute_ms", "fnc_service_ms", "mobility_speed_mps",
        "max_migration_attempts",
    )),
    ["t_upper_ms = 0"], ["w_dist = -1"], ["w_wait = -1"], ["w_dist = 0", "w_wait = 0"],
    ["mobility_step_ms = 0"], ["report_period_ms = 0"],
    ["architecture = mesh"], ["query_range_m = 0"], ["request_rate = -1"],
    ["arena_diameter_m = 0"], ["capacity = 0"], ["ewma_alpha = 0"], ["ewma_alpha = 1.5"],
    ["service_rate_per_hour = 0"], ["aggregation_timeout_ms = 0"],
])
def test_bad_sign_is_invalid_at_its_line(tmp_path, lines):
    # Each must fail at load, at its own line, not mid-run or never.
    path = tmp_path / "bad.cfg"
    path.write_text("n_fnc = 2\n" + "\n".join(lines) + "\n")
    with pytest.raises(InvalidValue) as err:
        load_config(path)
    assert err.value.line_no == 1 + len(lines)
    assert err.value.key == lines[-1].split()[0]


def test_unknown_key_is_rejected_with_line_number(tmp_path):
    # cloud_extra_ms was an option once, but no message ever reached the cloud.
    for key in ("warp_factor", "cloud_extra_ms"):
        path = tmp_path / "bad.cfg"
        path.write_text(f"n_fnc = 2\n{key} = 9\n")
        with pytest.raises(UnknownKey) as err:
            load_config(path)
        assert err.value.line_no == 2
        assert err.value.key == key


def test_non_utf8_config_is_a_parse_error_at_its_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"n_fnc = 2\n\xffseed = 3\n")
    with pytest.raises(ParseError) as err:
        load_config(path)
    assert err.value.line_no == 2
    assert main(["run", "--config", str(path)]) == 2
    printed = capsys.readouterr().err.splitlines()
    assert len(printed) == 1
    assert printed[0].startswith("config error: line 2: not UTF-8")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_every_config_error_numbers_lines_alike(tmp_path, end):
    # A form feed or a line separator inside a line does not end it.
    head = f"n_fnc = 2 \x0c{end}# a\u2028b{end}"
    path = tmp_path / "bad.cfg"
    path.write_bytes((head + f"warp = 1{end}").encode())
    with pytest.raises(UnknownKey) as err:
        load_config(path)
    assert err.value.line_no == 3
    path.write_bytes(head.encode() + b"\xff = 1" + end.encode())
    with pytest.raises(ParseError) as err:
        load_config(path)
    assert err.value.line_no == 3
    assert str(err.value) == "line 3: not UTF-8: b'\\xff = 1'"


def test_key_given_twice_is_invalid_at_its_second_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("n_fnc = 2\nseed = 4\nn_fnc = 4\n")
    with pytest.raises(InvalidValue) as err:
        load_config(path)
    assert (err.value.line_no, err.value.key) == (3, "n_fnc")
    assert str(err.value).endswith("already set on line 1")
    assert main(["run", "--config", str(path)]) == 2
    printed = capsys.readouterr().err.splitlines()
    assert printed == [f"config error: {err.value}"]


def test_line_without_equals_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_fnc: 2\n")
    with pytest.raises(ParseError) as err:
        load_config(path)
    assert err.value.line_no == 1


def test_cross_field_conflict_points_at_the_breaking_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("architecture = coordinated\nn_fnc = 0\n")
    with pytest.raises(InvalidValue) as err:
        load_config(path)
    assert err.value.line_no == 2
    # The reason given is that of the line blamed, not of a later one.
    path.write_text("n_fnc = 0\nsim_duration_ms = -1\n")
    with pytest.raises(InvalidValue) as err:
        load_config(path)
    assert (err.value.line_no, err.value.key) == (1, "n_fnc")
    assert "sim_duration_ms" not in str(err.value)


def test_conflicting_keys_are_fine_once_resolved(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("n_fnc = 0\narchitecture = traditional\n")
    cfg = load_config(path)
    assert cfg.n_fnc == 0
    assert cfg.architecture == "traditional"


# ------------------------------------------------------------------ sweeps

def test_sweep_spec_validates_shape():
    with pytest.raises(ValueError):
        SweepSpec("query_range_m", ())
    with pytest.raises(ValueError):
        SweepSpec("query_range_m", (500.0, 250.0))
    with pytest.raises(ValueError):
        SweepSpec("query_range_m", (250.0,), repetitions=0)
    with pytest.raises(ValueError):
        SweepSpec("wavelength", (1.0, 2.0))


def test_single_cell_sweep_yields_two_rows():
    spec = SweepSpec("query_range_m", (800.0,), repetitions=1,
                     base=tiny_base())
    table = run_sweep(spec)
    assert len(table) == 2
    assert {row.architecture for row in table} == {"traditional",
                                                   "coordinated"}
    assert all(row.swept_value == 800.0 for row in table)
    assert all(row.error == "" for row in table)


def test_full_grid_row_count_and_order():
    spec = SweepSpec("query_range_m",
                     (250.0, 500.0, 1000.0, 1500.0, 2000.0),
                     repetitions=5, base=tiny_base())
    table = run_sweep(spec)
    assert len(table) == 50
    values = [row.swept_value for row in table]
    assert values == sorted(values)
    # within one value, repetitions appear in order, two rows each
    first_block = table[:10]
    assert all(r.swept_value == 250.0 for r in first_block)


def test_sweeps_are_deterministic():
    spec = SweepSpec("n_fnc", (1.0, 2.0), repetitions=2, base=tiny_base())
    assert run_sweep(spec) == run_sweep(spec)


def test_request_volume_sweep_scales_load():
    spec = SweepSpec("n_requests", (20.0, 160.0), repetitions=3,
                     base=ScenarioConfig(seed=5, sim_duration_ms=10_000.0))
    table = run_sweep(spec)
    issued_low = statistics.mean(
        r.completed + r.timed_out for r in table
        if r.swept_value == 20.0 and r.architecture == "coordinated")
    issued_high = statistics.mean(
        r.completed + r.timed_out for r in table
        if r.swept_value == 160.0 and r.architecture == "coordinated")
    assert issued_high > issued_low * 3


def test_seeds_are_pairwise_distinct_across_the_grid():
    seeds = {
        derive_seed(1, vi, rep, arch)
        for vi in range(5)
        for rep in range(10)
        for arch in ("traditional", "coordinated")
    }
    assert len(seeds) == 100


@pytest.mark.parametrize("variable, value, field, expected", [
    ("query_range_m", 750.0, "query_range_m", 750.0),
    ("n_fnc", 3.0, "n_fnc", 3),
    # tiny_base has 6 terminals and runs 5,000 ms
    ("n_requests", 80.0, "request_rate", 80.0 / (6 * (5_000.0 / 60_000.0))),
])
def test_cell_config_changes_only_the_swept_field_seed_and_architecture(
        variable, value, field, expected):
    base = tiny_base(architecture="traditional", n_fnc=1)
    spec = SweepSpec(variable, (value,), repetitions=1, base=base)
    cfg = _cell_config(spec, value, 99, "coordinated")
    assert getattr(cfg, field) == expected
    assert type(getattr(cfg, field)) is type(expected)
    assert (cfg.seed, cfg.architecture) == (99, "coordinated")
    changed = {f.name for f in fields(ScenarioConfig)
               if getattr(cfg, f.name) != getattr(base, f.name)}
    assert changed <= {field, "seed", "architecture"}


def test_failed_cells_become_error_rows():
    # zero terminals make the volume mapping divide by zero
    spec = SweepSpec("n_requests", (20.0,), repetitions=1,
                     base=ScenarioConfig(seed=5, n_terminals=0))
    table = run_sweep(spec)
    assert len(table) == 2
    for row in table:
        assert row.error != ""
        assert row.mean_latency_ms is None


# -------------------------------------------------------------------- CSV

def test_empty_table_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    assert emit_csv(MetricsTable(), path) == 0
    text = path.read_text()
    assert text == ",".join(COLUMNS) + "\n"


def test_csv_round_trip_reproduces_the_table(tmp_path):
    spec = SweepSpec("query_range_m", (400.0, 900.0), repetitions=2,
                     base=tiny_base())
    table = run_sweep(spec)
    path = tmp_path / "out.csv"
    count = emit_csv(table, path)
    assert count == len(table) == 8
    assert path.read_text().endswith("\n")
    back = parse_csv(path)
    assert back == table


def test_csv_keeps_error_text_with_commas(tmp_path):
    table = MetricsTable()
    table.append(MetricsRow(
        run_id="x", architecture="coordinated", swept_variable="n_fnc",
        swept_value=1.0, seed=9, mean_latency_ms=None, p95_latency_ms=None,
        completed=0, timed_out=0, messages_total=0, migrations=0,
        error="ValueError: bad, worse, worst"))
    path = tmp_path / "err.csv"
    emit_csv(table, path)
    back = parse_csv(path)
    assert back == table


_text = st.text()
_floats = st.floats(allow_nan=False)
_optional = st.none() | _floats


@given(st.builds(MetricsRow, _text, _text, _text, _optional, st.integers(),
                 _optional, _optional, st.integers(), st.integers(), st.integers(),
                 st.integers(), _text))
@example(MetricsRow("r", "coordinated", "n_fnc", -0.0, 0, 5e-324, -1.7e308,
                    error='ValueError: a, "b"\r\nc\rd\n\u00e9\u2028'))
@example(MetricsRow(",", '"', "\n", None, -1, 1.7e308, None, error="\r"))
@example(MetricsRow("\0", "\ue000\0", "", 0.0, 0, error="NUL \0, \"\0\"\n"))
@example(MetricsRow("r", "traditional", "n_fnc", 1.0, 3, error="x" * 200_000))
@example(MetricsRow("r", "coordinated", "n_fnc", math.inf, 0, -math.inf, math.inf))
def test_csv_round_trip_keeps_every_row(row):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "rows.csv"
        emit_csv(MetricsTable([row, row]), path)
        back = parse_csv(path)
    assert back == [row, row]
    assert repr(back[0]) == repr(row)  # tells -0.0 from 0.0


@pytest.mark.parametrize("cells, column", [
    ("r1,coordinated,n_fnc,nan,1,5.0,5.0,1,0,0,0,", "swept_value"),
    ("r1,coordinated,n_fnc,1.0,1,5.0,-nan,1,0,0,0,", "p95_latency_ms"),
])
def test_a_nan_cell_is_rejected_at_its_line(tmp_path, cells, column):
    path = tmp_path / "rows.csv"
    path.write_text(",".join(COLUMNS) + "\nr0,coordinated,n_fnc,1.0,1,,,0,0,0,0,\n"
                    + cells + "\n")
    with pytest.raises(ValueError, match=f"line 3: {column} is NaN"):
        parse_csv(path)


@pytest.mark.parametrize("error", ["a\0b", "a\rb"])
def test_a_nul_or_carriage_return_quotes_the_whole_line(tmp_path, error):
    # No reader tells an unquoted "\r" from a line end.  A NUL needs no quotes,
    # but a line that holds one is quoted in full all the same, so that files
    # written before keep their bytes.
    path = tmp_path / "rows.csv"
    emit_csv(MetricsTable([MetricsRow("r", "traditional", "n_fnc", 1.0, 3,
                                      error=error)]), path)
    assert path.read_bytes().decode().split("\n")[1] == (
        '"r","traditional","n_fnc","1.0","3","","","0","0","0","0","' + error + '"')


def test_plot_data_reads_a_cell_past_the_csv_field_limit(tmp_path):
    # csv's default limit is 131072 characters; it is raised for the read only.
    row = MetricsRow("r", "traditional", "n_fnc", 1.0, 3, mean_latency_ms=5.0,
                     error="x" * 200_000)
    path = tmp_path / "rows.csv"
    emit_csv(MetricsTable([row]), path)
    limit = csv.field_size_limit()
    assert main(["plot-data", str(path), "--out", str(tmp_path / "plot.csv")]) == 0
    assert (tmp_path / "plot.csv").read_text().splitlines()[1] == "traditional,1.0,5.0,0.0,1"
    assert csv.field_size_limit() == limit


def test_topology_csv_lists_every_node(tmp_path):
    sim = run_scenario(tiny_base())
    path = tmp_path / "topo.csv"
    count = write_topology_csv(sim.records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node_id,layer,x,y"
    assert count == len(sim.records) == len(lines) - 1
    layers = {line.split(",")[1] for line in lines[1:]}
    assert layers == {"terminal", "fog", "fnc", "cloud"}


# --------------------------------------------------------------- plot data

def test_single_row_aggregates_to_one_point_with_zero_std():
    table = MetricsTable()
    table.append(MetricsRow(
        run_id="a", architecture="coordinated", swept_variable="n_fnc",
        swept_value=2.0, seed=1, mean_latency_ms=123.0, p95_latency_ms=150.0,
        completed=10, timed_out=0, messages_total=40, migrations=0))
    series = emit_plot_data(table)
    assert set(series) == {"coordinated"}
    (point,) = series["coordinated"]
    assert point.swept_value == 2.0
    assert point.mean_latency_ms == 123.0
    assert point.std_latency_ms == 0.0
    assert point.repetitions == 1


def test_plot_mean_matches_hand_average():
    table = MetricsTable()
    for i, mean in enumerate([100.0, 110.0, 120.0, 130.0, 140.0]):
        table.append(MetricsRow(
            run_id=f"r{i}", architecture="traditional",
            swept_variable="query_range_m", swept_value=500.0, seed=i,
            mean_latency_ms=mean, p95_latency_ms=mean, completed=5,
            timed_out=0, messages_total=10, migrations=0))
    series = emit_plot_data(table)
    (point,) = series["traditional"]
    assert point.mean_latency_ms == pytest.approx(120.0)
    assert point.std_latency_ms == pytest.approx(
        statistics.stdev([100.0, 110.0, 120.0, 130.0, 140.0]))
    assert point.repetitions == 5


def test_mixed_sweep_variables_are_rejected():
    table = MetricsTable()
    for var in ("query_range_m", "n_fnc"):
        table.append(MetricsRow(
            run_id=var, architecture="coordinated", swept_variable=var,
            swept_value=1.0, seed=1, mean_latency_ms=1.0, p95_latency_ms=1.0,
            completed=1, timed_out=0, messages_total=1, migrations=0))
    with pytest.raises(MixedSweepVariables):
        emit_plot_data(table)


def test_plot_points_are_ordered_by_swept_value():
    table = MetricsTable()
    for value in (2000.0, 250.0, 1000.0):
        table.append(MetricsRow(
            run_id=f"v{value}", architecture="coordinated",
            swept_variable="query_range_m", swept_value=value, seed=1,
            mean_latency_ms=value / 10, p95_latency_ms=None, completed=1,
            timed_out=0, messages_total=1, migrations=0))
    series = emit_plot_data(table)
    values = [p.swept_value for p in series["coordinated"]]
    assert values == [250.0, 1000.0, 2000.0]


def test_default_sweeps_cover_the_three_figures():
    for alias, variable in (("range", "query_range_m"),
                            ("requests", "n_requests"), ("fnc", "n_fnc")):
        spec = default_sweep(alias, base=tiny_base(), repetitions=3)
        assert spec.variable == variable
        assert spec.values == DEFAULT_SWEEP_VALUES[variable]
        assert spec.repetitions == 3


# --------------------------------------------------------------------- CLI

def test_cli_run_writes_metrics_and_topology(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("sim_duration_ms = 5000\nn_terminals = 6\nn_fog = 4\n")
    out = tmp_path / "metrics.csv"
    code = main(["run", "--config", str(cfg), "--seed", "3",
                 "--arch", "traditional", "--out", str(out)])
    assert code == 0
    table = parse_csv(out)
    assert len(table) == 1
    assert table[0].architecture == "traditional"
    assert table[0].seed == 3
    topo = tmp_path / "metrics_topology.csv"
    assert topo.exists()
    assert "completed" in capsys.readouterr().out


def test_cli_run_streams_one_trace_line_per_message(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("sim_duration_ms = 5000\nn_terminals = 6\nn_fog = 4\n")
    out, trace = tmp_path / "metrics.csv", tmp_path / "trace.jsonl"
    assert main(["run", "--config", str(cfg), "--seed", "3", "--out", str(out),
                 "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == parse_csv(out)[0].messages_total > 0
    keys = [f.name for f in fields(SendTrace)]
    for line in lines:
        record = json.loads(line)
        assert list(record) == keys
        assert isinstance(record["src"], str) and isinstance(record["dst"], str)
        assert isinstance(record["distance_m"], float)

    trace.unlink()
    assert main(["run", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fast.cfg", "metrics.csv", "metrics_topology.csv"]


def _run_cli_module(*args):
    """``python -m gridfog.cli *args`` in a child process, with this gridfog on its path."""
    src = str(Path(gridfog.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "gridfog.cli", *args],
                          capture_output=True, text=True, env=env)


def test_cli_run_prints_no_migration_warning(tmp_path):
    # Seven migration sessions of this run run out of candidates, each logging
    # a warning; with no logging configured, none of them reaches stderr.
    cfg = tmp_path / "exhausting.cfg"
    cfg.write_text("seed = 2\nt_upper_ms = 1\ncapacity = 1\nrequest_rate = 16\n"
                   "max_migration_attempts = 2\n")
    done = _run_cli_module("run", "--config", str(cfg), "--out", str(tmp_path / "m.csv"))
    assert done.returncode == 0
    assert "completed" in done.stdout
    assert done.stderr == ""


def test_cli_module_entry_point_prints_help():
    done = _run_cli_module("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: gridfog")


def test_cli_sweep_then_plot_data(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("sim_duration_ms = 5000\nn_terminals = 6\nn_fog = 4\n")
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--sweep", "fnc", "--config", str(cfg),
                 "--seed", "2", "--reps", "2", "--out", str(out)])
    assert code == 0
    table = parse_csv(out)
    assert len(table) == 4 * 2 * 2
    plot = tmp_path / "plot.csv"
    code = main(["plot-data", str(out), "--out", str(plot)])
    assert code == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == ("architecture,swept_value,mean_latency_ms,"
                        "std_latency_ms,repetitions")
    assert len(lines) == 1 + 2 * 4


def test_cli_plot_data_prints_what_out_writes(tmp_path, capsys):
    table = MetricsTable()
    for i, (arch, value, mean) in enumerate([
        ("traditional", 250.0, 300.5), ("traditional", 250.0, 310.25),
        ("coordinated", 250.0, None), ("coordinated", 500.0, 1 / 3),
    ]):
        table.append(MetricsRow(
            run_id=f"r{i}", architecture=arch, swept_variable="query_range_m",
            swept_value=value, seed=i, mean_latency_ms=mean, p95_latency_ms=mean,
            completed=0 if mean is None else 3, timed_out=0, messages_total=9,
            migrations=0))
    sweep = tmp_path / "sweep.csv"
    emit_csv(table, sweep)
    plot = tmp_path / "plot.csv"
    assert main(["plot-data", str(sweep), "--out", str(plot)]) == 0
    capsys.readouterr()
    assert main(["plot-data", str(sweep)]) == 0
    printed = capsys.readouterr().out
    assert printed.encode() == plot.read_bytes()
    assert printed.count("\n") == 1 + 3


def test_cli_reports_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_factor = 9\n")
    code = main(["run", "--config", str(cfg)])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_cli_arch_that_breaks_the_config_is_one_config_error(tmp_path, capsys):
    cfg = tmp_path / "traditional.cfg"
    cfg.write_text("architecture = traditional\nn_fnc = 0\n")
    out = tmp_path / "m.csv"
    assert main(["run", "--config", str(cfg), "--arch", "coordinated", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ")
    assert err[0].endswith("coordinated mode needs at least 1 FNC")
    assert not out.exists()


def test_cli_run_into_a_missing_directory_is_one_io_error(tmp_path, capsys):
    code = main(["run", "--out", str(tmp_path / "missing" / "m.csv")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("io error: ")


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_cli_sweep_rejects_non_positive_reps(reps, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--sweep", "fnc", "--reps", reps])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--reps" in err
    assert "positive integer" in err


@pytest.mark.parametrize("content, message", [
    ("", "empty file"),
    ("a,b,c\n1,2,3\n", "unexpected CSV header"),
    pytest.param(",".join(COLUMNS) + "\nr1,traditional\n",
                 f"line 2: expected {len(COLUMNS)} cells, got 2", id="short-row"),
    pytest.param(",".join(COLUMNS) + "\nr1,traditional,,,1,,,0,0,0,0,,extra\n",
                 f"line 2: expected {len(COLUMNS)} cells, got 13", id="long-row"),
    pytest.param(",".join(COLUMNS) + "\nr1,traditional,n_fnc,1.0,1,,,0,0,0,0,\n"
                 "r2,traditional,query_range_m,250.0,1,,,0,0,0,0,\n",
                 "rows mix sweep variables", id="mixed-variables"),
    pytest.param(",".join(COLUMNS) + "\nr1,traditional,n_fnc,abc,1,,,0,0,0,0,\n",
                 "line 2: could not convert string to float: 'abc'", id="bad-number"),
    # Two NaN swept values are unequal, so they would make two points.
    pytest.param(",".join(COLUMNS) + "\nr1,coordinated,n_fnc,nan,1,5.0,5.0,1,0,0,0,\n"
                 "r2,coordinated,n_fnc,nan,2,7.0,7.0,1,0,0,0,\n",
                 "line 2: swept_value is NaN", id="nan-swept-value"),
    # The bad byte lies past the first chunk a text reader would decode.
    pytest.param((",".join(COLUMNS) + "\n" + "r1,traditional,n_fnc,1.0,1,,,0,0,0,0,\n" * 400
                  + "r2\xff\n").encode("latin-1"),
                 "line 402: not UTF-8", id="not-utf8"),
    pytest.param(",".join(COLUMNS) + "\nr1,traditional,n_fnc,1.0,1,,,0,0,0,0,\n"
                 + "x" * 200_000 + "\n", f"line 3: expected {len(COLUMNS)} cells, got 1",
                 id="huge-cell"),
])
def test_cli_plot_data_reports_unreadable_input(tmp_path, capsys, content, message):
    path = tmp_path / "input.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code = main(["plot-data", str(path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert message in err[0]
    assert str(path) in err[0]
