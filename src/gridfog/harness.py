"""Experiment harness: config files, parameter sweeps, CSV, traces and plot data.

The harness turns a base :class:`~gridfog.scenario.ScenarioConfig` into the
three standard sweeps (query range, request volume, coordinator count), runs
every cell for both architectures with independently derived seeds, and
serializes results as CSV. Aggregation for plotting collapses repetitions
into one (mean, sample std) point per swept value and architecture.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import statistics
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

from .errors import InvalidValue, MixedSweepVariables, ParseError, UnknownKey
from .metrics import COLUMNS, MetricsRow, MetricsTable
from .scenario import ARCHITECTURES, ScenarioConfig, SendTrace, run_scenario
from .topology import NodeRecord

DEFAULT_SWEEP_VALUES = {
    "query_range_m": (250.0, 500.0, 1000.0, 1500.0, 2000.0),
    "n_requests": (20.0, 40.0, 80.0, 160.0, 320.0),
    "n_fnc": (1.0, 2.0, 3.0, 4.0),
}
SWEEP_VARIABLES = tuple(DEFAULT_SWEEP_VALUES)

# Flag spellings accepted by the command line.
SWEEP_ALIASES = {"range": "query_range_m", "requests": "n_requests",
                 "fnc": "n_fnc"}


@dataclass(frozen=True)
class SweepSpec:
    """One figure-style experiment: a variable, its values, and repetitions."""

    variable: str
    values: tuple[float, ...]
    repetitions: int = 10
    base: ScenarioConfig = ScenarioConfig()

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if not self.values:
            raise ValueError("values must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


def default_sweep(variable: str, base: ScenarioConfig | None = None,
                  repetitions: int = 10) -> SweepSpec:
    """Build the standard sweep for ``variable`` (or a CLI alias of it)."""
    name = SWEEP_ALIASES.get(variable, variable)
    return SweepSpec(name, DEFAULT_SWEEP_VALUES[name], repetitions,
                     base if base is not None else ScenarioConfig())


def derive_seed(base_seed: int, value_index: int, repetition: int,
                architecture: str) -> int:
    """Per-cell seed: stable hash of the sweep coordinates."""
    tag = f"{base_seed}|{value_index}|{repetition}|{architecture}"
    digest = hashlib.sha256(tag.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _cell_config(spec: SweepSpec, value: float, seed: int,
                 architecture: str) -> ScenarioConfig:
    base, name = spec.base, spec.variable
    if name == "n_fnc":
        value = int(value)
    elif name == "n_requests":  # total requests over the run -> per-terminal rate per minute
        minutes = base.sim_duration_ms / 60_000.0
        name, value = "request_rate", value / (base.n_terminals * minutes)
    return replace(base, **{name: value}, seed=seed, architecture=architecture)


def run_sweep(spec: SweepSpec) -> MetricsTable:
    """Run value x repetition x architecture cells; never aborts midway."""
    table = MetricsTable()
    for vi, value in enumerate(spec.values):
        for rep in range(spec.repetitions):
            for arch in ARCHITECTURES:
                seed = derive_seed(spec.base.seed, vi, rep, arch)
                run_id = f"{spec.variable}={value:g}/rep{rep}/{arch}"
                try:
                    cfg = _cell_config(spec, value, seed, arch)
                    sim = run_scenario(cfg)
                    table.append(sim.summary_row(run_id, spec.variable,
                                                 float(value)))
                except Exception as exc:  # noqa: BLE001 - failed row, not abort
                    table.append(MetricsRow(
                        run_id=run_id, architecture=arch,
                        swept_variable=spec.variable, swept_value=float(value),
                        seed=seed,
                        error=f"{type(exc).__name__}: {exc}",
                    ))
    return table


# ----------------------------------------------------------------- the codec
# Every file is UTF-8. ``_cell_text`` writes a cell; text is read back by the
# reader for the declared type of the dataclass field that it fills.

_READERS = {"str": str, "int": int, "float": float,
            "float | None": lambda text: float(text) if text else None}
_CONFIG_READERS = {f.name: _READERS[f.type] for f in fields(ScenarioConfig)}
_ROW_READERS = {f.name: _READERS[f.type] for f in fields(MetricsRow)}


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(handle, header, rows) -> int:
    """Write ``header`` and one CSV line per row of values; returns the row count."""
    lines = [header, *([_cell_text(value) for value in row] for row in rows)]
    writer = csv.writer(handle, lineterminator="\n")
    for line in lines:
        # With "\n" line ends csv leaves a bare "\r" unquoted, where no reader
        # could tell it from a line end: such a line is quoted in full here.
        # A line with a NUL is quoted in full too, which csv does not need,
        # so that the files keep their bytes.
        if any("\r" in cell or "\0" in cell for cell in line):
            handle.write(",".join('"' + cell.replace('"', '""') + '"' for cell in line) + "\n")
        else:
            writer.writerow(line)
    return len(lines) - 1


def _lines(text: str) -> list[str]:
    """``text`` cut at each "\n", "\r\n" or "\r", the line ends that every reader counts."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read_utf8(path) -> str:
    """The text of ``path``; a byte that is not UTF-8 raises ParseError at its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(_lines(data[:exc.start].decode("utf-8")))
        line = _lines(data.decode("utf-8", "surrogateescape"))[line_no - 1]
        raise ParseError(line_no, line.encode("utf-8", "surrogateescape"),
                         "not UTF-8:") from None


# ------------------------------------------------------------- config files

def load_config(path) -> ScenarioConfig:
    """Read a line-oriented ``key = value`` file into a scenario config.

    Blank lines and ``#`` comments (whole-line or trailing) are ignored.
    Unspecified keys keep their defaults; unknown keys, keys given twice and
    bad values raise.
    """
    text = _read_utf8(path)
    assigned: dict[str, object] = {}
    where: dict[str, int] = {}
    for line_no, rawline in enumerate(_lines(text), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not (equals and key and raw):
            raise ParseError(line_no, rawline)
        if key not in _CONFIG_READERS:
            raise UnknownKey(line_no, key)
        if key in where:
            raise InvalidValue(line_no, key, f"already set on line {where[key]}")
        try:
            assigned[key] = _CONFIG_READERS[key](raw)
        except ValueError as exc:
            raise InvalidValue(line_no, key, str(exc)) from None
        where[key] = line_no
    try:
        return ScenarioConfig(**assigned)
    except ValueError:
        # Blame the first line whose prefix already breaks; the whole file is
        # the last prefix tried, so one does.
        partial: dict[str, object] = {}
        for key in sorted(assigned, key=where.__getitem__):
            partial[key] = assigned[key]
            try:
                ScenarioConfig(**partial)
            except ValueError as exc:
                raise InvalidValue(where[key], key, str(exc)) from None


# ----------------------------------------- metrics, topology and trace files

def emit_csv(table: MetricsTable, path) -> int:
    """Write header plus one line per row; returns the row count."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        return _write_rows(handle, COLUMNS, (astuple(row) for row in table))


def parse_csv(path) -> MetricsTable:
    """Read a metrics CSV produced by :func:`emit_csv` back into a table."""
    try:
        text = _read_utf8(path)
    except ParseError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not text:
        raise ValueError(f"{path}: empty file, expected a metrics CSV header")
    reader = csv.reader(io.StringIO(text, newline=""))
    table = MetricsTable()
    # No cell is longer than the text.  The limit is process-wide, so it is
    # put back afterwards.
    limit = csv.field_size_limit(max(csv.field_size_limit(), len(text)))
    try:
        header = next(reader)
        if header != list(COLUMNS):
            raise ValueError(f"unexpected CSV header {header!r}")
        for cells in reader:
            if len(cells) != len(COLUMNS):
                raise ValueError(f"expected {len(COLUMNS)} cells, got {len(cells)}")
            values = {name: read(cell)
                      for (name, read), cell in zip(_ROW_READERS.items(), cells)}
            if nan := [name for name, value in values.items() if value != value]:
                raise ValueError(f"{nan[0]} is NaN, which no run writes")
            table.append(MetricsRow(**values))
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    finally:
        csv.field_size_limit(limit)
    return table


def write_topology_csv(records: list[NodeRecord], path) -> int:
    """Write node placements as ``node_id,layer,x,y``; returns row count."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        return _write_rows(handle, ("node_id", "layer", "x", "y"),
                           ((rec.node, rec.node.layer, rec.location.x, rec.location.y)
                            for rec in records))


class JsonlTrace:
    """Trace sink writing each ``SendTrace`` as one JSON line.

    Keys are the ``SendTrace`` field names; node ids are written as text.
    """

    _FIELDS = tuple(f.name for f in fields(SendTrace))

    def __init__(self, handle):
        self._handle = handle

    def append(self, row: SendTrace) -> None:
        record = {name: getattr(row, name) for name in self._FIELDS}
        record["src"], record["dst"] = str(row.src), str(row.dst)
        self._handle.write(json.dumps(record) + "\n")


# --------------------------------------------------------------- plot data

@dataclass(frozen=True)
class PlotPoint:
    """One aggregated point of a per-architecture latency series."""

    swept_value: float | None
    mean_latency_ms: float | None
    std_latency_ms: float | None
    repetitions: int


def emit_plot_data(table: MetricsTable) -> dict[str, tuple[PlotPoint, ...]]:
    """Collapse repetitions into per-architecture series over swept values."""
    variables = {row.swept_variable for row in table}
    if len(variables) > 1:
        raise MixedSweepVariables(
            f"rows mix sweep variables: {sorted(variables)}"
        )
    grouped: dict[str, dict[float | None, list[float]]] = {}
    for row in table:
        series = grouped.setdefault(row.architecture, {})
        series.setdefault(row.swept_value, [])
        if row.mean_latency_ms is not None:
            series[row.swept_value].append(row.mean_latency_ms)
    out: dict[str, tuple[PlotPoint, ...]] = {}
    for arch in sorted(grouped):
        points = []
        for value in sorted(grouped[arch], key=lambda v: (v is not None, v or 0.0)):
            means = grouped[arch][value]
            if means:
                mean = statistics.mean(means)
                std = statistics.stdev(means) if len(means) > 1 else 0.0
            else:
                mean = std = None
            points.append(PlotPoint(value, mean, std, len(means)))
        out[arch] = tuple(points)
    return out


def write_plot_csv(series: dict[str, tuple[PlotPoint, ...]], handle) -> int:
    """Write :func:`emit_plot_data`'s series as CSV to ``handle``; returns the point count."""
    return _write_rows(handle, ("architecture", *(f.name for f in fields(PlotPoint))),
                       ((arch, *astuple(p)) for arch, points in series.items() for p in points))
