"""Experiment harness: config files, parameter sweeps, CSV and plot data.

The harness turns a base :class:`~gridfog.scenario.ScenarioConfig` into the
three standard sweeps (query range, request volume, coordinator count), runs
every cell for both architectures with independently derived seeds, and
serializes results as CSV. Aggregation for plotting collapses repetitions
into one (mean, sample std) point per swept value and architecture.
"""

from __future__ import annotations

import csv
import hashlib
import statistics
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import InvalidValue, MixedSweepVariables, ParseError, UnknownKey
from .metrics import COLUMNS, MetricsRow, MetricsTable
from .scenario import ARCHITECTURES, ScenarioConfig, run_scenario
from .topology import NodeRecord

SWEEP_VARIABLES = ("query_range_m", "n_requests", "n_fnc")

DEFAULT_SWEEP_VALUES = {
    "query_range_m": (250.0, 500.0, 1000.0, 1500.0, 2000.0),
    "n_requests": (20.0, 40.0, 80.0, 160.0, 320.0),
    "n_fnc": (1.0, 2.0, 3.0, 4.0),
}

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
    base = spec.base
    if spec.variable == "query_range_m":
        return replace(base, query_range_m=value, seed=seed,
                       architecture=architecture)
    if spec.variable == "n_fnc":
        return replace(base, n_fnc=int(value), seed=seed,
                       architecture=architecture)
    # n_requests: total requests over the run -> per-terminal rate per minute
    minutes = base.sim_duration_ms / 60_000.0
    rate = value / (base.n_terminals * minutes)
    return replace(base, request_rate=rate, seed=seed,
                   architecture=architecture)


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
                        seed=seed, mean_latency_ms=None, p95_latency_ms=None,
                        completed=0, timed_out=0, messages_total=0,
                        migrations=0,
                        error=f"{type(exc).__name__}: {exc}",
                    ))
    return table


# ------------------------------------------------------------- config files

_INT_KEYS = {f.name for f in fields(ScenarioConfig)
             if isinstance(f.default, int)}
_STR_KEYS = {f.name for f in fields(ScenarioConfig)
             if isinstance(f.default, str)}
_ALL_KEYS = {f.name for f in fields(ScenarioConfig)}


def _convert(line_no: int, key: str, raw: str):
    try:
        if key in _STR_KEYS:
            return raw
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise InvalidValue(line_no, key, str(exc)) from None


def load_config(path) -> ScenarioConfig:
    """Read a line-oriented ``key = value`` file into a scenario config.

    Blank lines and ``#`` comments (whole-line or trailing) are ignored.
    Unspecified keys keep their defaults; unknown keys and bad values raise.
    """
    text = Path(path).read_text()
    assigned: dict[str, object] = {}
    where: dict[str, int] = {}
    for line_no, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(line_no, rawline)
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not key or not raw:
            raise ParseError(line_no, rawline)
        if key not in _ALL_KEYS:
            raise UnknownKey(line_no, key)
        assigned[key] = _convert(line_no, key, raw)
        where[key] = line_no
    try:
        return ScenarioConfig(**assigned)
    except ValueError as exc:
        # Attribute the failure to the first line whose prefix already breaks.
        partial: dict[str, object] = {}
        for key in sorted(assigned, key=where.__getitem__):
            partial[key] = assigned[key]
            try:
                ScenarioConfig(**partial)
            except ValueError:
                raise InvalidValue(where[key], key, str(exc)) from None
        last = max(where.values(), default=0)
        raise InvalidValue(last, "config", str(exc)) from None


# --------------------------------------------------------------------- CSV

def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(table: MetricsTable, path) -> int:
    """Write header plus one line per row; returns the row count."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COLUMNS)
        count = 0
        for row in table:
            writer.writerow([_cell_text(getattr(row, col)) for col in COLUMNS])
            count += 1
    return count


def parse_csv(path) -> MetricsTable:
    """Read a metrics CSV produced by :func:`emit_csv` back into a table."""
    table = MetricsTable()
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a metrics CSV header")
        if header != list(COLUMNS):
            raise ValueError(f"{path}: unexpected CSV header {header!r}")
        for cells in reader:
            if len(cells) != len(COLUMNS):
                raise ValueError(f"{path}: line {reader.line_num}: expected "
                                 f"{len(COLUMNS)} cells, got {len(cells)}")
            named = dict(zip(COLUMNS, cells))
            try:
                row = MetricsRow(
                    run_id=named["run_id"],
                    architecture=named["architecture"],
                    swept_variable=named["swept_variable"],
                    swept_value=(float(named["swept_value"])
                                 if named["swept_value"] else None),
                    seed=int(named["seed"]),
                    mean_latency_ms=(float(named["mean_latency_ms"])
                                     if named["mean_latency_ms"] else None),
                    p95_latency_ms=(float(named["p95_latency_ms"])
                                    if named["p95_latency_ms"] else None),
                    completed=int(named["completed"]),
                    timed_out=int(named["timed_out"]),
                    messages_total=int(named["messages_total"]),
                    migrations=int(named["migrations"]),
                    error=named["error"],
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            table.append(row)
    return table


def write_topology_csv(records: list[NodeRecord], path) -> int:
    """Write node placements as ``node_id,layer,x,y``; returns row count."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["node_id", "layer", "x", "y"])
        for rec in records:
            writer.writerow([str(rec.node), rec.node.layer,
                             repr(rec.location.x), repr(rec.location.y)])
    return len(records)


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
