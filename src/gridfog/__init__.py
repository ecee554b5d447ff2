"""Deterministic fog-computing simulator for smart-grid charging services."""

import logging

from .engine import EventQueue, LatencyModel, RngStream, SimEvent, SimTime, link_latency
from .errors import (
    ConfigError,
    EmptyResultSet,
    FlowNotResident,
    GridFogError,
    InvalidValue,
    InvariantViolation,
    MixedSweepVariables,
    NoEligibleNodes,
    ParseError,
    SchedulingInPast,
    StaleReport,
    UnknownKey,
)
from .harness import (
    PlotPoint,
    SweepSpec,
    default_sweep,
    derive_seed,
    emit_csv,
    emit_plot_data,
    load_config,
    parse_csv,
    run_sweep,
    write_topology_csv,
)
from .metrics import MetricsRow, MetricsTable, percentile_nearest_rank
from .scenario import ScenarioConfig, Simulation, run_scenario

__version__ = "0.1.0"

# A library logs only where its application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())
