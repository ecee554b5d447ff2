"""Per-run metric rows and their aggregate table."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class MetricsRow:
    """One simulation run, reduced to its headline numbers (none if it failed)."""

    run_id: str
    architecture: str
    swept_variable: str
    swept_value: float | None
    seed: int
    mean_latency_ms: float | None = None
    p95_latency_ms: float | None = None
    completed: int = 0
    timed_out: int = 0
    messages_total: int = 0
    migrations: int = 0
    error: str = ""


COLUMNS = tuple(f.name for f in fields(MetricsRow))


# A metrics table is its rows, in run order.
MetricsTable = list[MetricsRow]


def percentile_nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile; q in (0, 100]."""
    if not values:
        raise ValueError("no values")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
