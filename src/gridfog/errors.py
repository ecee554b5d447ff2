"""Exception types raised across the simulator."""


class GridFogError(Exception):
    """Base class for all simulator errors."""


class SchedulingInPast(GridFogError):
    """An event was scheduled before the current virtual clock."""


class InvariantViolation(GridFogError):
    """A finished run breaks a conservation law; the message names it and its numbers."""


class StaleReport(GridFogError):
    """A status report is older than the one already registered."""


class NoEligibleNodes(GridFogError):
    """No fog node satisfies the candidate filter for a request."""


class EmptyResultSet(GridFogError):
    """Aggregation was asked to decide with no results at hand."""


class FlowNotResident(GridFogError):
    """The named flow is not hosted on this node."""


class ConfigError(GridFogError):
    """Base class for configuration file problems."""


class ParseError(ConfigError):
    """A config line is not of the form ``key = value``, or not UTF-8."""

    def __init__(self, line_no: int, line: str | bytes, problem: str = "cannot parse"):
        super().__init__(f"line {line_no}: {problem} {line!r}")
        self.line_no = line_no


class UnknownKey(ConfigError):
    """A config key is not a recognized scenario parameter."""

    def __init__(self, line_no: int, key: str):
        super().__init__(f"line {line_no}: unknown key {key!r}")
        self.line_no = line_no
        self.key = key


class InvalidValue(ConfigError):
    """A config value fails parsing or violates its constraint."""

    def __init__(self, line_no: int, key: str, reason: str):
        super().__init__(f"line {line_no}: invalid value for {key!r}: {reason}")
        self.line_no = line_no
        self.key = key


class MixedSweepVariables(GridFogError):
    """Plot aggregation received rows from different sweep variables."""
