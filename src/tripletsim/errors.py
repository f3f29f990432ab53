"""Exception hierarchy shared across the package.

Configuration problems raise :class:`ConfigError` (CLI exit code 1);
everything that goes wrong while simulating or fitting derives from
:class:`SimulationError` (CLI exit code 2). The ``check_*`` helpers
state the parameter rules of the physics modules once, each raising
:class:`InvalidParameterError` worded "<name> must ..., got <value>"
(an array rule names no value).
"""

import math


class ConfigError(Exception):
    """Invalid, unknown, or physically inconsistent configuration input."""


class SimulationError(Exception):
    """Base class for runtime and physics errors."""


class InvalidParameterError(SimulationError, ValueError):
    """A parameter value is outside its physical or numerical domain."""


class ProtocolViolationError(SimulationError):
    """A pulse sequence breaks the constraints of the protocol it is used in."""


class DegenerateReadoutError(SimulationError):
    """Readout normalization is impossible (zero reference emission)."""


class DegenerateFitError(SimulationError):
    """The fit cannot proceed (singular Jacobian or unsolvable step)."""


class FlatDataError(SimulationError):
    """Input data carry no usable structure (constant within tolerance)."""


def check_finite(name: str, *values: float) -> None:
    for value in values:
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")


def check_positive(name: str, value: float) -> None:
    if not (value > 0.0) or not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be > 0, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    if not (value >= 0.0) or not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")


def check_entries_at_least(name: str, values, bound: float) -> None:
    """Every entry of the float array `values` finite and >= bound."""
    if not ((values >= bound) & (values < math.inf)).all():
        raise InvalidParameterError(f"{name} must be >= {bound:g}")


def check_unit_interval(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {value!r}")


def check_exponent(name: str, value: float, cap: float = 4) -> None:
    """A stretching exponent: 0 < value <= cap."""
    if not (0.0 < value <= cap):
        raise InvalidParameterError(f"{name} must lie in (0, {cap}], got {value!r}")
