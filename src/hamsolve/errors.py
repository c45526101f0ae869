"""Exception types shared across the package, and its rules for
arguments, each of which names the argument it rejects:
``integer_argument`` for orders, sizes and counts, ``real_argument`` for
hbar, eps, domain ends, BC values, points and tolerances, and
``expressions.expression_argument`` for N, s, H, the exact solution,
operator coefficients and the children of expression nodes."""

import math
import numbers

import numpy as np


class HamError(Exception):
    """Base class for all package errors."""


class ConfigError(HamError, ValueError):
    """A problem description or solver configuration is invalid."""


class DomainError(HamError, ValueError):
    """An analytic function was evaluated outside its domain (log/sqrt/power)."""


class ParseError(HamError, ValueError):
    """Expression or problem-file text could not be parsed.

    ``line`` is 1-based when the source is a problem file, None for bare
    expression strings. ``column`` is 1-based within the expression text;
    in a problem file that is the entry's value, so it counts from the
    start of the value, not of the line. The message states the location
    once: "line L, column C: ...".
    """

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ", ".join(f"{name} {at}" for name, at in (("line", line), ("column", column)) if at is not None)
        super().__init__(f"{where}: {message}" if where else message)


class SingularOperatorError(HamError, ValueError):
    """The leading coefficient of a linear operator vanishes on the grid."""


class SingularSystemError(HamError, RuntimeError):
    """A boundary-value system is numerically singular (cond > 1e14)."""


class RangeError(HamError, IndexError):
    """A truncation-order or index argument is out of range."""


class GridMismatchError(HamError, ValueError):
    """A grid function has the wrong length for the grid it is used with."""


class PathAbortError(HamError, RuntimeError):
    """Continuation could not reach eps = 1; carries the partial path."""

    def __init__(self, message, path):
        super().__init__(message)
        self.path = path


def is_integer(value) -> bool:
    """Whether ``value`` is an integer argument (an order, a size, a count):
    an ``Integral`` that is not a bool, so ``np.int64`` passes and 2.0 or
    True do not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def integer_argument(value, name: str, low: int, high: float = math.inf, error=ConfigError):
    """``value`` itself when it is an integer argument (``is_integer``) in
    [low, high]; else ``error`` (a ConfigError unless the caller names
    another type) that names the argument."""
    if not (is_integer(value) and low <= value <= high):
        bounds = f">= {low}" if high == math.inf else f"in {low}..{high}"
        raise error(f"{name} must be an integer {bounds}, got {value!r}")
    return value


def real_argument(value, name: str, low: float = -math.inf, high: float = math.inf, nonzero: bool = False) -> float:
    """``value`` as a float when ``float()`` takes it (``np.float64`` and
    numeric strings do), it is not a bool, and the value is finite, in
    [low, high] and, if ``nonzero``, not zero; else a ConfigError that
    names the argument."""
    try:
        x = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and low <= x <= high and not (nonzero and x == 0.0)):
        bounds = f" in [{low:g}, {high:g}]" if math.isfinite(low) or math.isfinite(high) else ""
        raise ConfigError(f"{name} must be a {'nonzero ' if nonzero else ''}finite real{bounds}, got {value!r}")
    return x
