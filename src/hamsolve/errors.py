"""Exception types shared across the package."""


class HamError(Exception):
    """Base class for all package errors."""


class ConfigError(HamError, ValueError):
    """A problem description or solver configuration is invalid."""


class DomainError(HamError, ValueError):
    """An analytic function was evaluated outside its domain (log/sqrt/power)."""


class ParseError(HamError, ValueError):
    """Expression or problem-file text could not be parsed.

    ``line`` is 1-based when the source is a problem file, None for bare
    expression strings. ``column`` is 1-based within the offending line.
    """

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}: "
        elif column is not None:
            where = f"column {column}: "
        super().__init__(where + message)


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
