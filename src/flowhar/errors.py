"""Exception hierarchy shared across the library.

Each class is one that some caller tells apart: the CLI maps ConfigError to
exit 1, DataError (ParseError included) to exit 2 and any other FlowError to
exit 3.
"""


class FlowError(Exception):
    """Base class for all library errors."""


class ConfigError(FlowError):
    """Invalid configuration value or combination."""


class InvalidInputError(FlowError, ValueError):
    """An operation received arguments outside its contract."""


class DataError(FlowError):
    """Problems with on-disk recordings or dataset descriptions."""


class ParseError(DataError):
    """Malformed row in a recording file.  Carries the 1-based line number."""

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no

    def at(self, path):
        """The message after path and, when the line is known, its number."""
        return f"{path} line {self.line_no}: {self}" if self.line_no else f"{path}: {self}"
