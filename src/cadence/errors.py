"""Exception types shared across the package."""


class CadenceError(Exception):
    """Base class for all library errors."""


class FormatError(CadenceError, ValueError):
    """An input file violates its expected format."""


class RowError(FormatError):
    """A single data row is malformed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InsufficientHistoryError(CadenceError, ValueError):
    """Not enough arrivals before the cutoff to condition a prediction on."""
