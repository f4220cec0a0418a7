"""Exception and warning types shared across the package."""

__all__ = [
    "KerrThermoError",
    "TruncationError",
    "TraceDriftError",
    "NumericalFailureError",
    "GridInsufficientError",
    "ConfigError",
    "BracketBoundaryWarning",
]


class KerrThermoError(Exception):
    """Base class for all errors raised by this package."""


class TruncationError(KerrThermoError):
    """The Fock-space cutoff is too small for the requested computation."""


class TraceDriftError(KerrThermoError):
    """Propagation lost more trace than the monitor allows."""


class NumericalFailureError(KerrThermoError):
    """A linear-algebra step failed or produced an untrustworthy result."""


class GridInsufficientError(KerrThermoError):
    """A phase-space measurement grid does not resolve the identity well enough."""


class ConfigError(KerrThermoError):
    """A scenario configuration is syntactically or semantically invalid."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BracketBoundaryWarning(UserWarning):
    """An optimizer returned a maximizer on the edge of its search bracket."""
