"""Exception types shared across the package, and the exit codes they map to."""

# Process exit codes; a run manifest records the same values.
EXIT_OK = 0
EXIT_CONFIG = 2   # a ConfigError: nothing has run
EXIT_RUNTIME = 3  # any other GridMoeError, raised while running


class GridMoeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GridMoeError, ValueError):
    """An input was rejected because its shape does not fit the operation."""


class ConfigError(GridMoeError, ValueError):
    """A configuration value is missing, malformed, or out of range."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class DomainError(GridMoeError, ValueError):
    """An input value lies outside the mathematical domain of the operation."""


class UsageError(GridMoeError, RuntimeError):
    """The caller violated an API precondition (wrong call order, bad handle)."""


class TrainingAborted(GridMoeError, RuntimeError):
    """Training stopped on a non-finite loss; carries the diagnostic dump path."""

    def __init__(self, message: str, dump_path: str | None = None):
        self.dump_path = dump_path
        super().__init__(message)
