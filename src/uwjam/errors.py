"""Error types shared across the package."""

__all__ = ["ConfigError", "SolverError", "TableError"]


class ConfigError(ValueError):
    """A scenario or game configuration is malformed."""


class TableError(Exception):
    """A strategy table file is malformed, corrupt, or inconsistent
    with the configuration it is used with."""


class SolverError(RuntimeError):
    """The matrix-game simplex failed to converge."""
