"""Exception types shared across the package."""

from contextlib import contextmanager


class CrowdLossError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(CrowdLossError, ValueError):
    """Malformed geometric or numeric input (degenerate box, shape mismatch, ...)."""


class NoOverlapError(CrowdLossError, ValueError):
    """A force or loss was requested for a box pair with zero IoU."""


class InvalidAnnotationError(CrowdLossError, ValueError):
    """Scene annotation violates its contract (e.g. visible box not inside full box)."""


class InfeasibleConfigError(CrowdLossError, RuntimeError):
    """Scene generation could not satisfy the requested constraints."""


class DivergenceError(CrowdLossError, RuntimeError):
    """Gradient descent diverged. Carries the partial result for diagnostics."""

    def __init__(self, message, partial_result=None):
        super().__init__(message)
        self.partial_result = partial_result


class ConfigError(CrowdLossError, ValueError):
    """Bad or missing run configuration."""


@contextmanager
def at_line(path, lineno):
    """Re-raise a ValueError from reading one input line (an unparsable field,
    an invalid box or score) as :class:`InvalidInputError` prefixed ``path:lineno``."""
    try:
        yield
    except ValueError as exc:
        raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
