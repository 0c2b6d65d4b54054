"""Exception types shared across the package, and the rules every record checks and freezes its values with."""

import io
import math
import numbers
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


def open_text(path, newline=None) -> io.StringIO:
    """The UTF-8 text of ``path``, read as ``open(path, newline=newline)`` would
    read it; a byte that is not UTF-8 is rejected at its ``path:line``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode(), newline=newline)
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # counted as universal newlines count lines: \n, \r and \r\n
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise InvalidInputError(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from exc


def positive(value) -> bool:
    return math.isfinite(value) and value > 0.0


def non_negative(value) -> bool:
    return math.isfinite(value) and value >= 0.0


def integer(value) -> bool:  # a Python or numpy integer, not a bool
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# the rule for a seed, wherever a generator is seeded
SEED = (lambda v: integer(v) and v >= 0, "an integer >= 0")


def check(record, keys, ok, rule: str) -> None:
    """Reject the first of ``keys`` whose value in ``record`` fails ``ok`` with
    :class:`InvalidInputError` ``"{key} must be {rule}, got {value!r}"``."""
    for key in keys:
        value = getattr(record, key)
        if not ok(value):
            raise InvalidInputError(f"{key} must be {rule}, got {value!r}")


def freeze(record, *sequences, **arrays) -> None:
    """From a frozen dataclass's ``__post_init__``: store its fields ``sequences`` as
    tuples (None stays None), and ``arrays``, the record's own copies, read-only."""
    for name in sequences:
        value = getattr(record, name)
        object.__setattr__(record, name, value if value is None else tuple(value))
    for name, array in arrays.items():
        array.flags.writeable = False
        object.__setattr__(record, name, array)
