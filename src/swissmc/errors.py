"""Exception hierarchy shared across the package, the one helper that adds
context to its messages, and the package's rule for what an integer and a
finite number are."""

import math
import numbers
from contextlib import contextmanager


class SwissError(Exception):
    """Base class for every error raised by this package."""


class NotPositiveDefiniteError(SwissError):
    """A matrix required to be symmetric positive definite is not."""


class DecompositionError(SwissError):
    """LAPACK did not converge on an eigendecomposition."""


class InsufficientSamplesError(SwissError):
    """Too few draws to estimate the requested quantity."""


class DataError(SwissError):
    """Input data is degenerate or contains non-finite values."""


class ConvergenceError(SwissError):
    """An iterative procedure did not reach its tolerance."""


class InvalidInputError(SwissError):
    """Arguments are structurally invalid: shapes, sizes or parameters."""


class ParseError(SwissError):
    """A file could not be parsed; the message carries the line number."""


@contextmanager
def prefixed(prefix: str):
    """Prefix ``"{prefix}: "`` to a SwissError raised in the block, keeping its type."""
    try:
        yield
    except SwissError as err:
        raise type(err)(f"{prefix}: {err}") from err


def is_integer(value) -> bool:
    """An integer, numpy's included, never a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A finite real number, numpy's included, never a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int, else InvalidInputError naming ``name``."""
    if not is_integer(value):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")
    return int(value)

