"""Exception hierarchy shared across the package, and the one helper that
adds context to its messages."""

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
