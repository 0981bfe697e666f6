"""Exception hierarchy shared across the package."""


class DdppError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DdppError, ValueError):
    """Malformed numerical input (non-finite entries, bad shape or size)."""


class NotPositiveDefiniteError(DdppError):
    """Cholesky failed.

    ``pivot`` is the 0-based index of the leading minor that failed.
    """

    pivot = None  # as rebuilt from a wire frame

    def __init__(self, pivot, message=None):
        self.pivot = pivot
        super().__init__(message or f"matrix not positive definite (pivot {pivot})")


class NotPsdError(DdppError):
    """An eigenvalue fell below the tolerated negative threshold."""


class TooLargeError(DdppError):
    """Combinatorial guard exceeded (exhaustive enumeration refused)."""


class DecodeError(DdppError):
    """Wire frame failed to decode.  ``offset`` is the failing byte offset."""

    offset = None  # as rebuilt from a wire frame

    def __init__(self, offset, message):
        self.offset = offset
        super().__init__(f"{message} (offset {offset})")


class ProtocolError(DdppError):
    """A frame that decodes but contradicts its channel.

    Its sender, interval, index range or vector width is not what the
    receiving end expects.
    """


class BudgetViolationError(DdppError):
    """A bandwidth budget rule was violated (hard failure, not a warning)."""


class ScalingViolationError(DdppError):
    """Ground-truth log-determinant is not positive; re-normalize the data."""


class DegenerateInputError(DdppError):
    """Statistical input carries no usable signal (e.g. zero variance)."""


class InvalidConfigError(DdppError, ValueError):
    """Experiment or CLI configuration violates its invariants."""


class IngestError(DdppError):
    """Dataset file rejected.  ``row`` is the offending 0-based row, if known."""

    row = None  # as rebuilt from a wire frame

    def __init__(self, message, row=None):
        self.row = row
        suffix = f" (row {row})" if row is not None else ""
        super().__init__(message + suffix)
