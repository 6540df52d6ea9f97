"""Exception types shared across the package."""


class NoduleSynthError(Exception):
    """Base class for all package-specific errors."""


class FormatError(NoduleSynthError):
    """Malformed binary file (bad magic, truncation, size mismatch)."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class PlacementError(NoduleSynthError):
    """No valid nodule placement found within the retry budget."""


class SearchExhaustedError(NoduleSynthError):
    """No valid healthy crop region found within the attempt budget."""


class SolverError(NoduleSynthError):
    """Sampler produced a non-finite state or was misconfigured."""


class TrainingError(NoduleSynthError):
    """Training aborted (non-finite loss)."""


class ValidationError(NoduleSynthError, ValueError):
    """An invalid argument or config value; a ValueError for old callers."""
