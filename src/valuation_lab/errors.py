"""Exception types shared across the package."""


class ValuationError(Exception):
    """Base class for all domain errors raised by valuation_lab."""


class InvalidConfigurationError(ValuationError):
    """A proximity structure or tangent segment violates an admissibility rule."""


class ReconstructionError(ValuationError):
    """A maximal-contact sequence admits no configuration reproducing it."""


class VerificationError(ValuationError):
    """An internally constructed object failed its own consistency check."""


class FileFormatError(ValuationError):
    """A valuation file does not match the documented JSON schema."""


class ChainTooLongError(ValuationError):
    """A chain has too many points to list one by one."""


__all__ = [
    "ChainTooLongError",
    "FileFormatError",
    "InvalidConfigurationError",
    "ReconstructionError",
    "ValuationError",
    "VerificationError",
]
