"""Exception hierarchy shared by all modules."""


class DiscordError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitianError(DiscordError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NonUnitTraceError(DiscordError):
    """A density matrix whose trace deviates from 1 beyond tolerance."""


class NotPositiveSemidefiniteError(DiscordError):
    """A density matrix with an eigenvalue below the PSD tolerance."""


class DimensionMismatchError(DiscordError):
    """Operands whose dimensions are incompatible."""


class InvalidDistributionError(DiscordError):
    """A probability table with negative entries or wrong normalization."""


class NotUnitVectorError(DiscordError):
    """A real 3-vector that must have unit norm does not."""


class NumericalResidueError(DiscordError):
    """An imaginary residue too large to be round-off; likely misuse."""


class DomainError(DiscordError, ValueError):
    """A parameter outside its documented domain."""


class StateFormatError(DiscordError):
    """A density-matrix JSON document that violates the file schema."""
