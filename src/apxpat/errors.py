"""Exception types shared across the package.

Every error the package raises on purpose is an ``ApxpatError``.  An
argument outside the domain a function accepts raises ``InvalidArgument``,
from the shared checks in ``bounds``; ``InvalidArgument``,
``DimensionMismatch`` and ``ParseError`` are also ``ValueError``s, so a
caller that catches ``ValueError`` catches them too.
"""


class ApxpatError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(ApxpatError, ValueError):
    """An argument outside the domain the function accepts: a value that is
    not a number of the required kind or range, or points the function
    cannot work with."""


class DimensionMismatch(ApxpatError, ValueError):
    """Operands carry incompatible dimensions."""


class InsufficientSeparation(ApxpatError):
    """Input set violates the declared minimum pairwise distance."""


class InfeasibleGeneration(ApxpatError):
    """Requested point count cannot be packed, does not fit in memory, or the
    attempt budget ran out."""


class ResolutionOverflow(ApxpatError):
    """Pattern reduction would need a finer grid than the resolution cap."""


class BudgetExceeded(ApxpatError):
    """Brute-force enumeration or clique search would exceed its hard cap."""


class InternalError(ApxpatError, RuntimeError):
    """A certificate that is guaranteed by construction failed to verify."""


class ParseError(ApxpatError, ValueError):
    """Malformed point-set file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
