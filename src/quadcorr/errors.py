"""Exception hierarchy shared by all quadcorr modules, and how their messages
print large counts."""

from decimal import Decimal


def count_text(n: int) -> str:
    """n for a message: in full below 10^18, else to three digits through
    Decimal, since str() refuses integers of more than 4,300 digits."""
    return str(n) if n < 10**18 else f"{Decimal(n):.3g}"


class QuadcorrError(Exception):
    """Base class for all library errors."""


class OutOfRange(QuadcorrError):
    """A numeric argument is outside its documented domain."""


class NotSquarefree(QuadcorrError):
    """The field parameter d has a square factor."""


class FieldMismatch(QuadcorrError):
    """Two elements from different quadratic fields were combined."""


class InvalidElement(QuadcorrError):
    """Doubled coordinates violate the integrality (parity) rules of the ring."""


class NotInM(QuadcorrError):
    """Matrix is not in the trace/antitrace-even set M, so it has no Cayley quadruple."""


class WrongCongruenceClass(QuadcorrError):
    """The requested identity only holds for d outside this congruence class mod 8."""


class CapacityExceeded(QuadcorrError):
    """The requested table would exceed the configured memory budget."""


class ScaleGuard(QuadcorrError):
    """The requested enumeration is too large for the brute-force oracle."""


class DepthExceeded(QuadcorrError):
    """Coset search did not close within the configured depth limit."""
