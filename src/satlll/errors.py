"""Exception hierarchy shared by all satlll modules, and the printability rule."""

import sys


class SatLllError(Exception):
    """Base class for all satlll errors."""


class DomainError(SatLllError):
    """A parameter is outside the mathematical domain of an operation."""


class SizeGuardError(SatLllError):
    """A configurable size guard (vertices, clauses, enumeration cap) was exceeded."""


def printable(n: int) -> bool:
    """True iff str() prints the int n: |n| < 10^limit, or the int-string limit is 0.
    8^limit < 10^limit < 16^limit, so 10^limit is formed only at 3..4 * limit bits."""
    limit, bits = sys.get_int_max_str_digits(), n.bit_length()
    return not limit or bits <= 3 * limit or bits <= 4 * limit and abs(n) < 10 ** limit


def guard_count(n: int, guard: int) -> str:
    """n, or "more than guard" when str() refuses n's digits (the int-string limit)."""
    return str(n) if printable(n) else f"more than {guard}"


class CertificationError(SatLllError):
    """A comparison could not be certified at the working precision.

    Raised instead of silently rounding, when an enclosure rounded outward
    straddles the decision boundary.  When more precision may help,
    retry_precision suggests a precision to retry at (twice the one that
    failed); it is None when the failure does not depend on precision.
    """

    def __init__(self, message, retry_precision=None):
        super().__init__(message)
        self.retry_precision = retry_precision


class DimacsError(SatLllError):
    """Malformed DIMACS input.  The message starts with the 1-based line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
