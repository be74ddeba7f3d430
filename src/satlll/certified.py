"""Thin helpers over mpmath interval arithmetic.

certified_compare_ge decides a comparison only when the intervals settle
it; when they straddle the decision boundary the caller gets a
CertificationError, never a silent rounding.  midpoint_float turns an
interval into the float that is printed; no verdict is taken from it.
json_float writes an infinite float as JSON can carry it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import iv

from .errors import CertificationError

DEFAULT_PRECISION = 256


@contextmanager
def interval_precision(prec: int):
    """Temporarily set the working precision of the global iv context."""
    old = iv.prec
    iv.prec = prec
    try:
        yield iv
    finally:
        iv.prec = old


def iv_from_fraction(x: Fraction | int):
    """Enclosing interval for a rational (exact when numerator/denominator fit)."""
    x = Fraction(x)
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def certified_compare_ge(x, y, what: str) -> bool:
    """Certified x >= y; raises when the intervals overlap inconclusively."""
    if (x >= y) is True:
        return True
    if (x < y) is True:
        return False
    raise CertificationError(f"{what} not certifiable at current precision",
                             retry_precision=2 * iv.prec)


def midpoint_float(x) -> float:
    """Midpoint of an interval: each endpoint rounded, then summed and halved.

    The float is only printed, never decided on: it encloses nothing.  It
    rounds at the mp context precision, a double's 53 bits, as
    hj_family._midpoint does; rounding only the sum would change some last bits.
    """
    lo, hi = x._mpi_
    return float((mpmath.mpf(lo) + mpmath.mpf(hi)) / 2)


def json_float(x: float) -> float | str:
    """x, or "inf" / "-inf" as the text form prints it: JSON has no infinity."""
    return x if math.isfinite(x) else str(x)
