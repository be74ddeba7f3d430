"""Thin helpers over mpmath interval arithmetic for certified comparisons.

Every verdict that feeds an integer floor or a boolean goes through these
helpers; when an interval straddles the decision boundary the caller gets
a CertificationError (or a three-valued None), never a silent rounding.
"""

from __future__ import annotations

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


def endpoints(x) -> tuple[mpmath.mpf, mpmath.mpf]:
    lo, hi = x._mpi_
    return mpmath.mpf(lo), mpmath.mpf(hi)


def certainly_le(x, y) -> bool:
    return (x <= y) is True


def certainly_lt(x, y) -> bool:
    return (x < y) is True


def certainly_ge(x, y) -> bool:
    return (x >= y) is True


def certainly_gt(x, y) -> bool:
    return (x > y) is True


def certified_floor(x, what: str = "value") -> int:
    """Floor of an interval, provided both endpoints agree on it."""
    lo, hi = endpoints(x)
    floor_lo = int(mpmath.floor(lo))
    floor_hi = int(mpmath.floor(hi))
    if floor_lo != floor_hi:
        raise CertificationError(
            f"floor of {what} not certified: interval [{mpmath.nstr(lo, 30)}, "
            f"{mpmath.nstr(hi, 30)}] straddles an integer")
    return floor_lo


def certified_compare_ge(x, y, what: str = "comparison") -> bool:
    """Certified x >= y; raises when the intervals overlap inconclusively."""
    if certainly_ge(x, y):
        return True
    if certainly_lt(x, y):
        return False
    raise CertificationError(f"{what} not certifiable at current precision")


def midpoint_float(x) -> float:
    lo, hi = endpoints(x)
    return float((lo + hi) / 2)
