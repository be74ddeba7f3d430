"""Closed-form bound functions and the resampling convergence criterion.

f_lll and f_mt are the per-literal occurrence bounds provable from the
symmetric LLL and from the resampling-convergence criterion; their gap
grows like 2^k / (2 e k^2).  The generic criterion enumerates orderable
sets of bad events exactly; the k-SAT specialization optimizes a single
weight alpha in closed form.  Every verdict and integer here is exact:
f_lll and the gap inequality are decided on rational brackets of e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import DomainError, SizeGuardError
from .events_graph import Event

EVENT_GUARD = 16  # orderable_sets enumerates subsets of the events


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    satisfied: bool
    parameters: dict
    witness: Optional[int] = None  # index of the failing event, if any
    details: dict = field(default_factory=dict)


def _decide_at_e(value):
    """value(p, q) at e = p/q, for value monotone in e, from a bracket of e.

    s/n! < e < (n s + 1)/(n n!) with s = sum over i <= n of n!/i!, as the
    tail sum over i > n of 1/i! is below 1/(n n!); n doubles until both
    ends give the same answer, which is then the answer at e.
    """
    n = 16
    while True:
        s = f = 1
        for i in range(1, n + 1):
            s, f = i * s + 1, i * f
        answer = value(s, f)
        if answer == value(n * s + 1, n * f):
            return answer
        n *= 2


def f_lll(k: int) -> int:
    """floor((2^k / e - 1) / k), exactly."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    return _decide_at_e(lambda p, q: (2 ** k * q - p) // (k * p))


def f_mt(k: int) -> int:
    """floor((2^k - 1)(1 - 1/k)^{k-1} / k) in pure integer arithmetic."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    return (2 ** k - 1) * (k - 1) ** (k - 1) // k ** k


def _peels(masks: list[int]) -> bool:
    """True iff the masks can be removed one at a time, each with a bit no other left has."""
    while masks:
        once = twice = 0
        for mask in masks:
            twice |= once & mask
            once |= mask
        rest = [mask for mask in masks if not mask & once & ~twice]
        if len(rest) == len(masks):
            return False
        masks = rest
    return True


def orderable_sets(b_index: int, events: Sequence[Event]) -> Iterator[frozenset[int]]:
    """All Y that are orderable to events[b_index], as frozensets of indices.

    Yields the empty set first (its product is the term 1 of the criterion),
    then the singleton {B}, then, in lexicographic order, every nonempty set
    of other events with an ordering in which each hits a literal of B that
    no earlier one hits.  Event A hits the literal z of B iff -z is in A.

    Y is orderable iff peeling empties it, removing one at a time a member
    that hits a literal of B no remaining member hits: the last element of
    an ordering is one, and a peeling reversed is an ordering.  Dropping
    members from an ordering leaves one, so subsets of orderable sets are
    orderable.  Hence any peelable member may go first, and all of them at
    once (removals only make literals less hit), and the search need only
    grow orderable sets.  A member's hits are a bit mask over B's positions.
    """
    if len(events) > EVENT_GUARD:
        raise SizeGuardError(f"{len(events)} events exceeds enumeration guard {EVENT_GUARD}")
    b = events[b_index]
    yield frozenset()
    yield frozenset({b_index})

    hits = [(i, mask) for i, event in enumerate(events) if i != b_index
            if (mask := sum(1 << j for j, z in enumerate(b) if -z in event))]

    def grow(chosen: tuple[int, ...], masks: list[int], start: int):
        for c in range(start, len(hits)):
            i, mask = hits[c]
            if _peels(masks + [mask]):
                yield frozenset(chosen + (i,))
                yield from grow(chosen + (i,), masks + [mask], c + 1)

    yield from grow((), [], 0)


def harris_check(events: Sequence[Event], mu: Sequence[Fraction],
                 p: Sequence[Fraction]) -> CriterionReport:
    """Exact test of mu(B) >= P(B) * sum over orderable Y of prod mu, for every B.

    The sum runs over every Y that orderable_sets yields, the empty Y (term
    1) included, so mu = 0 fails wherever P(B) > 0.
    """
    if len(mu) != len(events) or len(p) != len(events):
        raise DomainError("mu and p must have one entry per event")
    mu = [Fraction(x) for x in mu]
    p = [Fraction(x) for x in p]
    if any(x < 0 for x in mu):
        raise DomainError("mu weights must be nonnegative")

    margins = []
    for b_index in range(len(events)):
        total = Fraction(0)
        for y in orderable_sets(b_index, events):
            term = Fraction(1)
            for i in y:
                term *= mu[i]
            total += term
        margin = mu[b_index] - p[b_index] * total
        margins.append(margin)
        if margin < 0:
            return CriterionReport(
                criterion="harris", satisfied=False,
                parameters={"events": len(events)},
                witness=b_index,
                details={"margin": str(margin)})
    return CriterionReport(criterion="harris", satisfied=True,
                           parameters={"events": len(events)},
                           details={"min_margin": str(min(margins, default=Fraction(0)))})


def harris_ksat_alpha(k: int, L: int, precision: int) -> float:
    """Optimized uniform weight for width-k clauses under occurrence bound L.

    alpha = (((2^k - 1)/(k L))^{1/(k-1)} - 1) / L.  The criterion
    2^k alpha >= alpha + (1 + L alpha)^k holds exactly when L <= f_mt(k):
    (1) x = 1 + L alpha has x^{k-1} = (2^k - 1)/(k L), so the criterion,
    (2^k - 1) alpha >= x^k, reads (x - 1) k x^{k-1} >= x^k; (2) that is
    x >= k/(k-1); (3) that is L k^k <= (2^k - 1)(k-1)^{k-1}, never with
    equality, as k^k does not divide 2^k - 1; (4) that is L <= f_mt(k), as
    L is an integer.  Returns alpha as a float, rounded at precision bits.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if L < 1:
        raise DomainError(f"L must be >= 1, got {L}")
    if L * k > 2 ** k - 1:
        raise DomainError(
            f"L={L} exceeds (2^k - 1)/k = {(2 ** k - 1)}/{k}; alpha would be negative")
    from mpmath import fdiv, mp  # for the printed alpha only, so off the import path

    with mp.workprec(precision):  # printed only, so rounded to nearest
        return float((fdiv(2 ** k - 1, k * L) ** fdiv(1, k - 1) - 1) / L)


def gap_inequality(k: int, lhs: int) -> tuple[bool, float]:
    """(holds, rhs): lhs >= rhs = 2^k / (2 e k^2) - 1 exactly, for lhs = f_mt(k) - f_lll(k)."""
    # At e = p/q, rhs = (2^k q - 2 k^2 p) / (2 k^2 p): int true division
    # rounds it once to the nearest float, and raises past the float range.
    def value(p: int, q: int) -> tuple[bool, float]:
        try:
            rhs = (2 ** k * q - 2 * k * k * p) / (2 * k * k * p)
        except OverflowError:
            rhs = math.inf
        return (lhs + 1) * 2 * k * k * p >= 2 ** k * q, rhs

    return _decide_at_e(value)
