"""Closed-form bound functions and the resampling convergence criterion.

f_lll and f_mt are the per-literal occurrence bounds provable from the
symmetric LLL and from the resampling-convergence criterion; their gap
grows like 2^k / (2 e k^2).  The generic criterion enumerates orderable
sets of bad events exactly; the k-SAT specialization optimizes a single
weight alpha in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

import mpmath
from mpmath import iv

from .certified import (DEFAULT_PRECISION, certified_compare_ge,
                        certified_floor, endpoints, interval_precision,
                        iv_from_fraction, midpoint_float)
from .errors import DomainError, SizeGuardError
from .events_graph import BadEvent, atom_hits, disagree

EVENT_GUARD = 16  # orderable_sets enumerates subsets of the events


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    satisfied: bool
    parameters: dict
    witness: Optional[int] = None  # index of the failing event, if any
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"criterion": self.criterion, "satisfied": self.satisfied,
                "parameters": self.parameters, "witness": self.witness,
                "details": self.details}


def f_lll(k: int, precision: int = DEFAULT_PRECISION) -> int:
    """floor(2^k / (e k) - 1/k), floored by certified interval evaluation of e."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    with interval_precision(precision):
        value = iv.mpf(2) ** k / (iv.e * k) - iv.mpf(1) / k
        return certified_floor(value, what=f"f_lll({k})")


def f_mt(k: int) -> int:
    """floor((2^k - 1)(1 - 1/k)^{k-1} / k) in pure integer arithmetic."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    return (2 ** k - 1) * (k - 1) ** (k - 1) // k ** k


def orderable_sets(b_index: int, events: Sequence[BadEvent]) -> Iterator[frozenset[int]]:
    """All Y that are orderable to events[b_index], as frozensets of indices.

    Yields the empty set first (its product is the term 1 of the criterion),
    then the singleton {B}, then every nonempty subset of events disagreeing
    with B that admits an ordering in which each element is hit by a fresh
    atom of B.
    """
    if len(events) > EVENT_GUARD:
        raise SizeGuardError(f"{len(events)} events exceeds enumeration guard {EVENT_GUARD}")
    b = events[b_index]
    yield frozenset()
    yield frozenset({b_index})

    candidates = [i for i in range(len(events))
                  if i != b_index and disagree(events[i], b)]
    atoms = frozenset(b.atoms)
    memo: dict[tuple[frozenset[int], frozenset], bool] = {}

    def can_order(remaining: frozenset[int], alive: frozenset) -> bool:
        if not remaining:
            return True
        key = (remaining, alive)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = False
        for i in remaining:
            if any(atom_hits(z, events[i]) for z in alive):
                new_alive = frozenset(z for z in alive if not atom_hits(z, events[i]))
                if can_order(remaining - {i}, new_alive):
                    result = True
                    break
        memo[key] = result
        return result

    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            if can_order(frozenset(subset), atoms):
                yield frozenset(subset)


def harris_check(events: Sequence[BadEvent], mu: Sequence[Fraction],
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


def harris_ksat_alpha(k: int, L: int, precision: int = DEFAULT_PRECISION):
    """Optimized uniform weight for width-k clauses under occurrence bound L.

    alpha = (((2^k - 1)/(k L))^{1/(k-1)} - 1) / L; the criterion holds iff
    alpha >= 2^{-k} (alpha + (1 + L alpha)^k), decided by certified comparison.
    Returns (alpha as an mpf, satisfied).
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if L < 1:
        raise DomainError(f"L must be >= 1, got {L}")
    if L * k > 2 ** k - 1:
        raise DomainError(
            f"L={L} exceeds (2^k - 1)/k = {(2 ** k - 1)}/{k}; alpha would be negative")
    with interval_precision(precision):
        ratio = iv_from_fraction(Fraction(2 ** k - 1, k * L))
        alpha = (ratio ** (iv.mpf(1) / (k - 1)) - 1) / L
        rhs = iv_from_fraction(Fraction(1, 2 ** k)) * (alpha + (1 + L * alpha) ** k)
        satisfied = certified_compare_ge(alpha, rhs,
                                         what=f"harris alpha criterion k={k} L={L}")
        lo, hi = endpoints(alpha)
    with mpmath.mp.workprec(precision):
        return (lo + hi) / 2, satisfied


def gap_inequality(k: int, precision: int = DEFAULT_PRECISION) -> CriterionReport:
    """Certified check of f_mt(k) - f_lll(k) >= 2^k / (2 e k^2) - 1."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    lhs = f_mt(k) - f_lll(k, precision)
    with interval_precision(precision):
        rhs = iv.mpf(2) ** k / (2 * iv.e * k ** 2) - 1
        holds = certified_compare_ge(iv.mpf(lhs), rhs, what=f"gap inequality k={k}")
        rhs_mid = midpoint_float(rhs)
    return CriterionReport(criterion="gap_inequality", satisfied=holds,
                           parameters={"k": k},
                           details={"lhs": lhs, "rhs": rhs_mid})
