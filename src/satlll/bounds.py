"""Closed-form bound functions and the resampling convergence criterion.

f_lll and f_mt are the per-literal occurrence bounds provable from the
symmetric LLL and from the resampling-convergence criterion; their gap
grows like 2^k / (2 e k^2).  The generic criterion sums exactly over the
orderable sets of the masks at which events hit each bad event; the k-SAT
specialization optimizes a single weight alpha in closed form.  Every
verdict and integer here is exact: f_lll and the gap inequality are
decided on rational brackets of e.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .errors import DomainError, SizeGuardError
from .events_graph import Event, literal_index

MASK_GUARD = 16  # the sum enumerates sets of the distinct masks hitting one event


@dataclass(frozen=True)
class HarrisVerdict:
    satisfied: bool
    witness: Optional[int]  # index of the first failing event, if any
    margin: Fraction  # mu(B) - P(B) * sum at the witness, else the least over all B


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


def _orderable_sum(b_index: int, events: Sequence[Event], numerators: Sequence[int],
                   denominators: Sequence[int], lits: list[int], holders: list[int]) -> Fraction:
    """Sum over the Y orderable to B = events[b_index] of prod over Y of mu,
    for mu_i = numerators[i] / denominators[i].

    Y runs over the empty set (term 1), {B}, and the nonempty sets of other
    events with an ordering in which each hits a literal of B that no
    earlier one hits.  A hits the literal z of B iff -z is in A, found in
    the literal index (lits, holders); A's hits are a mask over B's
    positions.  Y is orderable iff peeling empties it, removing one at a
    time a member that hits a literal no remaining member hits: the last
    of an ordering is one, and a peeling reversed is an ordering.  So Y
    holds at most one event per mask, its masks decide it, and the sum is
    1 + mu(B) + sum over the orderable sets M of distinct masks of prod
    over M of S_m, the sum of mu over the events hitting B at m.  Subsets
    of orderable sets are orderable, so only orderable sets are grown.
    The hitters' mu share one denominator D, their lcm, so S_m = s_m / D
    with int s_m, and the sums and products run on ints over the one scale
    D^n, n the number of masks: a set of t masks carries its product of s_m
    times D^(n - t), an int, since t <= n.
    SizeGuardError past MASK_GUARD distinct masks.
    """
    hits: dict[int, int] = {}
    for j, z in enumerate(events[b_index]):
        for i in holders[bisect_left(lits, -z):bisect_right(lits, -z)]:
            hits[i] = hits.get(i, 0) | 1 << j
    denominator = math.lcm(*{denominators[i] for i in hits})
    sums: dict[int, int] = {}
    for i, mask in hits.items():
        sums[mask] = sums.get(mask, 0) + numerators[i] * (denominator // denominators[i])
    if len(sums) > MASK_GUARD:
        raise SizeGuardError(
            f"event {b_index} is hit at {len(sums)} distinct masks, guard is {MASK_GUARD}")
    masks = list(sums.items())

    def grow(chosen: list[int], product: int, start: int) -> int:
        total = product
        for c in range(start, len(masks)):
            mask, weight = masks[c]
            if _peels(chosen + [mask]):
                total += grow(chosen + [mask], product * weight // denominator, c + 1)
        return total

    scale = denominator ** len(masks)
    return (Fraction(numerators[b_index], denominators[b_index])
            + Fraction(grow([], scale, 0), scale))


def harris_check(events: Sequence[Event], mu: Sequence[Fraction],
                 p: Sequence[Fraction]) -> HarrisVerdict:
    """Exact test of mu(B) >= P(B) * sum over orderable Y of prod mu, for every B.

    The sum runs over the empty Y (term 1) too, so mu = 0 fails wherever
    P(B) > 0.  The margin is mu(B) - P(B) * sum at the first B that fails,
    else the least over all B (0 for no events).
    """
    if len(mu) != len(events) or len(p) != len(events):
        raise DomainError("mu and p must have one entry per event")
    mu = [Fraction(x) for x in mu]
    p = [Fraction(x) for x in p]
    if any(x < 0 for x in mu):
        raise DomainError("mu weights must be nonnegative")
    if not all(0 <= x <= 1 for x in p):
        raise DomainError("probabilities must lie in [0, 1]")
    lits, holders = literal_index(events, max(map(abs, chain.from_iterable(events)), default=0))
    numerators = [x.numerator for x in mu]
    denominators = [x.denominator for x in mu]

    margins = []
    for b_index in range(len(events)):
        margin = mu[b_index] - p[b_index] * _orderable_sum(b_index, events, numerators,
                                                           denominators, lits, holders)
        if margin < 0:
            return HarrisVerdict(False, b_index, margin)
        margins.append(margin)
    return HarrisVerdict(True, None, min(margins, default=Fraction(0)))


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
