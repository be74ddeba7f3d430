"""Reference computations for checking satlll's outputs.

Nothing here imports satlll: each check reaches the expected answer by a
route of its own, so a bug shared by the program and its own self-checks
still shows.  Graphs are bitmask neighbourhoods; formulas are lists of
DIMACS clauses (lists of non-zero ints).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath


# --- independence polynomials ------------------------------------------------

def neighbour_masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


class IndependenceCounts:
    """Independent-set counts by size for induced subgraphs G[mask].

    Deleting the highest vertex h gives I(mask) = I(mask - h) + x I(mask - N[h]),
    so evaluating the whole vertex set also evaluates every prefix
    {0..i-1}, which the chain criterion below needs.
    """

    def __init__(self, nbr: list[int]):
        self.nbr = nbr
        self.memo: dict[int, tuple[int, ...]] = {0: (1,)}

    def poly(self, mask: int) -> tuple[int, ...]:
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        h = mask.bit_length() - 1
        rest = mask & ~(1 << h)
        without = self.poly(rest)
        with_h = self.poly(rest & ~self.nbr[h])
        out = list(without) + [0] * max(0, len(with_h) + 1 - len(without))
        for i, c in enumerate(with_h):
            out[i + 1] += c
        result = tuple(out)
        self.memo[mask] = result
        return result

    def z(self, mask: int, p: Fraction) -> Fraction:
        """Z_{G[mask]}(-p) for the uniform probability p."""
        value = Fraction(0)
        for c in reversed(self.poly(mask)):
            value = value * -p + c
        return value


def independent_set_count(nbr: list[int], mask: int) -> int:
    """Number of independent sets of G[mask] (the empty set included)."""
    memo = {0: 1}

    def count(m: int) -> int:
        cached = memo.get(m)
        if cached is None:
            h = m.bit_length() - 1
            rest = m & ~(1 << h)
            cached = memo[m] = count(rest) + count(rest & ~nbr[h])
        return cached
    return count(mask)


def first_root(poly: tuple[int, ...]) -> float:
    """Smallest positive root of x -> Z(-x), located in floats."""
    def f(x):
        return sum(c * (-x) ** i for i, c in enumerate(poly))
    lo, step = 0.0, 1.0 / 1024
    while f(lo + step) > 0:
        lo += step
    hi = lo + step
    for _ in range(60):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo


def chain_satisfied(counts: IndependenceCounts, n: int, p: Fraction) -> bool:
    """Shearer's condition for uniform p: Z_{G[W]}(-p) > 0 along W = {0..i-1}.

    The condition holds iff the independence polynomial stays positive
    along one maximal chain of induced subgraphs (Scott & Sokal 2005).
    """
    return all(counts.z((1 << i) - 1, p) > 0 for i in range(1, n + 1))


def q_value(counts: IndependenceCounts, n: int, base: tuple[int, ...],
            p: Fraction) -> Fraction | None:
    """Q(G, S, p) = p^|S| Z_{G - S - N(S)}(-p), or None if S is not independent."""
    removed = 0
    for v in base:
        if not 0 <= v < n or (removed >> v) & 1 or counts.nbr[v] & sum(1 << u for u in base):
            return None
        removed |= (1 << v) | counts.nbr[v]
    rest = ((1 << n) - 1) & ~removed
    return p ** len(base) * counts.z(rest, p)


def shearer_by_definition(n: int, nbr: list[int], p: Fraction) -> bool:
    """Q(G, S, p) > 0 for every independent S, by enumerating all S."""
    counts = IndependenceCounts(nbr)
    for mask in range(1 << n):
        base = tuple(v for v in range(n) if (mask >> v) & 1)
        value = q_value(counts, n, base, p)
        if value is not None and value <= 0:
            return False
    return True


# --- formulas ----------------------------------------------------------------

def extremal_clauses(k: int, L: int, r: int) -> tuple[int, list[list[int]]]:
    """The paper's extremal formula, built from its definition.

    Stage i appends L-1 clauses holding x_i and then L-1 holding ~x_i; the
    other k-1 slots of each clause take fresh positive variables, numbered
    in clause order from 2.  Returns (variable count, clauses).
    """
    clauses = []
    next_var = 2
    for i in range(1, r + 1):
        for literal in (i, -i):
            for _ in range(L - 1):
                clauses.append([literal] + list(range(next_var, next_var + k - 1)))
                next_var += k - 1
    return (next_var - 1 if r else 0), clauses


def dimacs_text(m: int, clauses) -> str:
    lines = [f"p cnf {m} {len(clauses)}\n"]
    lines.extend(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return "".join(lines)


def satisfies(clauses, assignment: dict[int, bool]) -> bool:
    return all(any(assignment[abs(x)] == (x > 0) for x in c) for c in clauses)


def graph_edges(clauses) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """(lopsidependency, dependency) edge sets from a variable -> clause index.

    The bad event of a clause sets each of its variables against the
    literal, so two events disagree exactly when some variable occurs
    positively in one clause and negatively in the other.
    """
    positive: dict[int, list[int]] = {}
    negative: dict[int, list[int]] = {}
    for idx, clause in enumerate(clauses):
        for x in clause:
            (positive if x > 0 else negative).setdefault(abs(x), []).append(idx)
    lopsided, dependent = set(), set()
    for v in positive.keys() | negative.keys():
        pos, neg = positive.get(v, []), negative.get(v, [])
        lopsided.update((min(a, b), max(a, b)) for a in pos for b in neg if a != b)
        both = pos + neg
        dependent.update((min(a, b), max(a, b)) for a in both for b in both if a < b)
    return lopsided, dependent


# --- closed forms and the fixed-point iteration ------------------------------

def f_lll(k: int) -> int:
    with mpmath.workprec(512):
        return int(mpmath.floor(mpmath.mpf(2) ** k / (mpmath.e * k) - mpmath.mpf(1) / k))


def f_mt(k: int) -> int:
    return (2 ** k - 1) * (k - 1) ** (k - 1) // k ** k


def gap_holds(k: int) -> bool:
    return f_mt(k) - f_lll(k) >= 2 ** k / (2 * math.e * k * k) - 1


def violation_step(k: int, L: int, max_iter: int = 20_000) -> int | None:
    """First j with a_j <= 2^{-2/(2L-2)} for a_j = g(a_{j-1}), a_0 = 1.

    Plain 512-bit point iteration, not the program's interval one.  None
    when the iterate settles above the threshold instead.
    """
    with mpmath.workprec(512):
        p = mpmath.mpf(2) ** -k
        threshold = mpmath.mpf(2) ** (mpmath.mpf(-2) / (2 * L - 2))
        a = mpmath.mpf(1)
        for j in range(1, max_iter + 1):
            a_new = 1 - p / (2 - a ** (-(L - 1))) ** (k - 1)
            if a_new <= threshold:
                return j
            if abs(a_new - a) < mpmath.mpf(2) ** -400:
                return None
            a = a_new
    return None
