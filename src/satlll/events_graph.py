"""Bad events as clauses, and the canonical (lopsi)dependency graphs.

A bad event is the clause it falsifies, kept as the tuple of the clause's
signed DIMACS literals: clause C is false exactly when x_|l| = (l < 0) for
each literal l of C, so l stands for the atom (|l|, l < 0).  Event A hits
the literal z of event B when -z is in A, that is when A forces x_|z| the
other way; two events disagree when one hits the other.  The canonical
lopsidependency graph has an edge exactly between disagreeing events, the
canonical dependency graph between events sharing any variable.  Both are
built from the literal index, the N = sum |B| literal occurrences sorted
once by literal (O(N log N) comparisons in C, two lists of N entries), so
the cost is that sort, O(m) to cut it at every variable, and O(sum over
variables v of R(v)^2) edges, not O(n^2) pair tests.  Each event names a
variable at most once, as every clause of a Formula does.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, product, repeat
from typing import Iterable, Sequence

from .errors import DomainError

Event = tuple[int, ...]


@dataclass(frozen=True)
class DepGraph:
    """Undirected graph on 0..n-1 with optional payloads.  from_edges checks its
    edges; the constructor trusts adjacency to be symmetric, in range and loop-free."""

    adjacency: tuple[frozenset[int], ...]
    payloads: tuple = ()

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], payloads=()) -> "DepGraph":
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) out of range for n={n}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        # tuple() of a list, not of a generator: see hj_family._bits.
        return cls(tuple([frozenset(s) for s in nbrs]), tuple(payloads))

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]


def events_from_formula(formula) -> list[Event]:
    """The bad events of formula: its clauses, as tuples of signed literals."""
    return list(zip(*[iter(formula.literals)] * formula.width))


def literal_index(events: Sequence[Event], m: int) -> tuple[list[int], list[int]]:
    """(lits, holders): every literal occurrence of events, sorted by literal.

    lits[j] is the j-th smallest literal and holders[j] the event it came
    from; the sort is stable, so the events with literal z are
    holders[bisect_left(lits, z):bisect_right(lits, z)] in increasing
    order.  Variables must lie in [1, m]; DomainError otherwise, checked
    on the ends of lits and at the place of 0.  The cost is one sort of
    the N = sum |B| occurrence positions, in O(N log N) comparisons made
    in C, and two lists of N entries; nothing is kept per variable.
    """
    flat = list(chain.from_iterable(events))
    order = sorted(range(len(flat)), key=flat.__getitem__)
    lits = list(map(flat.__getitem__, order))
    zero = bisect_left(lits, 0)
    if lits and (lits[0] < -m or lits[-1] > m or lits[zero:zero + 1] == [0]):
        z = next(z for z in flat if not 0 < abs(z) <= m)
        raise DomainError(f"event mentions variable {abs(z)}, outside [1, {m}]")
    owner = [i for i, event in enumerate(events) for _ in event]
    return lits, list(map(owner.__getitem__, order))


def _slots(events: Sequence[Event]):
    """(events with literal v, events with literal -v) for every variable v."""
    m = max(map(abs, chain.from_iterable(events)), default=0)
    lits, holders = literal_index(events, m)
    # bound[m + z] is where literal z starts in lits, for z in [-m, m + 1].
    bound = list(accumulate(map(Counter(lits).get, range(-m, m + 1), repeat(0)), initial=0))
    return zip(map(holders.__getitem__, map(slice, bound[m + 1:2 * m + 1], bound[m + 2:])),
               map(holders.__getitem__, map(slice, bound[m - 1::-1], bound[m:0:-1])))


def lopsidependency_graph(events: Sequence[Event]) -> DepGraph:
    """Two events disagree iff, for some v, one has the literal v, the other -v."""
    edges = [edge for with_false, with_true in _slots(events)
             for edge in product(with_false, with_true)]
    return DepGraph.from_edges(len(events), edges, payloads=tuple(events))


def dependency_graph(events: Sequence[Event]) -> DepGraph:
    edges = [edge for with_false, with_true in _slots(events)
             for edge in combinations(with_false + with_true, 2)]
    return DepGraph.from_edges(len(events), edges, payloads=tuple(events))
