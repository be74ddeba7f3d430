"""Bad events as clauses, and the canonical (lopsi)dependency graphs.

A bad event is the clause it falsifies, kept as the tuple of the clause's
signed DIMACS literals: clause C is false exactly when x_|l| = (l < 0) for
each literal l of C, so l stands for the atom (|l|, l < 0).  Event A hits
the literal z of event B when -z is in A, that is when A forces x_|z| the
other way; two events disagree when one hits the other.  The canonical
lopsidependency graph has an edge exactly between disagreeing events, the
canonical dependency graph between events sharing any variable.  Both are
built from the atom index, so the cost is O(sum over variables v of
R(v)^2), not O(n^2) pair tests.  Each event names a variable at most once,
as every clause of a Formula does.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, product, repeat
from typing import Iterable, Optional, Sequence

from .errors import DomainError, SizeGuardError

Event = tuple[int, ...]
VARIABLE_GUARD = 16  # verify_lopsidependency counts all 2^m assignments


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


def atom_index(events: Sequence[Event], m: int) -> tuple[array, array]:
    """The events holding each atom, in CSR layout over the slots 2v + value.

    Literal l is the atom (|l|, l < 0), in slot 2|l| + (l < 0).  Returns
    (start, entries): the events with atom (v, value) are
    entries[start[2v + value]:start[2v + value + 1]] in increasing order,
    so the events on variable v are entries[start[2v]:start[2v + 2]].
    Variables must lie in [1, m]; DomainError otherwise.  Each literal's
    slot is computed once, then slots are counted and the events placed in
    one pass each.  Two flat arrays cost one machine word per slot and per
    atom, which matters at tens of thousands of variables.
    """
    flat = list(chain.from_iterable(events))
    if flat and (0 in flat or max(flat) > m or min(flat) < -m):
        z = next(z for z in flat if not 0 < abs(z) <= m)
        raise DomainError(f"event mentions variable {abs(z)}, outside [1, {m}]")
    slots = [2 * abs(z) + (z < 0) for z in flat]
    owner = chain.from_iterable(map(repeat, range(len(events)), map(len, events)))  # per literal
    size = [0] * (2 * m + 3)
    for slot in slots:
        size[slot + 1] += 1
    start = array("q", accumulate(size))  # the start of each slot
    fill = start.tolist()  # the next free entry of each slot
    entries = array("q", bytes(8 * len(flat)))
    for slot, i in zip(slots, owner):
        entries[fill[slot]] = i
        fill[slot] += 1
    return start, entries


def _slots(events: Sequence[Event]):
    """(events with literal v, events with literal -v) for every variable v."""
    m = max((abs(z) for event in events for z in event), default=0)
    start, entries = atom_index(events, m)
    for slot in range(2, 2 * m + 2, 2):
        yield (entries[start[slot]:start[slot + 1]],
               entries[start[slot + 1]:start[slot + 2]])


def lopsidependency_graph(events: Sequence[Event]) -> DepGraph:
    """Two events disagree iff, for some v, one has the literal v, the other -v."""
    edges = [edge for with_false, with_true in _slots(events)
             for edge in product(with_false, with_true)]
    return DepGraph.from_edges(len(events), edges, payloads=tuple(events))


def dependency_graph(events: Sequence[Event]) -> DepGraph:
    edges = [edge for with_false, with_true in _slots(events)
             for edge in combinations(with_false + with_true, 2)]
    return DepGraph.from_edges(len(events), edges, payloads=tuple(events))


@dataclass(frozen=True)
class LopsidependencyReport:
    ok: bool
    witness_event: Optional[int] = None  # index of the event B whose condition failed
    witness_set: Optional[tuple[int, ...]] = None  # the conditioning set S

    def __bool__(self) -> bool:
        return self.ok


def verify_lopsidependency(events: Sequence[Event], graph: DepGraph,
                           m: int) -> LopsidependencyReport:
    """Exhaustively check P(B | avoid S) <= P(B) for the uniform space on m variables.

    Exact integer counting over all 2^m assignments.  Every conditioning set
    S is tried when there are <= 12 events, else every S with |S| <= 3.
    Every variable must lie in [1, m]; DomainError otherwise.
    """
    if m > VARIABLE_GUARD:
        raise SizeGuardError(f"m={m} exceeds enumeration guard {VARIABLE_GUARD}")
    if len(events) != graph.n:
        raise DomainError("graph vertex count does not match event count")
    atom_index(events, m)  # checks that every variable lies in [1, m]
    subset_cap = len(events) if len(events) <= 12 else 3

    total = 1 << m
    # Bitmask over assignments: bit a is set iff the event holds under assignment a,
    # where bit i-1 of a is the value of variable i.
    def truth_mask(event: Event) -> int:
        mask = 0
        for a in range(total):
            if all(((a >> (abs(z) - 1)) & 1) == (z < 0) for z in event):  # each literal false
                mask |= 1 << a
        return mask

    masks = [truth_mask(e) for e in events]
    all_assignments = (1 << total) - 1

    for b in range(len(events)):
        count_b = masks[b].bit_count()
        others = [i for i in range(len(events))
                  if i != b and i not in graph.adjacency[b]]
        for size in range(1, min(subset_cap, len(others)) + 1):
            for subset in combinations(others, size):
                avoid = all_assignments
                for i in subset:
                    avoid &= ~masks[i]
                avoid &= all_assignments
                count_avoid = avoid.bit_count()
                if count_avoid == 0:
                    continue
                count_both = (avoid & masks[b]).bit_count()
                # P(B | avoid) <= P(B)  <=>  count_both * total <= count_b * count_avoid
                if count_both * total > count_b * count_avoid:
                    return LopsidependencyReport(False, b, subset)
    return LopsidependencyReport(True)
