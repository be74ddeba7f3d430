"""Bad events, the disagreement relation, canonical (lopsi)dependency graphs.

A bad event is the unique falsifying assignment of a clause: a set of
(variable, value) atoms.  Two events disagree when they force different
values on a shared variable; the canonical lopsidependency graph has an
edge exactly between disagreeing events, the canonical dependency graph
between events sharing any variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import DomainError, SizeGuardError
from .sat_model import Clause

Atom = tuple[int, bool]


@dataclass(frozen=True)
class BadEvent:
    atoms: frozenset[Atom]

    def __post_init__(self):
        if not self.atoms:
            raise DomainError("bad event must have at least one atom")
        variables = [v for v, _ in self.atoms]
        if len(set(variables)) != len(variables):
            raise DomainError(f"bad event assigns a variable twice: {sorted(self.atoms)}")

    @property
    def variables(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.atoms)

    def holds(self, assignment) -> bool:
        return all(assignment[v] == value for v, value in self.atoms)


@dataclass(frozen=True)
class DepGraph:
    """Simple undirected graph; vertices 0..n-1 carry optional payloads."""

    adjacency: tuple[frozenset[int], ...]
    payloads: tuple = ()

    def __post_init__(self):
        n = len(self.adjacency)
        for v, nbrs in enumerate(self.adjacency):
            if v in nbrs:
                raise DomainError(f"self-loop at vertex {v}")
            for u in nbrs:
                if not 0 <= u < n:
                    raise DomainError(f"neighbor {u} of {v} out of range")
                if v not in self.adjacency[u]:
                    raise DomainError(f"adjacency not symmetric at ({v},{u})")

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
        return cls(tuple(frozenset(s) for s in nbrs), tuple(payloads))

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def neighborhood(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adjacency), default=0)

    def induced_subgraph(self, vertices: Iterable[int]) -> "DepGraph":
        """Subgraph on the given vertices, relabeled 0..len-1 in sorted order."""
        kept = sorted(set(vertices))
        index = {v: i for i, v in enumerate(kept)}
        adjacency = tuple(
            frozenset(index[u] for u in self.adjacency[v] if u in index) for v in kept)
        payloads = tuple(self.payloads[v] for v in kept) if self.payloads else ()
        return DepGraph(adjacency, payloads)

    def connected_components(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        components = []
        for start in range(self.n):
            if start in seen:
                continue
            stack = [start]
            comp = set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(self.adjacency[v] - comp)
            seen |= comp
            components.append(frozenset(comp))
        return components


def event_from_clause(clause: Clause) -> BadEvent:
    """The atomic event that the clause is false: every literal negated."""
    return BadEvent(frozenset((l.variable, not l.polarity) for l in clause.literals))


def events_from_formula(formula) -> list[BadEvent]:
    return [event_from_clause(c) for c in formula.clauses]


def atom_hits(atom: Atom, event: BadEvent) -> bool:
    """(i,j) ~ B: B forces variable i to some value other than j."""
    variable, value = atom
    return any(v == variable and w != value for v, w in event.atoms)


def disagreement_witness(b1: BadEvent, b2: BadEvent) -> frozenset[int]:
    """Variables on which the two events force different values."""
    values = {v: w for v, w in b1.atoms}
    return frozenset(v for v, w in b2.atoms if v in values and values[v] != w)


def disagree(b1: BadEvent, b2: BadEvent) -> bool:
    return bool(disagreement_witness(b1, b2))


def lopsidependency_graph(events: Sequence[BadEvent]) -> DepGraph:
    edges = [(i, j) for i, j in combinations(range(len(events)), 2)
             if disagree(events[i], events[j])]
    return DepGraph.from_edges(len(events), edges, payloads=tuple(events))


def dependency_graph(events: Sequence[BadEvent]) -> DepGraph:
    edges = [(i, j) for i, j in combinations(range(len(events)), 2)
             if events[i].variables & events[j].variables]
    return DepGraph.from_edges(len(events), edges, payloads=tuple(events))


@dataclass(frozen=True)
class LopsidependencyReport:
    ok: bool
    witness_event: Optional[int] = None  # index of the event B whose condition failed
    witness_set: Optional[tuple[int, ...]] = None  # the conditioning set S

    def __bool__(self) -> bool:
        return self.ok


def verify_lopsidependency(events: Sequence[BadEvent], graph: DepGraph, m: int,
                           variable_guard: int = 16,
                           subset_cap: int | None = None) -> LopsidependencyReport:
    """Exhaustively check P(B | avoid S) <= P(B) for the uniform space on m variables.

    Exact integer counting over all 2^m assignments.  subset_cap limits |S|;
    by default all subsets are tried when there are <= 12 events, else |S| <= 3.
    """
    if m > variable_guard:
        raise SizeGuardError(f"m={m} exceeds enumeration guard {variable_guard}")
    if len(events) != graph.n:
        raise DomainError("graph vertex count does not match event count")
    if subset_cap is None:
        subset_cap = len(events) if len(events) <= 12 else 3

    total = 1 << m
    # Bitmask over assignments: bit a is set iff the event holds under assignment a,
    # where bit i-1 of a is the value of variable i.
    def truth_mask(event: BadEvent) -> int:
        mask = 0
        for a in range(total):
            if all(((a >> (v - 1)) & 1) == int(value) for v, value in event.atoms):
                mask |= 1 << a
        return mask

    masks = [truth_mask(e) for e in events]
    all_assignments = (1 << total) - 1

    for b in range(len(events)):
        count_b = masks[b].bit_count()
        others = [i for i in range(len(events))
                  if i != b and i not in graph.neighborhood(b)]
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
