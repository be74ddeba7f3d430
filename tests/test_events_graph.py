import random
import sys
from array import array
from bisect import bisect_left, bisect_right

import pytest

from satlll.errors import DomainError, SizeGuardError
from satlll.events_graph import (DepGraph, dependency_graph, literal_index,
                                 events_from_formula, lopsidependency_graph)
from satlll.moser_tardos import SelectionRule, run_mt
from satlll.sat_model import DEFAULT_CLAUSE_GUARD, Formula, build_extremal_formula

from conftest import random_formula
from oracles import (connected_components, induced_subgraph, max_degree,
                     verify_lopsidependency)


def test_events_of_phi1():
    formula = build_extremal_formula(3, 2, 1, DEFAULT_CLAUSE_GUARD)
    events = events_from_formula(formula)
    assert events == [(1, 2, 3), (-1, 4, 5)]


def test_atom_relation_is_irreflexive_on_clause_events():
    formula = build_extremal_formula(3, 2, 2, DEFAULT_CLAUSE_GUARD)
    for event in events_from_formula(formula):
        assert all(-z not in event for z in event)  # no event hits its own literals


def test_lopsidependency_graph_phi1():
    formula = build_extremal_formula(3, 2, 1, DEFAULT_CLAUSE_GUARD)
    graph = lopsidependency_graph(events_from_formula(formula))
    assert graph.edges() == [(0, 1)]


def test_same_polarity_sharing_no_lopsi_edge():
    events = [(1, 2), (1, 3)]
    assert lopsidependency_graph(events).edges() == []
    assert dependency_graph(events).edges() == [(0, 1)]


def test_monotone_formula_edgeless(rng):
    formula = Formula(width=2, variable_count=6, literals=array("q", range(1, 7)))
    assert lopsidependency_graph(events_from_formula(formula)).edges() == []


def test_lopsi_subgraph_of_dependency(rng):
    for _ in range(30):
        formula = random_formula(rng, k=3, m=8, n_clauses=6)
        events = events_from_formula(formula)
        lopsi = set(lopsidependency_graph(events).edges())
        dep = set(dependency_graph(events).edges())
        assert lopsi <= dep


def _pairwise_edges(events, adjacent):
    return {(i, j) for i in range(len(events)) for j in range(i + 1, len(events))
            if adjacent(events[i], events[j])}


def _disagree(a, b):
    """Some variable is forced True by one event and False by the other."""
    forced = {abs(z): z < 0 for z in a}
    return any(abs(z) in forced and forced[abs(z)] != (z < 0) for z in b)


def _share_a_variable(a, b):
    return bool({abs(z) for z in a} & {abs(z) for z in b})


def test_indexed_builders_match_pairwise_definitions(rng):
    formulas = [random_formula(rng, rng.randint(2, 4), rng.randint(4, 14), rng.randint(0, 20))
                for _ in range(200)]
    formulas += [build_extremal_formula(k, L, r, DEFAULT_CLAUSE_GUARD)
                 for k, L, r in ((2, 2, 8), (3, 2, 6), (3, 3, 5), (4, 3, 4), (2, 4, 3))]
    for formula in formulas:
        events = events_from_formula(formula)
        lopsided = lopsidependency_graph(events)
        dependent = dependency_graph(events)
        assert lopsided.n == dependent.n == len(events)
        assert set(lopsided.edges()) == _pairwise_edges(events, _disagree)
        assert set(dependent.edges()) == _pairwise_edges(events, _share_a_variable)
        assert lopsided.payloads == dependent.payloads == tuple(events)
        lits, holders = literal_index(events, formula.variable_count)
        for v in range(1, formula.variable_count + 1):
            for literal in (v, -v):
                assert holders[bisect_left(lits, literal):bisect_right(lits, literal)] == [
                    i for i, e in enumerate(events) if literal in e]


def random_events(rng, m):
    """Events of widths 1..5 on variables in [1, m], some repeated, some variables unused."""
    events = []
    for _ in range(rng.randint(0, 14) if m else 0):
        if events and rng.random() < 0.2:
            events.append(rng.choice(events))
            continue
        variables = rng.sample(range(1, m + 1), rng.randint(1, min(5, m)))
        events.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return events


def test_literal_index_matches_brute_force():
    cases = [([], 0), ([], 3), ([(v,) for v in range(1, 5)] + [(-v,) for v in range(1, 5)], 4)]
    for case in range(400):
        rng = random.Random(case)
        m = rng.choice([0, rng.randint(1, 12), rng.randint(20, 40)])  # often unused variables
        cases.append((random_events(rng, m), m))
    for events, m in cases:
        lits, holders = literal_index(events, m)
        assert lits == sorted(z for e in events for z in e)
        assert len(holders) == len(lits)
        for v in range(1, m + 1):
            for z in (v, -v):
                assert holders[bisect_left(lits, z):bisect_right(lits, z)] == [
                    i for i, e in enumerate(events) if z in e], (events, z)


def _error_text(call):
    with pytest.raises(DomainError) as caught:
        call()
    return str(caught.value)


@pytest.mark.parametrize("events,m,expected", [
    ([(1, 0), (-2,)], 2, "event mentions variable 0, outside [1, 2]"),
    ([(0,), (1,), (-2,)], 2, "event mentions variable 0, outside [1, 2]"),
    ([(2, -1), (-2, 0)], 2, "event mentions variable 0, outside [1, 2]"),
    ([(1, -3), (4,)], 2, "event mentions variable 3, outside [1, 2]"),
    ([(1, 4), (-3,)], 2, "event mentions variable 4, outside [1, 2]"),
    ([(-1,), (0, 5)], 2, "event mentions variable 0, outside [1, 2]"),
    ([(1,)], 0, "event mentions variable 1, outside [1, 0]"),
])
def test_every_entry_refuses_a_variable_outside_one_to_m_alike(events, m, expected):
    graph = DepGraph.from_edges(len(events), [])
    calls = [lambda: run_mt(events, m, SelectionRule.FIRST_INDEX, 0, 10),
             lambda: literal_index(events, m),
             lambda: verify_lopsidependency(events, graph, m)]
    if m == max(abs(z) for e in events for z in e):  # the builders take m from the events
        calls += [lambda: lopsidependency_graph(events), lambda: dependency_graph(events)]
    assert [_error_text(call) for call in calls] == [expected] * len(calls)


def test_graph_builders_reject_variables_below_one():
    for events in ([(0,), (1, 0)], [(0, 2)]):
        for build in (lopsidependency_graph, dependency_graph):
            with pytest.raises(DomainError):
                build(events)


def test_graph_utils():
    graph = DepGraph.from_edges(5, [(0, 1), (2, 3)])
    assert induced_subgraph(graph, []).n == 0
    sub = induced_subgraph(graph, [0, 1, 4])
    assert sub.n == 3 and sub.edges() == [(0, 1)]
    components = connected_components(graph)
    assert sorted(map(sorted, components)) == [[0, 1], [2, 3], [4]]
    assert max_degree(graph) == 1
    assert graph.adjacency[0] == frozenset({1})


def test_graph_rejects_self_loop():
    with pytest.raises(DomainError):
        DepGraph.from_edges(2, [(0, 0)])


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's tuple free lists")
def test_from_edges_does_not_fill_the_tuple_free_lists():
    # tuple() of a generator over-allocates and shrinks to n, and CPython's
    # free list for length n < 20 then keeps every such tuple released, up
    # to 2000 per length: 300 rounds over n = 10..19 left about 2700 blocks.
    paths = {n: [(u, u + 1) for u in range(n - 1)] for n in range(10, 20)}
    for n, edges in paths.items():
        DepGraph.from_edges(n, edges)
    before = sys.getallocatedblocks()
    for _ in range(300):
        for n, edges in paths.items():
            DepGraph.from_edges(n, edges)
    assert sys.getallocatedblocks() - before < 100


def test_lopsi_max_degree_bound_on_construction():
    for k, L in ((2, 2), (3, 2), (2, 3)):
        formula = build_extremal_formula(k, L, 6, DEFAULT_CLAUSE_GUARD)
        graph = lopsidependency_graph(events_from_formula(formula))
        # positive literals meet <= L-1 opposite occurrences, the single
        # negative literal meets <= L, so degree <= (k-1)(L-1) + L
        assert max_degree(graph) <= (k - 1) * (L - 1) + L


def test_verify_lopsidependency_on_canonical_graph():
    formula = build_extremal_formula(3, 2, 1, DEFAULT_CLAUSE_GUARD)
    events = events_from_formula(formula)
    graph = lopsidependency_graph(events)
    assert verify_lopsidependency(events, graph, formula.variable_count)


def test_verify_lopsidependency_complete_graph_vacuous():
    events = [(-1,), (1,), (-2,)]
    complete = DepGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert verify_lopsidependency(events, complete, 2)


def test_verify_lopsidependency_detects_bad_graph():
    # avoiding B' = (1, 2), false iff x1 = x2 = F, raises P(B) for B = (-1),
    # false iff x1 = T: 2/3 > 1/2
    events = [(-1,), (1, 2)]
    edgeless = DepGraph.from_edges(2, [])
    report = verify_lopsidependency(events, edgeless, 2)
    assert not report
    assert report.witness_event == 0
    assert report.witness_set == (1,)


def test_verify_lopsidependency_guard():
    events = [(-1,)]
    graph = DepGraph.from_edges(1, [])
    with pytest.raises(SizeGuardError):
        verify_lopsidependency(events, graph, 20)


def test_verify_lopsidependency_refuses_a_variable_above_m():
    # x2 would be read as False: the edgeless graph passes at m = 1, fails at m = 2.
    events = [(-1,), (1, -2)]
    edgeless = DepGraph.from_edges(2, [])
    assert not verify_lopsidependency(events, edgeless, 2)
    with pytest.raises(DomainError, match=r"variable 2, outside \[1, 1\]"):
        verify_lopsidependency(events, edgeless, 1)


def test_verify_lopsidependency_refuses_variable_zero():
    with pytest.raises(DomainError, match=r"variable 0, outside \[1, 2\]"):
        verify_lopsidependency([(1, 0)], DepGraph.from_edges(1, []), 2)
