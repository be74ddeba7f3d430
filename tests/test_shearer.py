from fractions import Fraction

import pytest

from satlll import shearer
from satlll.errors import CertificationError, DomainError, SizeGuardError
from satlll.events_graph import (DepGraph, events_from_formula,
                                 lopsidependency_graph)
from satlll.sat_model import build_extremal_formula
from satlll.shearer import (ShearerVerdict, enumerate_independent_sets,
                            independence_polynomial, shearer_check)

from conftest import random_graph, random_probabilities
from oracles import (component_factorization, expansion_identity,
                     independence_polynomial_bruteforce)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def k2():
    return DepGraph.from_edges(2, [(0, 1)])


def path3():
    return DepGraph.from_edges(3, [(0, 1), (1, 2)])


def test_null_graph():
    graph = DepGraph.from_edges(0, [])
    assert independence_polynomial(graph, (), []) == 1


def test_single_vertex():
    graph = DepGraph.from_edges(1, [])
    assert independence_polynomial(graph, (), [HALF]) == HALF
    assert independence_polynomial(graph, (0,), [HALF]) == HALF


def test_k2_values():
    assert independence_polynomial(k2(), (), [QUARTER, QUARTER]) == HALF
    assert independence_polynomial(k2(), (), [HALF, HALF]) == 0


def test_non_independent_base_is_zero():
    assert independence_polynomial(k2(), (0, 1), [QUARTER, QUARTER]) == 0


def test_engine_matches_bruteforce(rng):
    for _ in range(60):
        graph = random_graph(rng, max_vertices=10)
        p = random_probabilities(rng, graph.n)
        assert (independence_polynomial(graph, (), p)
                == independence_polynomial_bruteforce(graph, (), p))


def test_base_set_factorization(rng):
    # Q(G,S,p) = prod_{i in S} p_i * Q(G - S - N(S), 0, p) for independent S
    for _ in range(40):
        graph = random_graph(rng, max_vertices=9)
        p = random_probabilities(rng, graph.n)
        for s in enumerate_independent_sets(graph):
            if len(s) > 2:
                continue
            assert (independence_polynomial(graph, s, p)
                    == independence_polynomial_bruteforce(graph, s, p))


def test_component_factorization_examples():
    two_vertices = DepGraph.from_edges(2, [])
    assert component_factorization(two_vertices, [HALF, HALF]) == QUARTER
    union = DepGraph.from_edges(3, [(0, 1)])
    p = [QUARTER, QUARTER, Fraction(1, 3)]
    assert component_factorization(union, p) == Fraction(1, 3)
    assert independence_polynomial_bruteforce(union, (), p) == Fraction(1, 3)
    connected = path3()
    p3 = [HALF] * 3
    assert (component_factorization(connected, p3)
            == independence_polynomial(connected, (), p3))


def test_expansion_identity_examples():
    p = [HALF, HALF]
    assert expansion_identity(k2(), (0, 1), p) == independence_polynomial(k2(), (), p)
    assert expansion_identity(k2(), (0,), p) == independence_polynomial(k2(), (), p)
    assert expansion_identity(k2(), (), p) == independence_polynomial(k2(), (), p)
    p3 = [HALF] * 3
    for x in ((), (1,), (0, 2), (0, 1, 2)):
        assert expansion_identity(path3(), x, p3) == independence_polynomial(path3(), (), p3)


def test_identities_on_random_graphs(rng):
    for _ in range(40):
        graph = random_graph(rng, max_vertices=9)
        p = random_probabilities(rng, graph.n)
        reference = independence_polynomial_bruteforce(graph, (), p)
        assert component_factorization(graph, p) == reference
        x = [v for v in range(graph.n) if rng.random() < 0.5]
        assert expansion_identity(graph, x, p) == reference


def test_shearer_single_vertex_satisfied():
    graph = DepGraph.from_edges(1, [])
    assert shearer_check(graph, [HALF]).satisfied


def test_shearer_k2_half_violated_with_empty_witness():
    verdict = shearer_check(k2(), [HALF, HALF])
    assert not verdict.satisfied
    assert verdict.witness == ()
    assert verdict.witness_value == 0


def test_shearer_edgeless_satisfied(rng):
    graph = DepGraph.from_edges(4, [])
    p = random_probabilities(rng, 4)
    assert shearer_check(graph, p).satisfied


def test_shearer_rejects_boundary_probabilities():
    with pytest.raises(DomainError):
        shearer_check(k2(), [Fraction(0), HALF])
    with pytest.raises(DomainError):
        shearer_check(k2(), [Fraction(1), HALF])


def test_guards():
    big = DepGraph.from_edges(5, [])
    with pytest.raises(SizeGuardError):
        independence_polynomial(big, (), [HALF] * 5, vertex_guard=4)
    with pytest.raises(SizeGuardError):
        shearer_check(big, [HALF] * 5, vertex_guard=4)


def test_independent_set_enumeration_is_lexicographic():
    sets = list(enumerate_independent_sets(path3()))
    assert sets == [(), (0,), (0, 2), (1,), (2,)]


def test_scaling_up_never_flips_violated_to_satisfied(rng):
    for _ in range(25):
        graph = random_graph(rng, max_vertices=7)
        p = random_probabilities(rng, graph.n)
        before = shearer_check(graph, p).satisfied
        scaled = [min(x * Fraction(9, 8), Fraction(99, 100)) for x in p]
        after = shearer_check(graph, scaled).satisfied
        if not before:
            assert not after


def shearer_check_by_enumeration(graph, p):
    """Oracle: Q(G, S, p) for every independent S, stopping at the first S with Q <= 0."""
    for s in enumerate_independent_sets(graph):
        value = independence_polynomial(graph, s, p)
        if value <= 0:
            return ShearerVerdict(False, witness=s, witness_value=value)
    return ShearerVerdict(True)


def test_suffix_chain_matches_enumeration(rng):
    kinds = {"satisfied": 0, "empty witness": 0, "non-empty witness": 0}
    for i in range(600):
        graph = random_graph(rng, max_vertices=11)
        if i % 2:
            p = [Fraction(rng.randint(3, 20), 60)] * graph.n
        else:
            p = random_probabilities(rng, graph.n)
        verdict = shearer_check(graph, p)
        assert verdict == shearer_check_by_enumeration(graph, p)
        if verdict.satisfied:
            kinds["satisfied"] += 1
        else:
            kinds["empty witness" if verdict.witness == () else "non-empty witness"] += 1
    assert all(kinds.values()), kinds


def test_extremal_3_3_9_satisfied_by_suffix_and_prefix_chains():
    formula, _ = build_extremal_formula(3, 3, 9)
    graph = lopsidependency_graph(events_from_formula(formula))
    assert graph.n == 36
    p = [Fraction(1, 8)] * graph.n
    assert shearer_check(graph, p).satisfied
    # The same verdict by the other chain, {0} < {0, 1} < ... < V.
    for i in range(1, graph.n + 1):
        assert independence_polynomial(graph.induced_subgraph(range(i)), (), p[:i]) > 0


def test_failed_chain_without_witness_is_never_satisfied(monkeypatch):
    monkeypatch.setattr(shearer, "enumerate_independent_sets", lambda graph: iter(()))
    with pytest.raises(CertificationError):
        shearer_check(k2(), [HALF, HALF])
