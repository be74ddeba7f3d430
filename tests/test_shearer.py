import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from satlll import shearer
from satlll.errors import CertificationError, DomainError
from satlll.events_graph import (DepGraph, events_from_formula,
                                 lopsidependency_graph)
from satlll.sat_model import DEFAULT_CLAUSE_GUARD, build_extremal_formula
from satlll.shearer import independence_polynomial, shearer_check

from conftest import random_graph, random_probabilities
from oracles import (component_factorization, enumerate_independent_sets,
                     expansion_identity, independence_polynomial_bruteforce,
                     induced_subgraph, q_with_base, shearer_check_by_enumeration)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def k2():
    return DepGraph.from_edges(2, [(0, 1)])


def path3():
    return DepGraph.from_edges(3, [(0, 1), (1, 2)])


def test_null_graph():
    graph = DepGraph.from_edges(0, [])
    assert independence_polynomial(graph, []) == 1


def test_single_vertex():
    graph = DepGraph.from_edges(1, [])
    assert independence_polynomial(graph, [HALF]) == HALF


def test_k2_values():
    assert independence_polynomial(k2(), [QUARTER, QUARTER]) == HALF
    assert independence_polynomial(k2(), [HALF, HALF]) == 0


def test_engine_matches_bruteforce(rng):
    for _ in range(60):
        graph = random_graph(rng, max_vertices=10)
        p = random_probabilities(rng, graph.n)
        assert (independence_polynomial(graph, p)
                == independence_polynomial_bruteforce(graph, (), p))


# Pairwise coprime, so every vertex set W has its own scale prod_{u in W} d_u.
COPRIME_DENOMINATORS = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def coprime_probabilities(rng, graph):
    """p_v = a_v / d_v in lowest terms, with distinct prime d_v."""
    return [Fraction(rng.randint(1, d // 2), d)
            for d in rng.sample(COPRIME_DENOMINATORS, graph.n)]


def degree_probabilities(rng, graph):
    """p_v = s * j / (deg v + 1), j in {3/4, 1, 5/4}, capped at 99/100: the
    shape of the digest's graph files, whose denominators share factors."""
    scale = rng.choice((Fraction(13, 20), Fraction(1), Fraction(3, 2), Fraction(3)))
    return [min(scale * rng.choice((Fraction(3, 4), Fraction(1), Fraction(5, 4)))
                / (len(neighbours) + 1), Fraction(99, 100))
            for neighbours in graph.adjacency]


def test_engine_on_coprime_denominators_matches_enumeration(rng):
    # A slip in the per-vertex scaling of Y_W shows as a wrong Z_V, a wrong
    # witness value or a flipped sign.
    for probabilities in (coprime_probabilities, degree_probabilities):
        kinds = set()
        for _ in range(200):
            graph = random_graph(rng, max_vertices=12)
            p = probabilities(rng, graph)
            z = independence_polynomial(graph, p)
            assert type(z) is Fraction and z == independence_polynomial_bruteforce(graph, (), p)
            verdict = shearer_check(graph, p)
            assert verdict == shearer_check_by_enumeration(graph, p)
            if not verdict.satisfied:
                assert type(verdict.witness_value) is Fraction
                assert verdict.witness_value == independence_polynomial_bruteforce(
                    graph, verdict.witness, p)
                kinds.add("empty witness" if verdict.witness == () else "non-empty witness")
            else:
                kinds.add("satisfied")
        assert kinds == {"satisfied", "empty witness", "non-empty witness"}, probabilities


def assert_engine_on_every_vertex_set(graph, p):
    """q(W) = Z_W * prod_{u in W} d_u for every mask W, Z_W by enumeration."""
    engine = shearer._QEngine(graph, p)
    for mask in range(1 << graph.n):
        vertices = [v for v in range(graph.n) if mask >> v & 1]
        z = independence_polynomial_bruteforce(
            induced_subgraph(graph, vertices), (), [p[v] for v in vertices])
        assert engine.q(mask) == z * math.prod(p[v].denominator for v in vertices), (
            graph.edges(), p, bin(mask))


def test_engine_on_every_vertex_set(rng):
    # Every state the engine can reach, not only those on a verdict's path.
    # Under one p = a/d the scale is d^|W|.
    for _ in range(30):
        graph = random_graph(rng, max_vertices=8)
        assert_engine_on_every_vertex_set(graph, coprime_probabilities(rng, graph))
        uniform = Fraction(rng.randint(1, 8), rng.choice((9, 10, 12, 101)))
        assert_engine_on_every_vertex_set(graph, [uniform] * graph.n)


def test_engine_values_stay_within_their_per_vertex_scale(rng):
    # |Z_W| <= prod_W (1 + p_u) <= 2^|W|, so Y_W has at most |W| bits more
    # than prod_W d_u.  One scale D^|W|, D the lcm over all of p, would give
    # every Y_W |W| times the bits of all 40 denominators here, and the
    # engine's time would grow with them.
    primes = [d for d in range(101, 1000) if all(d % f for f in range(2, 32))]
    n = 40
    graph = DepGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                    if rng.random() < 0.15])
    p = [Fraction(rng.randint(1, d // 10), d) for d in rng.sample(primes, n)]
    engine = shearer._QEngine(graph, p)
    for v in range(n):
        engine.q((1 << n) - (1 << v))
    assert len(engine.memo) > n
    for mask, value in engine.memo.items():
        assert value.bit_length() <= 1 + sum(p[u].denominator.bit_length() + 1
                                             for u in shearer._vertices(mask)), bin(mask)


@pytest.mark.parametrize("n,edges", [
    (5, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3)]),  # 0 is adjacent to all of V
    (5, [(1, 2), (2, 3), (3, 4), (1, 4)]),  # 0 is isolated in V
    (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),  # from 0, 2 at depth 2 and 5 at depth 5
    (7, [(0, 4), (4, 6), (6, 2), (1, 3), (3, 5)]),  # V has two components
])
def test_engine_on_every_vertex_set_by_hand(n, edges):
    graph = DepGraph.from_edges(n, edges)
    p = [Fraction(v + 1, d) for v, d in enumerate(COPRIME_DENOMINATORS[:n])]
    assert_engine_on_every_vertex_set(graph, p)


@pytest.mark.parametrize("entry", [independence_polynomial, shearer_check])
def test_both_entry_points_refuse_the_ends_of_the_interval(entry):
    # Each vector's first entry at 0 or 1 is named, whatever type it came as.
    for graph, p, message in (
            (k2(), [Fraction(0), HALF], "p[0]=0"),
            (k2(), [Fraction(1), HALF], "p[0]=1"),
            (k2(), [HALF, Fraction(1)], "p[1]=1"),
            (path3(), [Fraction(2, 7), Fraction(0), Fraction(1)], "p[1]=0"),
            *((DepGraph.from_edges(1, []), [end], f"p[0]={Fraction(end)}")
              for end in (0, 1.0, "0/5", Fraction(1)))):
        with pytest.raises(DomainError) as excinfo:
            entry(graph, p)
        assert str(excinfo.value) == f"{message} must lie in the open interval (0,1)"


def test_base_set_factorization(rng):
    # The oracle's Q(G,S,p) = prod_{i in S} p_i * Q(G - S - N(S), 0, p) for
    # independent S, against the direct signed sum over supersets of S
    for _ in range(40):
        graph = random_graph(rng, max_vertices=9)
        p = random_probabilities(rng, graph.n)
        for s in enumerate_independent_sets(graph):
            if len(s) > 2:
                continue
            assert q_with_base(graph, s, p) == independence_polynomial_bruteforce(graph, s, p)


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
            == independence_polynomial(connected, p3))


def test_expansion_identity_examples():
    p = [HALF, HALF]
    assert expansion_identity(k2(), (0, 1), p) == independence_polynomial(k2(), p)
    assert expansion_identity(k2(), (0,), p) == independence_polynomial(k2(), p)
    assert expansion_identity(k2(), (), p) == independence_polynomial(k2(), p)
    p3 = [HALF] * 3
    for x in ((), (1,), (0, 2), (0, 1, 2)):
        assert expansion_identity(path3(), x, p3) == independence_polynomial(path3(), p3)


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


# (value, message) of each vector [1/2, value, value] that is refused: the first of
# the two bad entries is named.
OUT_OF_RANGE = [(value, f"p[1]={value} must lie in the open interval (0,1)")
                for value in (Fraction(-1, 3), Fraction(4, 3),
                              Fraction(10 ** 4000 + 1, 10 ** 4000), Fraction(0), Fraction(1))]


@pytest.mark.parametrize("entry", [independence_polynomial, shearer_check])
@pytest.mark.parametrize("value,message", OUT_OF_RANGE)
def test_check_probabilities_names_the_first_entry_out_of_range(value, message, entry):
    graph = DepGraph.from_edges(3, [])
    with pytest.raises(DomainError) as excinfo:
        entry(graph, [HALF, value, value])
    assert str(excinfo.value) == message


def test_check_probabilities_keeps_fractions_and_converts_the_rest():
    huge = Fraction(10 ** 4000 - 1, 10 ** 4000)
    p = [HALF, huge, 0.25, "3/7", Decimal("0.1")]
    probs = shearer._check_probabilities(DepGraph.from_edges(len(p), []), p)
    assert probs == [HALF, huge, Fraction(1, 4), Fraction(3, 7), Fraction(1, 10)]
    assert all(type(x) is Fraction for x in probs)
    assert probs[0] is HALF and probs[1] is huge


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


def violated_component(rng):
    """A random graph and p with Q(G, empty, p) < 0."""
    while True:
        graph = random_graph(rng, max_vertices=7, edge_probability=0.5)
        p = [Fraction(rng.randint(15, 40), 60) for _ in range(graph.n)]
        if independence_polynomial(graph, p) < 0:
            return graph, p


def two_violated_components(rng):
    """The disjoint union of two components with Z < 0, so Z_V > 0 and the
    first violating set is non-empty."""
    (g1, p1), (g2, p2) = violated_component(rng), violated_component(rng)
    order = list(range(g1.n + g2.n))
    rng.shuffle(order)
    edges = [(order[u], order[v]) for u, v in g1.edges()]
    edges += [(order[g1.n + u], order[g1.n + v]) for u, v in g2.edges()]
    p = [None] * len(order)
    for i, x in enumerate(p1 + p2):
        p[order[i]] = x
    return DepGraph.from_edges(len(order), edges), p


def late_witness_graph(m):
    """m low vertices (p = 10^-6), each joined to all of an 8-vertex gadget:
    two disjoint 4-paths at p = 2/5, each with Z = -3/25.  Z_V > 0, every set
    holding a low vertex is cleared, and the first violating set is {m}."""
    gadget = range(m, m + 8)
    edges = [(v, g) for v in range(m) for g in gadget]
    edges += [(m + i, m + i + 1) for i in (0, 1, 2, 4, 5, 6)]
    return DepGraph.from_edges(m + 8, edges), [Fraction(1, 10 ** 6)] * m + [Fraction(2, 5)] * 8


def test_suffix_chain_matches_enumeration(rng):
    kinds = {"satisfied": 0, "empty witness": 0, "non-empty witness": 0}
    for i in range(700):
        if i >= 600:
            graph, p = two_violated_components(rng)
        else:
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
    assert kinds["non-empty witness"] >= 100, kinds


def test_late_witness_matches_enumeration():
    graph, p = late_witness_graph(12)
    verdict = shearer_check(graph, p)
    assert verdict == shearer_check_by_enumeration(graph, p)
    assert verdict.witness == (12,)


def test_late_witness_at_the_vertex_guard():
    graph, p = late_witness_graph(32)
    assert graph.n == 40
    verdict = shearer_check(graph, p)
    # Q = p_32 * Z(P_2) * Z(P_4) = 2/5 * 1/5 * (-3/25)
    assert (verdict.satisfied, verdict.witness, verdict.witness_value) == (
        False, (32,), Fraction(-6, 625))


def test_late_witness_cli_finishes_in_time(tmp_path):
    graph, p = late_witness_graph(32)
    path = tmp_path / "late.json"
    path.write_text(json.dumps({"n": graph.n, "edges": graph.edges(),
                                "p": [str(x) for x in p]}))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-m", "satlll.cli", "check-shearer",
                             "--graph", str(path)],
                            capture_output=True, text=True, env=env, timeout=60)
    assert (result.returncode, result.stdout) == (0, "VIOLATED witness={32} Q=-6/625\n")


def test_extremal_3_3_9_satisfied_by_suffix_and_prefix_chains():
    formula = build_extremal_formula(3, 3, 9, DEFAULT_CLAUSE_GUARD)
    graph = lopsidependency_graph(events_from_formula(formula))
    assert graph.n == 36
    p = [Fraction(1, 8)] * graph.n
    assert shearer_check(graph, p).satisfied
    # The same verdict by the other chain, {0} < {0, 1} < ... < V.
    for i in range(1, graph.n + 1):
        assert independence_polynomial(induced_subgraph(graph, range(i)), p[:i]) > 0


def extremal_graph(k, L, r):
    formula = build_extremal_formula(k, L, r, DEFAULT_CLAUSE_GUARD)
    return lopsidependency_graph(events_from_formula(formula))


@pytest.mark.parametrize("case,entries", [
    (lambda: (extremal_graph(3, 3, 9), [Fraction(1, 8)] * 36), 123),
    (lambda: (extremal_graph(3, 3, 20), [Fraction(1, 8)] * 80), 207),
    (lambda: late_witness_graph(32), 601),
], ids=["extremal_3_3_9", "extremal_3_3_20", "late_witness_32"])
def test_memo_entries_after_shearer_check(monkeypatch, case, entries):
    # The engine's work: which vertex sets a verdict evaluates, Y_empty
    # included.  A change that alters which states exist changes the count.
    engines = []
    init = shearer._QEngine.__init__

    def recording_init(engine, *args):
        init(engine, *args)
        engines.append(engine)

    monkeypatch.setattr(shearer._QEngine, "__init__", recording_init)
    graph, p = case()
    shearer_check(graph, p)
    assert [len(engine.memo) for engine in engines] == [entries]


def test_failed_chain_without_witness_is_never_satisfied(monkeypatch):
    # On the edge 0-2 plus the isolated vertex 1, Z_V = Z_{0,2} * Z_{1} never
    # evaluates the suffix {1, 2}.  Making it non-positive fails the chain
    # while Z_V > 0 and every child's region ({1}, {0, 2}, {1}) passes.
    true_q = shearer._QEngine.q
    monkeypatch.setattr(shearer._QEngine, "q", lambda engine, active: (
        -1 if active == 0b110 else true_q(engine, active)))
    with pytest.raises(CertificationError):
        shearer_check(DepGraph.from_edges(3, [(0, 2)]), [QUARTER] * 3)


@pytest.mark.parametrize("k,L,r,n,witness,value", [
    (3, 3, 20, 80, (), Fraction(-4538497952367155408100643093, 2 ** 113)),
    (3, 2, 40, 80, None, None),
    (4, 3, 20, 80, None, None),
    (3, 3, 40, 160, (0,),
     Fraction(-695380941838957187297669760814397215510066271304146689, 2 ** 221)),
    (2, 2, 400, 800, (0, 2), Fraction(-338292585459629777093444439, 2 ** 608)),
    (9, 22, 100, 4200, None, None),
])
def test_extremal_formulas_past_a_machine_word_and_the_guard(k, L, r, n, witness, value):
    # Vertex sets wider than a machine word, past the 40-vertex guard; the
    # expected verdicts, witnesses and values come from the frozenset engine.
    formula = build_extremal_formula(k, L, r, DEFAULT_CLAUSE_GUARD)
    graph = lopsidependency_graph(events_from_formula(formula))
    assert graph.n == n
    verdict = shearer_check(graph, [Fraction(1, 2 ** k)] * n)
    assert verdict == shearer.ShearerVerdict(witness is None, witness, value)
