"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single PASS line on success so the suite output doubles
as an acceptance report (run with ``pytest -v`` or ``pytest -s``).
"""

import random
from fractions import Fraction

import mpmath
import pytest

from satlll.bounds import (f_lll, f_mt, gap_inequality, harris_check,
                           harris_ksat_alpha)
from satlll.cli import DEFAULT_PRECISION, main
from satlll.events_graph import DepGraph, events_from_formula, lopsidependency_graph
from satlll.hj_family import (build_H, build_Hprime, fixed_point_iteration, recurrence_sr,
                              shearer_upper_bound)
from satlll.moser_tardos import SelectionRule, run_mt
from satlll.sat_model import DEFAULT_CLAUSE_GUARD, build_extremal_formula, dimacs_import
from satlll.shearer import independence_polynomial, shearer_check

from conftest import (MAX_ITER, MAX_STEPS, random_formula, random_graph,
                      random_low_occurrence_formula, random_probabilities)
from oracles import (clauses_of, component_factorization, expansion_identity, h_vertex_count,
                     independence_polynomial_bruteforce, isomorphic_by_placement,
                     validate_occurrences, verify_lopsidependency)

EXPECTED_TABLE = {
    9: (20, 21, 22),
    10: (37, 38, 39),
    11: (68, 69, 71),
    12: (125, 126, 131),
    13: (231, 233, 241),
    14: (430, 432, 446),
    15: (803, 806, 831),
    16: (1506, 1510, 1555),
    17: (2836, 2842, 2922),
    18: (5357, 5366, 5511),
    19: (10151, 10165, 10426),
    20: (19287, 19311, 19784),
}


def report(number, name):
    print(f"ACCEPTANCE {number:02d} ({name}): PASS")


def test_criterion_01_table_reproduction():
    for k, (lll, sh, mt) in EXPECTED_TABLE.items():
        assert f_lll(k) == lll, k
        assert shearer_upper_bound(k, DEFAULT_PRECISION) == sh, k
        assert f_mt(k) == mt, k
    report(1, "bound table k=9..20 reproduced exactly")


def test_criterion_02_recurrence_equals_bruteforce():
    for k, L, jmax in ((2, 2, 4), (2, 3, 2), (3, 2, 2)):
        p = Fraction(1, 2 ** k)
        s, r = recurrence_sr(jmax, k, L)
        for j in range(jmax + 1):
            h = build_H(j, k, L)
            hp = build_Hprime(j, k, L)
            s_bf = independence_polynomial(h.graph, [p] * h.graph.n)
            r_bf = independence_polynomial(hp.graph, [p] * hp.graph.n)
            assert s[j] == s_bf, (k, L, j)
            assert r[j] == r_bf, (k, L, j)
    report(2, "s_j/r_j recurrence matches exact polynomial evaluation")


def test_criterion_03_polynomial_identities():
    rng = random.Random(11)
    for _ in range(200):
        graph = random_graph(rng, max_vertices=12)
        p = random_probabilities(rng, graph.n)
        reference = independence_polynomial_bruteforce(graph, (), p)
        assert independence_polynomial(graph, p) == reference
        assert component_factorization(graph, p) == reference
        x = [v for v in range(graph.n) if rng.random() < 0.5]
        assert expansion_identity(graph, x, p) == reference
    report(3, "factorization and expansion identities on 200 random graphs")


def test_criterion_04_shearer_small_case_verdicts():
    from satlll.events_graph import DepGraph
    single = DepGraph.from_edges(1, [])
    for p in (Fraction(1, 100), Fraction(1, 2), Fraction(99, 100)):
        assert shearer_check(single, [p]).satisfied

    k2 = DepGraph.from_edges(2, [(0, 1)])
    verdict = shearer_check(k2, [Fraction(1, 2)] * 2)
    assert not verdict.satisfied and verdict.witness == ()

    # explicit H_j route at (k, L) = (2, 2): s_j first drops <= 0 at j = 3
    s, _ = recurrence_sr(4, 2, 2)
    first_bad = min(j for j in range(5) if s[j] <= 0)
    assert first_bad == 3
    assert s[3] == Fraction(-1, 1024)
    p = [Fraction(1, 4)]
    for j in range(3):
        h = build_H(j, 2, 2)
        assert shearer_check(h.graph, p * h.graph.n).satisfied, j
    h3 = build_H(3, 2, 2)
    bad = shearer_check(h3.graph, p * h3.graph.n)
    assert not bad.satisfied

    # consistency with the fixed-point route for the same parameters
    assert fixed_point_iteration(2, 2, MAX_ITER, DEFAULT_PRECISION).verdict.kind == "violated"
    report(4, "small-case verdicts and explicit/fixed-point consistency")


def test_criterion_05_fixed_point_boundary():
    # a = g(a) is phi_{L-1}(2 - a^{-(L-1)}) = 0: the iteration and the
    # threshold-curve certificate must put the boundary at the same L
    for k in EXPECTED_TABLE:
        sh = shearer_upper_bound(k, DEFAULT_PRECISION)
        converged = fixed_point_iteration(k, sh, MAX_ITER, DEFAULT_PRECISION)
        assert converged.verdict.kind == "converged", k
        violated = fixed_point_iteration(k, sh + 1, MAX_ITER, DEFAULT_PRECISION)
        assert violated.verdict.kind == "violated", k
        assert violated.verdict.step is not None
    report(5, "fixed point converged at F_Shearer, violated at F_Shearer+1, k=9..20")


def test_criterion_06_construction_invariants():
    for k in range(2, 6):
        for L in range(2, 5):
            for r in (0, 1, 2, 5, 20):
                formula = build_extremal_formula(k, L, r, DEFAULT_CLAUSE_GUARD)
                assert validate_occurrences(formula, L), (k, L, r)
    report(6, "occurrence bounds R0<=L, R1<=L-1 across the parameter sweep")


def test_criterion_07_embedding_verified():
    for j in (0, 1, 2, 3):
        for k in (2, 3):
            for L in (2, 3):
                n = h_vertex_count(j, k, L)
                for build, prime in ((build_H, False), (build_Hprime, True)):
                    graph = build(j, k, L, vertex_guard=n).graph
                    assert isomorphic_by_placement(graph, j, k, L, prime), (j, k, L, prime)
    report(7, "H_j and H'_j are the hand-built graphs placed in the formula, j<=3, k,L in {2,3}")


def test_criterion_08_lopsidependency_property():
    corpus = []
    for k, L, r in ((3, 2, 1), (3, 2, 2), (2, 2, 3), (2, 2, 5), (2, 3, 2)):
        formula = build_extremal_formula(k, L, r, DEFAULT_CLAUSE_GUARD)
        corpus.append(formula)
    rng = random.Random(23)
    for _ in range(10):
        corpus.append(random_formula(rng, k=3, m=rng.randint(6, 12),
                                     n_clauses=rng.randint(2, 8)))
    for formula in corpus:
        assert formula.variable_count <= 12
        events = events_from_formula(formula)
        graph = lopsidependency_graph(events)
        assert verify_lopsidependency(events, graph, formula.variable_count)
    report(8, "canonical lopsidependency graphs verified by exact counting")


def test_criterion_09_harris_agreement_and_boundary():
    # The criterion 2^k alpha >= alpha + (1 + L alpha)^k, at 1024 bits, holds at
    # F_MT and fails at F_MT + 1.
    for k in EXPECTED_TABLE:
        mt = f_mt(k)
        for L, holds in ((mt, True), (mt + 1, False)):
            with mpmath.mp.workprec(1024):
                alpha = (mpmath.root(mpmath.mpf(2 ** k - 1) / (k * L), k - 1) - 1) / L
                assert (2 ** k * alpha >= alpha + (1 + L * alpha) ** k) == holds, (k, L)

    # whenever the closed-form alpha criterion holds, the generic enumeration
    # with mu == alpha must accept the generated instances as well
    checked = 0
    for k, L, r in ((3, 2, 1), (3, 2, 2), (4, 3, 1), (5, 4, 1),
                    (5, 2, 3), (6, 3, 1), (6, 4, 1), (6, 2, 4)):
        if not L <= f_mt(k):
            continue
        alpha = harris_ksat_alpha(k, L, DEFAULT_PRECISION)
        checked += 1
        mu = Fraction(str(alpha)).limit_denominator(10 ** 15)
        formula = build_extremal_formula(k, L, r, DEFAULT_CLAUSE_GUARD)
        events = events_from_formula(formula)
        p = [Fraction(1, 2 ** k)] * len(events)
        assert harris_check(events, [mu] * len(events), p).satisfied, (k, L, r)
    assert checked == 4  # the first four are closed-form violated
    report(9, "generic checker agrees with closed-form alpha; boundary at F_MT, k=9..20")


def test_criterion_10_moser_tardos_termination():
    rng = random.Random(2024)
    instances = []
    for k in (3, 4):
        for _ in range(5):
            instances.append(random_low_occurrence_formula(
                rng, k=k, m=10 * k, n_clauses=6))
    seed = 0
    successes = 0
    for trial in range(100):
        formula = instances[trial % len(instances)]
        events = events_from_formula(formula)
        values, stats = run_mt(events, formula.variable_count, SelectionRule.FIRST_INDEX,
                               seed + trial, MAX_STEPS)
        assert stats.terminated
        assert all(any(values[abs(v) - 1] == (v > 0) for v in clause)
                   for clause in clauses_of(formula))
        successes += 1
    assert successes == 100

    total = 0
    n_seeds = 10_000
    single = [(-1,)]  # the clause ~x_1, false with probability 1/2
    for s in range(n_seeds):
        _, stats = run_mt(single, 1, SelectionRule.FIRST_INDEX, s, MAX_STEPS)
        total += stats.steps
    assert abs(total / n_seeds - 1) < 0.05
    report(10, "termination on 100/100 seeds; geometric mean within 5%")


def test_criterion_11_ordering_separation():
    for k in range(9, 21):
        lll, sh, mt = EXPECTED_TABLE[k]
        assert f_lll(k) <= shearer_upper_bound(k, DEFAULT_PRECISION) < f_mt(k), k
        assert gap_inequality(k, f_mt(k) - f_lll(k))[0], k
    report(11, "F_LLL <= F_Shearer < F_MT and gap inequality for k=9..20")


SEPARATION_CNF = "p cnf 4 5\n1 4 0\n1 -4 0\n-2 4 0\n-2 -4 0\n3 4 0\n"


def test_criterion_12_separation_on_an_explicit_formula(tmp_path, capsys):
    # A 2-CNF at p = 1/4 on which Shearer's criterion fails on the
    # lopsidependency graph while the resampling criterion holds.
    path = tmp_path / "separation.cnf"
    path.write_text(SEPARATION_CNF)
    assert main(["check-shearer", "--cnf", str(path)]) == 0
    assert capsys.readouterr().out == "VIOLATED witness={} Q=-1/64\n"

    formula = dimacs_import(SEPARATION_CNF)
    events = events_from_formula(formula)
    graph = lopsidependency_graph(events)
    edges = graph.edges()
    assert len(edges) == 6
    assert verify_lopsidependency(events, graph, formula.variable_count)
    for edge in edges:  # the graph is minimal: no edge can go
        fewer = DepGraph.from_edges(graph.n, [e for e in edges if e != edge])
        assert not verify_lopsidependency(events, fewer, formula.variable_count), edge

    p = [Fraction(1, 4)] * len(events)
    mu = [Fraction(5, 3), Fraction(2), Fraction(5, 3), Fraction(2), Fraction(5, 3)]
    at_mu = harris_check(events, mu, p)
    assert at_mu.satisfied and at_mu.margin == 0
    eps = Fraction(1, 10 ** 9)
    above = harris_check(events, [x * (1 + eps) for x in mu], p)
    assert above.satisfied and above.margin == Fraction(1, 4000000000)
    assert not harris_check(events, [x * (1 - eps) for x in mu], p).satisfied
    report(12, "explicit 2-CNF: Shearer violated, resampling criterion satisfied")


def biclique_events(k, s, t):
    """The events of s clauses with literal +1 and t with -1, each other slot a
    fresh variable: the lopsidependency graph is K_{s,t}."""
    fresh = iter(range(2, 2 + (s + t) * (k - 1)))
    clauses = [(sign, *(next(fresh) for _ in range(k - 1))) for sign in [1] * s + [-1] * t]
    text = "".join(" ".join(map(str, clause)) + " 0\n" for clause in clauses)
    return events_from_formula(dimacs_import(f"p cnf {1 + (s + t) * (k - 1)} {s + t}\n{text}"))


@pytest.mark.parametrize("k,s,t", [(2, 2, 3), (3, 4, 7), (4, 9, 13), (5, 19, 25), (6, 37, 52)])
def test_criterion_13_separation_on_bicliques(k, s, t):
    # The smallest s + t per k at which Shearer fails at p = 2^-k, that is
    # Z(K_{s,t}) = (1 - p)^s + (1 - p)^t - 1 <= 0, while Harris's criterion holds
    # at its least solution mu+ = q(1 + t mu-), mu- = q(1 + s mu+), q = p/(1 - p).
    p = Fraction(1, 2 ** k)
    events = biclique_events(k, s, t)
    graph = lopsidependency_graph(events)
    assert sorted(graph.edges()) == [(u, v) for u in range(s) for v in range(s, s + t)]
    verdict = shearer_check(graph, [p] * (s + t))
    assert (verdict.satisfied, verdict.witness) == (False, ())
    assert verdict.witness_value == (1 - p) ** s + (1 - p) ** t - 1
    for smaller in ((s, t - 1), (s - 1, t)):
        graph = lopsidependency_graph(biclique_events(k, *smaller))
        assert shearer_check(graph, [p] * sum(smaller)).satisfied, smaller

    q = p / (1 - p)
    mu_plus = q * (1 + t * q) / (1 - q * q * s * t)
    mu_minus = q * (1 + s * q) / (1 - q * q * s * t)
    at_mu = harris_check(events, [mu_plus] * s + [mu_minus] * t, [p] * (s + t))
    assert at_mu.satisfied and at_mu.margin == 0
    report(13, f"K_{{{s},{t}}} at k={k}: Shearer violated, resampling criterion holds")
