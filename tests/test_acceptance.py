"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single PASS line on success so the suite output doubles
as an acceptance report (run with ``pytest -v`` or ``pytest -s``).
"""

import random
from fractions import Fraction

from satlll.bounds import (f_lll, f_mt, gap_inequality, harris_check,
                           harris_ksat_alpha)
from satlll.events_graph import (BadEvent, events_from_formula,
                                 lopsidependency_graph, verify_lopsidependency)
from satlll.hj_family import (build_H, embed_H_in_G, fixed_point_iteration,
                              recurrence_sr, shearer_upper_bound)
from satlll.moser_tardos import run_mt
from satlll.sat_model import build_extremal_formula, validate_occurrences
from satlll.shearer import (component_factorization, expansion_identity,
                            independence_polynomial,
                            independence_polynomial_bruteforce, shearer_check)

from conftest import (random_formula, random_graph,
                      random_low_occurrence_formula, random_probabilities)

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
        assert shearer_upper_bound(k) == sh, k
        assert f_mt(k) == mt, k
    report(1, "bound table k=9..20 reproduced exactly")


def test_criterion_02_recurrence_equals_bruteforce():
    for k, L, jmax in ((2, 2, 4), (2, 3, 2), (3, 2, 2)):
        p = Fraction(1, 2 ** k)
        state = recurrence_sr(jmax, k, L)
        for j in range(jmax + 1):
            from satlll.hj_family import build_Hprime
            h = build_H(j, k, L)
            hp = build_Hprime(j, k, L)
            s_bf = independence_polynomial(h.graph, (), [p] * h.graph.n)
            r_bf = independence_polynomial(hp.graph, (), [p] * hp.graph.n)
            assert state.s(j) == s_bf, (k, L, j)
            assert state.r(j) == r_bf, (k, L, j)
    report(2, "s_j/r_j recurrence matches exact polynomial evaluation")


def test_criterion_03_polynomial_identities():
    rng = random.Random(11)
    for _ in range(200):
        graph = random_graph(rng, max_vertices=12)
        p = random_probabilities(rng, graph.n)
        reference = independence_polynomial_bruteforce(graph, (), p)
        assert independence_polynomial(graph, (), p) == reference
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
    state = recurrence_sr(4, 2, 2)
    first_bad = min(j for j in range(5) if state.s(j) <= 0)
    assert first_bad == 3
    assert state.s(3) == Fraction(-1, 1024)
    p = [Fraction(1, 4)]
    for j in range(3):
        h = build_H(j, 2, 2)
        assert shearer_check(h.graph, p * h.graph.n).satisfied, j
    h3 = build_H(3, 2, 2)
    bad = shearer_check(h3.graph, p * h3.graph.n)
    assert not bad.satisfied

    # consistency with the fixed-point route for the same parameters
    assert fixed_point_iteration(2, 2).verdict.kind == "violated"
    report(4, "small-case verdicts and explicit/fixed-point consistency")


def test_criterion_05_fixed_point_boundary():
    # a = g(a) is phi_{L-1}(2 - a^{-(L-1)}) = 0: the iteration and the
    # threshold-curve certificate must put the boundary at the same L
    for k in EXPECTED_TABLE:
        sh = shearer_upper_bound(k)
        converged = fixed_point_iteration(k, sh)
        assert converged.verdict.kind == "converged", k
        violated = fixed_point_iteration(k, sh + 1)
        assert violated.verdict.kind == "violated", k
        assert violated.verdict.step is not None
    report(5, "fixed point converged at F_Shearer, violated at F_Shearer+1, k=9..20")


def test_criterion_06_construction_invariants():
    for k in range(2, 6):
        for L in range(2, 5):
            for r in (0, 1, 2, 5, 20):
                formula, tree = build_extremal_formula(k, L, r)
                assert validate_occurrences(formula, tree, L), (k, L, r)
    report(6, "occurrence bounds R0<=L, R1<=L-1 across the parameter sweep")


def test_criterion_07_embedding_verified():
    for j in (0, 1, 2):
        for k in (2, 3):
            for L in (2, 3):
                result = embed_H_in_G(j, k, L)
                assert result.verified, (j, k, L)
    report(7, "induced-subgraph embeddings verified for j<=2, k,L in {2,3}")


def test_criterion_08_lopsidependency_property():
    corpus = []
    for k, L, r in ((3, 2, 1), (3, 2, 2), (2, 2, 3), (2, 2, 5), (2, 3, 2)):
        formula, _ = build_extremal_formula(k, L, r)
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
    for k in EXPECTED_TABLE:
        mt = f_mt(k)
        assert harris_ksat_alpha(k, mt)[1], k
        assert not harris_ksat_alpha(k, mt + 1)[1], k

    # whenever the closed-form alpha criterion holds, the generic enumeration
    # with mu == alpha must accept the generated instances as well
    for k, L, r in ((3, 2, 1), (3, 2, 2), (4, 3, 1), (5, 4, 1)):
        alpha, satisfied = harris_ksat_alpha(k, L)
        if not satisfied:
            continue
        mu = Fraction(str(alpha)).limit_denominator(10 ** 15)
        formula, _ = build_extremal_formula(k, L, r)
        events = events_from_formula(formula)
        p = [Fraction(1, 2 ** k)] * len(events)
        assert harris_check(events, [mu] * len(events), p).satisfied, (k, L, r)
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
        assignment, stats = run_mt(events, formula.variable_count, seed=seed + trial)
        assert stats.terminated
        assert not any(e.holds(assignment) for e in events)
        assert all(any(assignment[l.variable] == l.polarity for l in c.literals)
                   for c in formula.clauses)
        successes += 1
    assert successes == 100

    total = 0
    n_seeds = 10_000
    single = [BadEvent(frozenset({(1, True)}))]
    for s in range(n_seeds):
        _, stats = run_mt(single, 1, seed=s)
        total += stats.total_resamples
    assert abs(total / n_seeds - 1) < 0.05
    report(10, "termination on 100/100 seeds; geometric mean within 5%")


def test_criterion_11_ordering_separation():
    for k in range(9, 21):
        lll, sh, mt = EXPECTED_TABLE[k]
        assert f_lll(k) <= shearer_upper_bound(k) < f_mt(k), k
        assert gap_inequality(k).satisfied, k
    report(11, "F_LLL <= F_Shearer < F_MT and gap inequality for k=9..20")
