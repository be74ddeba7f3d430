import math
import random
from fractions import Fraction

import mpmath
import pytest

from satlll.bounds import (MASK_GUARD, _orderable_sum, f_lll, f_mt, gap_inequality,
                           harris_check, harris_ksat_alpha)
from satlll.cli import DEFAULT_PRECISION
from satlll.errors import DomainError, SizeGuardError
from satlll.events_graph import events_from_formula, literal_index
from satlll.sat_model import DEFAULT_CLAUSE_GUARD, build_extremal_formula

from oracles import gap_inequality_by_fdiv, orderable_sets_by_search, symmetric_lll_check


def test_f_lll_values():
    assert f_lll(9) == 20
    assert f_lll(12) == 125
    assert f_lll(20) == 19287


def test_f_lll_and_gap_match_high_precision_mpmath():
    # An independent route: mpmath's e at 4k + 64 bits in the mp context.
    for k in range(2, 401):
        with mpmath.mp.workprec(4 * k + 64):
            lll = int(mpmath.floor((mpmath.mpf(2) ** k / mpmath.e - 1) / k))
            rhs = mpmath.mpf(2) ** k / (2 * mpmath.e * k * k) - 1
            holds = f_mt(k) - lll >= rhs
            rhs = float(rhs)
        assert f_lll(k) == lll, k
        assert gap_inequality(k, f_mt(k) - f_lll(k)) == (holds, rhs), k


def test_gap_rhs_past_the_float_range_is_inf():
    assert gap_inequality(1100, f_mt(1100) - f_lll(1100)) == (True, math.inf)


def test_f_mt_values():
    assert f_mt(2) == 0
    assert f_mt(9) == 22
    assert f_mt(12) == 131
    assert f_mt(20) == 19784


def test_f_mt_dominates_f_lll():
    for k in range(2, 21):
        assert f_mt(k) >= f_lll(k)


def test_bounds_reject_small_k():
    with pytest.raises(DomainError):
        f_lll(1)
    with pytest.raises(DomainError):
        f_mt(1)


def test_symmetric_lll_examples():
    assert symmetric_lll_check(Fraction(1, 8), 1)
    assert not symmetric_lll_check(Fraction(1, 2), 1)
    assert symmetric_lll_check(Fraction(0), 7)


def test_symmetric_lll_domain():
    with pytest.raises(DomainError):
        symmetric_lll_check(Fraction(3, 2), 1)
    with pytest.raises(DomainError):
        symmetric_lll_check(Fraction(1, 8), -1)


def test_orderable_isolated_event():
    events = [(1,), (2,)]  # no disagreement anywhere
    assert list(orderable_sets_by_search(0, events)) == [frozenset(), frozenset({0})]


def test_orderable_two_independent_hitters():
    # B disagrees with B1 on var 1 only and with B2 on var 2 only
    b = (1, 2)
    b1 = (-1, 3)
    b2 = (-2, 4)
    found = set(orderable_sets_by_search(0, [b, b1, b2]))
    assert found == {frozenset(), frozenset({0}), frozenset({1}), frozenset({2}),
                     frozenset({1, 2})}


def test_orderable_shared_atom_pair_not_orderable():
    # both candidates disagree with B only on var 1: no fresh atom for the second
    b = (1, 2)
    b1 = (-1, 3)
    b1_prime = (-1, 4)
    found = set(orderable_sets_by_search(0, [b, b1, b1_prime]))
    assert frozenset({1, 2}) not in found
    assert found == {frozenset(), frozenset({0}), frozenset({1}), frozenset({2})}


def test_orderable_never_contains_b_in_composite_set():
    formula = build_extremal_formula(3, 2, 2, DEFAULT_CLAUSE_GUARD)
    events = events_from_formula(formula)
    for b_index in range(len(events)):
        for y in orderable_sets_by_search(b_index, events):
            if y != frozenset({b_index}):
                assert b_index not in y


def random_events(rng: random.Random, k: int, m: int, count: int) -> list[tuple[int, ...]]:
    """count random k-clauses on variables 1..m, each variable signed by a coin."""
    return [tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, m + 1), k))
            for _ in range(count)]


def test_orderable_sets_match_the_ordering_search():
    # Each B's sum, and harris_check's verdict, witness and exact margin,
    # against the sums over the sets that the ordering search yields.
    rng = random.Random(15)
    verdicts = set()
    for _ in range(250):
        k = rng.randint(2, 4)
        events = random_events(rng, k, rng.randint(k, k + 3), rng.randint(1, 8))
        weights = [rng.randint(0, 8) for _ in events]
        mu = [Fraction(w, 16) for w in weights]
        p = [Fraction(1, 2 ** k)] * len(events)
        lits, holders = literal_index(events, k + 3)
        margins = []
        for b in range(len(events)):
            total = sum(math.prod(mu[i] for i in y) for y in orderable_sets_by_search(b, events))
            assert _orderable_sum(b, events, weights, [16] * len(events),
                                  lits, holders) == total, (events, mu, b)
            margins.append(mu[b] - p[b] * total)
        failing = [b for b, margin in enumerate(margins) if margin < 0]
        expected = ((False, failing[0], margins[failing[0]]) if failing
                    else (True, None, min(margins, default=Fraction(0))))
        report = harris_check(events, mu, p)
        assert (report.satisfied, report.witness, report.margin) == expected, (events, mu)
        verdicts.add(report.satisfied)
    assert verdicts == {True, False}


def test_harris_margin_on_denominators_that_do_not_divide_each_other():
    # Each B's sum puts its hitters' mu over their lcm; a scale that is not
    # a multiple of each denominator would show as a wrong margin.
    rng = random.Random(16)
    for _ in range(100):
        k = rng.randint(2, 3)
        events = random_events(rng, k, rng.randint(k, k + 2), rng.randint(1, 6))
        mu = [Fraction(rng.randint(1, d - 1), d)
              for d in rng.choices((3, 5, 7, 16), k=len(events))]
        p = [Fraction(1, 2 ** k)] * len(events)
        margins = [mu[b] - p[b] * sum(math.prod(mu[i] for i in y)
                                      for y in orderable_sets_by_search(b, events))
                   for b in range(len(events))]
        failing = [b for b, margin in enumerate(margins) if margin < 0]
        expected = ((False, failing[0], margins[failing[0]]) if failing
                    else (True, None, min(margins)))
        report = harris_check(events, mu, p)
        assert (report.satisfied, report.witness, report.margin) == expected, (events, mu)


# Totals over all B of 16 events on 5 variables at mu = 1, that is, the
# counts of (B, Y) with Y orderable to B, the empty Y and {B} included,
# pinned from the ordering search, which is not run here: it took 72 s on
# the 4-CNF (CPython 3.11, 2-vCPU Xeon VM).
@pytest.mark.parametrize("k,total", [(2, 205), (3, 1747), (4, 7890)])
def test_orderable_set_totals_at_the_event_guard(k, total):
    events = random_events(random.Random(k), k, 5, 16)
    lits, holders = literal_index(events, 5)
    assert sum(_orderable_sum(b, events, [1] * 16, [1] * 16, lits, holders) for b in range(16)) == total


def test_orderable_guard():
    # B = (1, ..., 5) hit at the masks 1..17 over its positions: 17 distinct masks.
    b = (1, 2, 3, 4, 5)
    events = [b] + [tuple(-z for j, z in enumerate(b) if mask >> j & 1)
                    for mask in range(1, MASK_GUARD + 2)]
    with pytest.raises(SizeGuardError, match=f"event 0 is hit at {MASK_GUARD + 1} distinct masks"):
        harris_check(events, [Fraction(1)] * len(events), [Fraction(0)] * len(events))


def test_harris_check_refuses_probabilities_outside_the_unit_interval():
    for p in (Fraction(-1), Fraction(3, 2)):
        with pytest.raises(DomainError, match="probabilities"):
            harris_check([(1,)], [Fraction(1)], [p])
    with pytest.raises(DomainError, match="variable 0"):
        harris_check([(1, 0)], [Fraction(1)], [Fraction(1, 4)])


def test_harris_isolated_event():
    p = Fraction(1, 3)
    events = [(1,)]
    report = harris_check(events, [p / (1 - p)], [p])
    assert report.satisfied


def test_harris_zero_mu_refused():
    events = [(1,), (-1,)]
    report = harris_check(events, [Fraction(0)] * 2, [Fraction(1, 2)] * 2)
    assert not report.satisfied  # 0 >= 1/2 * (1 + 0 + 0) fails
    assert report.witness == 0
    assert report.margin == Fraction(-1, 2)


def test_harris_violated_witness():
    events = [(1,)]
    report = harris_check(events, [Fraction(1, 10)], [Fraction(1, 2)])
    assert not report.satisfied  # 1/10 < 1/2 * (1 + 1/10)
    assert report.margin == Fraction(-9, 20)
    report = harris_check(events, [Fraction(1)], [Fraction(1, 2)])
    assert report.satisfied  # equality: 1 = 1/2 * (1 + 1)
    # a disagreeing partner adds its own term to the sum
    events = [(1,), (-1,)]
    report = harris_check(events, [Fraction(1)] * 2, [Fraction(1, 2)] * 2)
    assert not report.satisfied  # 1 < 1/2 * (1 + 1 + 1)
    assert report.witness == 0
    report = harris_check(events, [Fraction(1)] * 2, [Fraction(1, 3)] * 2)
    assert report.satisfied and report.margin == 0


def test_harris_phi1_with_alpha():
    formula = build_extremal_formula(3, 2, 1, DEFAULT_CLAUSE_GUARD)
    events = events_from_formula(formula)
    alpha = harris_ksat_alpha(3, 2, DEFAULT_PRECISION)
    # closed-form alpha is not quite a Fraction; a nearby rational suffices
    mu = Fraction(str(alpha)).limit_denominator(10 ** 12)
    report = harris_check(events, [mu] * len(events), [Fraction(1, 8)] * len(events))
    assert not 2 <= f_mt(3) and not report.satisfied  # alpha < 1/8 * (1 + 2 alpha)


def star_events(k: int, L: int) -> list[tuple[int, ...]]:
    """B = (1, ..., k), and per variable v of B, L events that disagree with B there.

    B is false when x_1..x_k are all False.  Each of the L events on v has
    the literal -v, false when x_v is True, and k-1 fresh positive literals,
    so the sets orderable to B pick at most one event per variable: their
    sum is alpha + (1 + L alpha)^k, the closed form of harris_ksat_alpha.
    """
    events = [tuple(range(1, k + 1))]
    fresh = k + 1
    for v in range(1, k + 1):
        for _ in range(L):
            events.append((-v, *range(fresh, fresh + k - 1)))
            fresh += k - 1
    return events


@pytest.mark.parametrize("k,L,satisfied", [(3, 1, True), (4, 1, True), (3, 2, False),
                                           (4, 2, False), (4, 3, False), (6, 4, True),
                                           (6, 5, False), (9, 22, True), (9, 23, False)])
def test_harris_check_agrees_with_closed_form_on_star(k, L, satisfied):
    alpha = harris_ksat_alpha(k, L, DEFAULT_PRECISION)
    assert (L <= f_mt(k)) == satisfied
    mu = Fraction(str(alpha)).limit_denominator(10 ** 15)
    events = star_events(k, L)
    report = harris_check(events, [mu] * len(events), [Fraction(1, 2 ** k)] * len(events))
    # B has the least margin, and the generic sum is the closed form exactly.
    margin = mu - Fraction(1, 2 ** k) * (mu + (1 + L * mu) ** k)
    assert (report.satisfied, report.witness, report.margin) == (
        satisfied, None if satisfied else 0, margin)


def test_harris_check_decides_an_extremal_k9_formula():
    # 8400 events, each hit at no more than nine distinct one-literal masks.
    formula = build_extremal_formula(9, 22, 200, DEFAULT_CLAUSE_GUARD)
    events = events_from_formula(formula)
    mu = Fraction(str(harris_ksat_alpha(9, 22, DEFAULT_PRECISION))).limit_denominator(10 ** 15)
    report = harris_check(events, [mu] * len(events), [Fraction(1, 2 ** 9)] * len(events))
    assert report.satisfied and report.witness is None and report.margin > 0


@pytest.mark.parametrize("L", [2, 5, 22])
def test_orderable_sum_of_extremal_clause_zero(L):
    # Each of the nine literals of clause 0 is hit, alone, by the L - 1
    # clauses of the opposite sign that its variable's stage adds.
    formula = build_extremal_formula(9, L, 20, DEFAULT_CLAUSE_GUARD)
    events = events_from_formula(formula)
    mu = Fraction(1, 3 * L)
    lits, holders = literal_index(events, formula.variable_count)
    assert _orderable_sum(0, events, [1] * len(events), [3 * L] * len(events), lits, holders) == (
        mu + (1 + (L - 1) * mu) ** 9)


def test_harris_alpha_boundary_k9():
    # The criterion 2^k alpha >= alpha + (1 + L alpha)^k, at 1024 bits, turns at F_MT(9) = 22.
    assert f_mt(9) == 22
    for L, holds in ((22, True), (23, False)):
        with mpmath.mp.workprec(1024):
            alpha = (mpmath.root(mpmath.mpf(2 ** 9 - 1) / (9 * L), 8) - 1) / L
            assert (2 ** 9 * alpha >= alpha + (1 + L * alpha) ** 9) == holds, L
            assert harris_ksat_alpha(9, L, 1024) == float(alpha), L


def test_harris_alpha_at_f_mt():
    for k in range(3, 13):
        alpha = harris_ksat_alpha(k, f_mt(k), DEFAULT_PRECISION)
        assert alpha > 0, k


def test_harris_alpha_verdict_is_l_at_most_f_mt():
    # Reference: the criterion 2^k alpha >= alpha + (1 + L alpha)^k evaluated
    # directly at 1024 bits, at every L <= 300 and at F_MT - 1, F_MT, F_MT + 1.
    pairs = 0
    for k in range(2, 41):
        mt = f_mt(k)
        for L in sorted(set(range(1, 301)) | {mt - 1, mt, mt + 1}):
            if L < 1 or L * k > 2 ** k - 1:
                continue
            with mpmath.mp.workprec(1024):
                alpha = (mpmath.root(mpmath.mpf(2 ** k - 1) / (k * L), k - 1) - 1) / L
                direct = 2 ** k * alpha >= alpha + (1 + L * alpha) ** k
            alpha_float = harris_ksat_alpha(k, L, DEFAULT_PRECISION)
            assert direct == (L <= mt), (k, L)
            assert type(alpha_float) is float
            pairs += 1
    assert pairs == 9196


def test_harris_alpha_domain():
    with pytest.raises(DomainError):
        harris_ksat_alpha(3, 3, DEFAULT_PRECISION)  # 3 * 3 > 2^3 - 1 = 7


@pytest.mark.parametrize("k", [*range(2, 61), *range(1045, 1049)])
def test_gap_rhs_by_int_division_matches_fdiv(k):
    # Both round the same quotient once to a float; at 1047 it first leaves
    # the float range, where int division raises and fdiv gives inf.
    lhs = f_mt(k) - f_lll(k)
    assert gap_inequality(k, lhs) == gap_inequality_by_fdiv(k, lhs)


def test_gap_inequality_table_range():
    for k in range(9, 21):
        holds, _ = gap_inequality(k, f_mt(k) - f_lll(k))
        assert holds, k


def test_gap_inequality_k2_evaluated_honestly():
    holds, rhs = gap_inequality(2, f_mt(2) - f_lll(2))
    # f_mt(2) - f_lll(2) = 0 - 0 = 0 and rhs = 4/(8e) - 1 < 0, so it holds
    assert rhs < 0
    assert holds == (0 >= rhs)
