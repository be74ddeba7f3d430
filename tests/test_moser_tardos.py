import random
from fractions import Fraction
from itertools import islice

import pytest

from satlll.errors import DomainError
from satlll.events_graph import events_from_formula
from satlll.sat_model import DEFAULT_CLAUSE_GUARD, build_extremal_formula
from satlll import moser_tardos
from satlll.moser_tardos import (COIN_CHUNK, RunStats, SelectionRule, coin_stream,
                                 fair_coins, run_mt)

from conftest import MAX_STEPS, random_formula, random_low_occurrence_formula
from oracles import satisfied_clause_by_clause

FIRST_INDEX = SelectionRule.FIRST_INDEX


def event_probability(event):
    """P(event) as an exact Fraction, for the rescan oracle.

    The event is a clause of signed literals and holds when each is false;
    every variable is a fair coin, so each literal is false with probability 1/2.
    """
    prob = Fraction(1)
    for _ in event:
        prob *= Fraction(1, 2)
    return prob


def holds(event, values):
    """Every literal of the clause is false; values[v-1] is x_v."""
    return all(values[abs(z) - 1] == (z < 0) for z in event)


def run_mt_by_rescan(events, m, rule, seed, max_steps):
    """The resampling loop that rescans every event on every step: the oracle."""
    init_rng = random.Random(f"{seed}:init")
    resample_rng = random.Random(f"{seed}:resample")
    select_rng = random.Random(f"{seed}:select")

    def draw(rng):
        return rng.randrange(2) < 1

    probabilities = [event_probability(e) for e in events]
    values = bytearray(draw(init_rng) for _ in range(m))  # values[v-1] is x_v
    per_event = [0] * len(events)
    steps = 0
    while True:
        true_events = [i for i, e in enumerate(events) if holds(e, values)]
        if not true_events or steps >= max_steps:
            break
        if rule is SelectionRule.FIRST_INDEX:
            chosen = true_events[0]
        elif rule is SelectionRule.UNIFORM_RANDOM:
            chosen = true_events[select_rng.randrange(len(true_events))]
        else:
            chosen = min(true_events, key=lambda i: (probabilities[i], i))
        for variable in sorted(abs(z) for z in events[chosen]):
            values[variable - 1] = draw(resample_rng)
        per_event[chosen] += 1
        steps += 1
    return bytes(values), RunStats(tuple(per_event), terminated=not true_events, steps=steps)


def test_incremental_run_matches_rescan():
    seen = set()
    for case in range(1200):
        rng = random.Random(case)
        k = rng.randint(2, 4)
        m = rng.randint(k, 14)  # often more variables than the clauses use
        formula = random_formula(rng, k, m, rng.choice([0, 1, rng.randint(2, 16)]))
        events = events_from_formula(formula)
        rule = list(SelectionRule)[case % 3]
        max_steps = rng.choice([0, 1, 5, 60])
        expected = run_mt_by_rescan(events, m, rule, case, max_steps)
        values, stats = run_mt(events, m, rule=rule, seed=case, max_steps=max_steps)
        assert values == expected[0], case
        assert stats == expected[1], case
        assert sum(stats.per_event_resamples) == stats.steps, case  # one resample a step
        seen.add((rule, not events, stats.terminated, stats.steps == max_steps))
    for rule in SelectionRule:
        assert (rule, True, True, False) in seen  # zero events
        assert (rule, False, True, False) in seen  # terminated
        assert (rule, False, False, True) in seen  # limit reached


@pytest.mark.parametrize("shape", [(3, 3, 4), (3, 3, 5), (3, 3, 6), (4, 3, 4), (2, 4, 3)])
def test_incremental_run_matches_rescan_on_extremal_formulas(shape):
    # One variable lies in 2L - 2 events, L - 1 of each sign, so a flip of it
    # removes and re-tests many events at once.
    formula = build_extremal_formula(*shape, DEFAULT_CLAUSE_GUARD)
    events = events_from_formula(formula)
    m = formula.variable_count
    cut = set()
    for rule in SelectionRule:
        for max_steps in (0, 5, 60):
            for seed in range(8):
                expected = run_mt_by_rescan(events, m, rule, seed, max_steps)
                values, stats = run_mt(events, m, rule=rule, seed=seed, max_steps=max_steps)
                assert values == expected[0], (rule, max_steps, seed)
                assert stats == expected[1], (rule, max_steps, seed)
                if not stats.terminated:
                    cut.add(max_steps)
    assert cut  # some run stops at its limit


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 67_201])
def test_fair_coins_equal_successive_randrange(monkeypatch, n):
    refills = []
    counted = moser_tardos._coins

    def counting(rng, words):
        refills[-1] += 1
        return counted(rng, words)
    monkeypatch.setattr(moser_tardos, "_coins", counting)
    for seed in ["0:init", "7:init", *range(10)]:
        refills.append(-1)  # the first draw is not a refill
        rng = random.Random(seed)
        expected = [rng.randrange(2) < 1 for _ in range(n)]
        assert list(fair_coins(random.Random(seed), n)) == expected, seed
    if n == 67_201:  # 2n words give n coins about half the time
        assert min(refills) == 0 and max(refills) > 0


def test_coin_stream_equals_successive_randrange():
    for seed in ["0:resample", "7:resample", 3]:
        rng = random.Random(seed)
        count = 4 * COIN_CHUNK  # about 8 chunks of about COIN_CHUNK / 2 coins
        expected = [rng.randrange(2) < 1 for _ in range(count)]
        assert list(islice(coin_stream(random.Random(seed)), count)) == expected, seed


def test_lowest_probability_refuses_events_of_mixed_widths():
    # Lowest-probability takes one width, as a formula has; the other rules
    # take any events and still select what a rescan selects.
    refused = 0
    for case in range(400):
        rng = random.Random(case)
        m = rng.randint(1, 10)
        events = [tuple(-v if rng.random() < 0.5 else v
                        for v in rng.sample(range(1, m + 1), rng.randint(1, min(4, m))))
                  for _ in range(rng.randint(1, 12))]
        for rule in SelectionRule:
            if rule is SelectionRule.LOWEST_PROBABILITY and len(set(map(len, events))) > 1:
                with pytest.raises(DomainError, match="needs events of one width"):
                    run_mt(events, m, rule=rule, seed=case, max_steps=40)
                refused += 1
                continue
            expected = run_mt_by_rescan(events, m, rule, case, 40)
            values, stats = run_mt(events, m, rule=rule, seed=case, max_steps=40)
            assert values == expected[0], (case, rule)
            assert stats == expected[1], (case, rule)
    assert 0 < refused < 400


def test_unknown_rule_is_refused():
    with pytest.raises(DomainError, match="unknown selection rule"):
        run_mt([(-1,)], 1, "first-index", 0, MAX_STEPS)


def test_zero_events_returns_initial_assignment():
    values, stats = run_mt([], 4, FIRST_INDEX, 7, MAX_STEPS)
    assert type(values) is bytes and len(values) == 4 and set(values) <= {0, 1}
    assert values == fair_coins(random.Random("7:init"), 4)
    assert stats.per_event_resamples == ()
    assert stats.terminated
    assert stats.steps == 0


def test_single_event_terminates():
    values, stats = run_mt([(-1,)], 1, FIRST_INDEX, 3, MAX_STEPS)
    assert stats.terminated
    assert values == b"\0"


def test_single_event_geometric_mean():
    # resample count for {(1,T)} at bias 1/2 is geometric with mean 1
    total = 0
    n = 2000
    for seed in range(n):
        _, stats = run_mt([(-1,)], 1, FIRST_INDEX, seed, MAX_STEPS)
        total += stats.steps
    assert abs(total / n - 1) < 0.08


def test_reproducible_traces():
    formula = random_low_occurrence_formula(random.Random(5), k=3, m=24, n_clauses=6)
    events = events_from_formula(formula)
    runs = [run_mt(events, formula.variable_count, SelectionRule.UNIFORM_RANDOM, 42, MAX_STEPS)
            for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_different_seeds_differ_eventually():
    events = [(-1, -2), (-3, -4)]
    assignments = {run_mt(events, 4, FIRST_INDEX, s, MAX_STEPS)[0] for s in range(30)}
    assert len(assignments) > 1


def test_max_steps_gives_unterminated():
    # contradictory pair on one variable can never be satisfied
    events = [(-1,), (1,)]
    _, stats = run_mt(events, 1, FIRST_INDEX, 0, 25)
    assert not stats.terminated
    assert stats.steps == 25


def test_terminated_assignment_satisfies_formula(rng):
    for trial in range(20):
        formula = random_low_occurrence_formula(rng, k=3, m=30, n_clauses=7)
        events = events_from_formula(formula)
        values, stats = run_mt(events, formula.variable_count, FIRST_INDEX, trial, MAX_STEPS)
        assert stats.terminated
        assert satisfied_clause_by_clause(formula, values) and formula.is_satisfied_by(values)
        assert not any(holds(e, values) for e in events)


def test_bias_validation():
    # Every variable is a fair coin: a bias is no longer accepted.
    with pytest.raises(TypeError):
        run_mt([(-1,)], 1, FIRST_INDEX, 0, MAX_STEPS, bias=[Fraction(0), Fraction(1)])
    with pytest.raises(DomainError):
        run_mt([(-2,)], 1, FIRST_INDEX, 0, MAX_STEPS)
    with pytest.raises(DomainError):
        run_mt([], 1, FIRST_INDEX, 0, -1)
