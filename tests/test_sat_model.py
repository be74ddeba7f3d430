import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlll.errors import DimacsError, DomainError, SizeGuardError
from satlll.sat_model import (DEFAULT_CLAUSE_GUARD, EMPTY_WIDTH, Formula, build_extremal_formula,
                              dimacs_export, dimacs_import)

from conftest import random_formula
from oracles import (clauses_of, extremal_formula_by_stages, occurrences,
                     satisfied_clause_by_clause, validate_occurrences)


def test_formula_refuses_repeated_variable():
    with pytest.raises(DimacsError, match=r"line 3: clause has repeated variables: \[1, 1\]"):
        dimacs_import("p cnf 2 2\n1 2 0\n1 -1 0\n")


def test_formula_constructor_trusts_its_input():
    # Nothing checks here; the readers and the builder make valid formulas themselves.
    formula = Formula(2, 3, array("q", [1, 1, 2, 9]))
    assert list(formula.literals) == [1, 1, 2, 9]


def test_formula_layout_and_satisfaction():
    formula = Formula(width=2, variable_count=3, literals=array("q", (1, -2, 2, 3)))
    assert formula.clause_count == 2
    assert clauses_of(formula) == [array("q", [1, -2]), array("q", [2, 3])]
    assert formula == Formula(2, 3, array("q", [1, -2, 2, 3]))
    assert formula.is_satisfied_by(bytes([0, 0, 1]))
    assert not formula.is_satisfied_by(bytes([0, 1, 0]))
    assert Formula(width=3, variable_count=0, literals=array("q")).is_satisfied_by(b"")


def test_satisfaction_matches_brute_force():
    seen = set()
    for case in range(600):
        rng = random.Random(case)
        k = 2 + case % 8  # widths 2..9
        m = rng.randint(k, 3 * k)  # the clauses often leave variables unused
        formula = random_formula(rng, k, m, rng.choice([0, 1, rng.randint(2, 12)]))
        values = bytearray(rng.getrandbits(1) for _ in range(m))
        if formula.clause_count and case % 2:  # falsify one clause
            for z in clauses_of(formula)[rng.randrange(formula.clause_count)]:
                values[abs(z) - 1] = z < 0
        values = bytes(values)
        expected = satisfied_clause_by_clause(formula, values)
        assert formula.is_satisfied_by(values) == expected, case
        seen.add((formula.clause_count > 0, expected))
    assert seen == {(False, True), (True, True), (True, False)}
    for k in range(2, 10):  # no clauses: all([]) holds, as no byte of the OR is 0
        for m in range(4):
            assert Formula(k, m, array("q")).is_satisfied_by(bytes(m))


def formula_false_only_at(rng, k, m, n, false_clause):
    """(formula, values): n random width-k clauses on m variables, of which
    values falsify exactly the one at index false_clause."""
    values = bytes(rng.getrandbits(1) for _ in range(m))
    literals = []
    for i in range(n):
        clause = [v if rng.getrandbits(1) else -v for v in rng.sample(range(1, m + 1), k)]
        if i == false_clause:
            clause = [v if values[v - 1] == 0 else -v for v in map(abs, clause)]
        elif not any(values[abs(z) - 1] == (z > 0) for z in clause):
            clause[rng.randrange(k)] *= -1  # now true
        literals += clause
    return Formula(k, m, array("q", literals)), values


def test_satisfaction_by_columns_matches_any_per_clause():
    # One false clause, at the first and at the last position, and none:
    # the OR of the slot columns must find it in the low and the high byte.
    rng = random.Random(35)
    for k in range(2, 10):
        for n in (1, 2, 7, 300):
            for false_clause in dict.fromkeys((0, n - 1, None)):
                formula, values = formula_false_only_at(rng, k, rng.randint(k, 3 * k), n,
                                                        false_clause)
                expected = false_clause is None
                assert satisfied_clause_by_clause(formula, values) == expected
                assert formula.is_satisfied_by(values) == expected, (k, n, false_clause)


def test_satisfaction_refuses_values_of_another_length():
    # With one value short, truth[3] would read the end of the table, ~x_1's entry.
    formula = Formula(width=2, variable_count=3, literals=array("q", (1, -2, 2, 3)))
    for values in (bytes([0, 0]), bytes([0, 0, 1, 1]), b""):
        with pytest.raises(DomainError, match=f"{len(values)} values for 3 variables"):
            formula.is_satisfied_by(values)


def test_occurrences_direct_count():
    formula = Formula(width=2, variable_count=3, literals=array("q", [1, 2, -1, 3]))
    profile = occurrences(formula)
    assert profile.R0(1) == 1 and profile.R1(1) == 1
    assert profile.R0(2) == 1 and profile.R1(2) == 0
    assert profile.R0(3) == 1 and profile.R1(3) == 0
    assert profile.R(1) == 2


def test_occurrences_empty_formula():
    formula = build_extremal_formula(3, 2, 0, DEFAULT_CLAUSE_GUARD)
    assert formula.clause_count == 0
    assert occurrences(formula).variable_count == 0


def test_construction_first_stage():
    formula = build_extremal_formula(3, 2, 1, DEFAULT_CLAUSE_GUARD)
    assert formula.clause_count == 2
    assert formula.variable_count == 5
    assert list(formula.literals) == [1, 2, 3, -1, 4, 5]


SHAPES = [(k, L, r) for k in range(2, 11) for L in range(2, 8) for r in range(12)]


def test_construction_matches_stage_loop():
    for k, L, r in SHAPES + [(9, 22, 200), (20, 3, 50)]:
        formula = build_extremal_formula(k, L, r, DEFAULT_CLAUSE_GUARD)
        expected, parent, added = extremal_formula_by_stages(k, L, r)
        assert formula == expected, (k, L, r)
        assert formula.literals.typecode == "q"
        m = formula.variable_count
        assert m == (r * (2 * L - 2) * (k - 1) + 1 if r else 0)
        # The closed forms hj_family.build_H and the docstring rest on.
        assert parent == {v: (v - 2) // ((2 * L - 2) * (k - 1)) + 1 for v in range(2, m + 1)}
        starts = {i: (i - 1) * (2 * L - 2) for i in range(1, r + 1)}
        assert added == {i: (tuple(range(c, c + L - 1)), tuple(range(c + L - 1, c + 2 * L - 2)))
                         for i, c in starts.items()}


def test_construction_k2_L3_r2_counts():
    formula = build_extremal_formula(2, 3, 2, DEFAULT_CLAUSE_GUARD)
    assert formula.clause_count == 8
    profile = occurrences(formula)
    # variable 2 gains one positive occurrence at stage 1 and L-1 = 2 at stage 2
    assert profile.R0(2) == 3
    assert profile.R1(2) == 2


def test_construction_occurrence_bounds_hold():
    formula = build_extremal_formula(3, 2, 5, DEFAULT_CLAUSE_GUARD)
    assert validate_occurrences(formula, 2)
    profile = occurrences(formula)
    assert all(profile.R0(i) <= 2 and profile.R1(i) <= 1
               for i in range(1, formula.variable_count + 1))


def test_validate_occurrences_detects_violation():
    # variable 1 occurs positively L + 1 = 3 times with L = 2
    formula = Formula(width=2, variable_count=4, literals=array("q", [1, 2, 1, 3, 1, 4]))
    assert not validate_occurrences(formula, 2)


def test_construction_fresh_variables_each_in_one_clause():
    formula = build_extremal_formula(4, 3, 4, DEFAULT_CLAUSE_GUARD)
    _, parent, added = extremal_formula_by_stages(4, 3, 4)
    profile = occurrences(formula)
    for child in parent:
        if child not in added:  # never expanded: only its birth clause
            assert profile.R0(child) == 1
            assert profile.R1(child) == 0


def test_construction_guards():
    with pytest.raises(SizeGuardError):
        build_extremal_formula(3, 5, 100, clause_guard=10)
    # 2 clauses, but 2(k-1) + 1 variables, which the guard bounds too.
    with pytest.raises(SizeGuardError, match="would produce 11 variables, guard is 10$"):
        build_extremal_formula(6, 2, 1, clause_guard=10)
    assert build_extremal_formula(5, 2, 1, clause_guard=10).variable_count == 9
    with pytest.raises(DomainError):
        build_extremal_formula(1, 2, 1, DEFAULT_CLAUSE_GUARD)
    with pytest.raises(DomainError):
        build_extremal_formula(3, 1, 1, DEFAULT_CLAUSE_GUARD)


def test_dimacs_export_phi1():
    formula = build_extremal_formula(3, 2, 1, DEFAULT_CLAUSE_GUARD)
    assert dimacs_export(formula) == "p cnf 5 2\n1 2 3 0\n-1 4 5 0\n"


def test_dimacs_parse_error_has_line_number():
    with pytest.raises(DimacsError, match="line 2"):
        dimacs_import("p cnf 2 1\n1 oops 0\n")


def test_dimacs_empty_formula_has_the_empty_width():
    formula = dimacs_import("c nothing\np cnf 5 0\n")
    assert (formula.width, formula.variable_count, formula.clause_count) == (EMPTY_WIDTH, 5, 0)
    assert dimacs_export(formula) == "p cnf 5 0\n"


def test_dimacs_literal_beyond_64_bits():
    with pytest.raises(DomainError, match="a literal does not fit in 64 bits"):
        dimacs_import("p cnf 99999999999999999999999 1\n99999999999999999999 1 0\n")


def test_dimacs_clause_may_span_lines():
    formula = dimacs_import("p cnf 3 2\n1 -2\n3 0 -1\n2 -3 0\n")
    assert list(formula.literals) == [1, -2, 3, -1, 2, -3]


def test_dimacs_rejects_nonuniform_width():
    with pytest.raises(DimacsError, match="non-uniform"):
        dimacs_import("p cnf 3 2\n1 2 3 0\n1 2 0\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(2, 4),
       st.integers(1, 8))
def test_dimacs_round_trip(seed, k, n_clauses):
    formula = random_formula(random.Random(seed), k, m=k + 6, n_clauses=n_clauses)
    assert dimacs_import(dimacs_export(formula)) == formula


def test_dimacs_round_trip_on_construction():
    formula = build_extremal_formula(2, 3, 4, DEFAULT_CLAUSE_GUARD)
    assert dimacs_import(dimacs_export(formula)) == formula
