"""The flat DIMACS parser against the object-per-literal one it replaced.

On every input both either return the same (width, variable_count,
literals) or raise the same exception with the same message and line.  The
intended differences: a file without clauses now reads as a formula of
width EMPTY_WIDTH where the old parser asked for an explicit width; a line
starting with % now ends the input, as in SATLIB files, where the old
parser skipped it as a comment; and a literal beyond 64 bits is refused by
Formula (test_sat_model covers that).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlll.errors import DimacsError, DomainError
from satlll.sat_model import (EMPTY_WIDTH, build_extremal_formula, dimacs_export,
                              dimacs_import)

from conftest import random_formula
from dimacs_oracle import oracle_dimacs_import
from test_cli import DIMACS_LIKE, well_formed_dimacs

EMPTY_REFUSAL = "cannot infer width of an empty formula; pass width explicitly"


def _outcome(parse, *args):
    try:
        return parse(*args)
    except (DimacsError, DomainError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def _flat(text):
    formula = dimacs_import(text)
    return formula.width, formula.variable_count, tuple(formula.literals)


def _before_percent_line(text):
    """The text up to its first line starting with %, where the input now ends."""
    lines = text.splitlines()
    end = next((i for i, line in enumerate(lines) if line.strip().startswith("%")), len(lines))
    return "\n".join(lines[:end])


def assert_same_outcome(text):
    expected = _outcome(oracle_dimacs_import, _before_percent_line(text))
    got = _outcome(_flat, text)
    if expected == ("DimacsError", EMPTY_REFUSAL, None):
        # Now defined: the empty formula, refused only for a negative count.
        expected = _outcome(oracle_dimacs_import, _before_percent_line(text), EMPTY_WIDTH)
    assert got == expected, text


# Lines of DIMACS-like tokens, so clauses span lines, headers repeat and
# comments, garbage and out-of-range literals interleave with clauses.
TOKENS = st.sampled_from(["0", "0", "0", "1", "-1", "1", "2", "-2", "3", "-3", "4", "9",
                          "x", "+2", "0x1", "c", "%", "p", "cnf"])
LINES = st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=10)
TOKEN_SOUP = st.builds(lambda header, lines: "\n".join([header, *lines]),
                       st.sampled_from(["p cnf 3 2", "p cnf 4 3", "p cnf 2 1", "p cnf 0 0",
                                        "p cnf -1 1", "p cnf 3", "c first", ""]),
                       LINES)


@settings(max_examples=300, deadline=None)
@given(DIMACS_LIKE | well_formed_dimacs() | TOKEN_SOUP | st.text(max_size=60))
def test_parsers_agree_on_generated_text(text):
    assert_same_outcome(text)


@pytest.mark.parametrize("text", [
    "p cnf 3 1\n1\nc comment\n-1 0\n",  # repeated variable named at its clause's first line
    "p cnf 3 2\n1 1 0 x\n",  # a bad clause before a bad token on one line
    "p cnf 3 2\n1 -1 0 7\n",  # ... and before an out-of-range literal
    "p cnf 3 2\n1 2 0 0\n",  # an empty clause
    "p cnf 3 2\n0 x\n",  # an empty clause before a bad token
    "p cnf 3 1\n1 2 3 0\n4 0\n",
    "p cnf 3 1\n1 2\n",  # unterminated, named at its first line
    "p cnf 3 1\n1 2 0\np cnf 1 1\n1 0\n",  # a second header lowers the bound
    "p cnf 3 2\n1 2 0\n1 2 3 0\n",
    "1 2 0\n",
    "p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n%\n0\n",  # SATLIB's ending
])
def test_parsers_agree_on_hand_cases(text):
    assert_same_outcome(text)


@pytest.mark.parametrize("k,L,r", [(2, 2, 10), (3, 2, 4), (3, 3, 6), (4, 3, 5), (9, 22, 3)])
def test_parsers_agree_on_constructions(k, L, r):
    text = dimacs_export(build_extremal_formula(k, L, r)[0])
    assert_same_outcome(text)


def test_parsers_agree_on_random_formulas():
    rng = random.Random(17)
    for _ in range(40):
        k = rng.randint(2, 5)
        formula = random_formula(rng, k, m=rng.randint(k, 30), n_clauses=rng.randint(0, 25))
        assert_same_outcome(dimacs_export(formula))
