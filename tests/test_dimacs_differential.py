"""The flat DIMACS parser against the object-per-literal one it replaced.

On every input both either return the same (width, variable_count,
literals) or raise the same exception with the same message and line.  The
intended differences: a file without clauses now reads as a formula of
width EMPTY_WIDTH where the old parser asked for an explicit width; a line
starting with % now ends the input, as in SATLIB files, where the old
parser skipped it as a comment; and a literal beyond 64 bits is refused
with a DomainError, as an array("q") cannot hold it.

dimacs_import reads a clean file whole and anything else line by line; the
hand cases below sit on both sides of that boundary, and
test_whole_text_reads_exactly_the_clean_files pins which side each is on.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlll.errors import DimacsError, DomainError
from satlll.sat_model import (DEFAULT_CLAUSE_GUARD, EMPTY_WIDTH, _by_lines, _whole_text,
                              build_extremal_formula, dimacs_export, dimacs_import)

from conftest import random_formula
from dimacs_oracle import oracle_dimacs_import
from test_cli import DIMACS_LIKE, well_formed_dimacs

EMPTY_REFUSAL = "cannot infer width of an empty formula; pass width explicitly"
TOO_WIDE = ("DomainError", "a literal does not fit in 64 bits", None)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except (DimacsError, DomainError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def _flat(text, read=dimacs_import):
    formula = read(text)
    return formula.width, formula.variable_count, tuple(formula.literals)


def _before_percent_line(text):
    """The text up to its first line starting with %, where the input now ends."""
    lines = text.splitlines()
    end = next((i for i, line in enumerate(lines) if line.strip().startswith("%")), len(lines))
    return "\n".join(lines[:end])


def assert_same_outcome(text, read=dimacs_import):
    expected = _outcome(oracle_dimacs_import, _before_percent_line(text))
    got = _outcome(_flat, text, read)
    if expected == ("DimacsError", EMPTY_REFUSAL, None):
        # Now defined: the empty formula, refused only for a negative count.
        expected = _outcome(oracle_dimacs_import, _before_percent_line(text), EMPTY_WIDTH)
    if type(expected[0]) is int and not all(-2 ** 63 <= v < 2 ** 63 for v in expected[2]):
        expected = TOO_WIDE
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


GENERATED_TEXT = DIMACS_LIKE | well_formed_dimacs() | TOKEN_SOUP | st.text(max_size=60)


@settings(max_examples=300, deadline=None)
@given(GENERATED_TEXT)
def test_parsers_agree_on_generated_text(text):
    assert_same_outcome(text)


# dimacs_import reads clean files whole, so only these two properties run the
# line reader on them: it must read them as the oracle does, and as _whole_text.
@settings(max_examples=300, deadline=None)
@given(GENERATED_TEXT)
def test_line_reader_agrees_on_generated_text(text):
    assert_same_outcome(text, read=_by_lines)


@settings(max_examples=300, deadline=None)
@given(GENERATED_TEXT)
def test_whole_text_reads_as_the_line_reader(text):
    formula = _whole_text(text)
    assert formula is None or formula == _by_lines(text)


# Files read whole, and files read line by line though they look close.
WHOLE_TEXT = [
    "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n",
    "p cnf 3 2\r\n1 -2 3 0\r\n-1 2 -3 0\r\n",  # CRLF endings
    "p cnf 3 2\n\n1 -2 3 0\n\n\n-1 2 -3 0\n\n",  # blank lines
    "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0",  # no trailing newline
    "p cnf 3 2\n1 -2\n3 0 -1\n2 -3 0\n",  # clauses split across lines
    "  p  cnf 3 2 \n 1 -2 3 0 -1 2 -3 0\n",  # two clauses on one line, padded
    "p cnf 9223372036854775807 1\n9223372036854775807 -1 0\n",  # 2^63 - 1 fits
]
BY_LINES = [
    "c made by hand\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n",  # a leading c line
    "p cnf 3 2\nc between\n1 -2 3 0\n-1 2 -3 0\n",
    "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n%\n",  # a % ending
    "p cnf 3 2\n1 0\n-2 0\n",  # width 1: DomainError
    "p cnf 3 3\n1 -2 3 0\n-1 2 -3 0\n",  # a declared count that does not match
    "p cnf 3 1\n1 -2 3 0\n-1 2 -3 0\n",
    "p cnf 3 2\n1 -2 3 0\n-1 2 -1 0\n",  # a repeated variable in the last clause
    "p cnf 9223372036854775808 1\n9223372036854775808 1 0\n",  # 2^63: DomainError
    "p cnf 9223372036854775808 1\n-9223372036854775808 1 0\n",  # -2^63 fits, read by lines
    # width 1 and a literal beyond 64 bits: the width is refused first
    "p cnf 18446744073709551616 1\n18446744073709551616 0\n",
    "p cnf 3 1\n1 -2 3 0\np cnf 3 2\n-1 2 -3 0\n",  # a second header
    "p cnf 3\x0c2\n1 -2 3 0\n-1 2 -3 0\n",  # \f ends the header line early
    "p cnf 3 2\r1 -2 3 0\r-1 2 -3 0\r",  # lone CR endings
    "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0 0\n",  # an empty clause
    "p cnf 3 2\n1 -2 3 0\n-1 2 -4 0\n",  # a literal beyond the count
    "p cnf 3 2\n1 -2 3 0\n-1 2 x 0\n",  # a bad token
    "p cnf 3 2\n1 -2 3 0\n-1 2 -3\n",  # unterminated
    "p cnf 3 2\n1 -2 3 0\n-1 2 0\n",  # two widths
    "p cnf 3 0\n",  # no clauses
    "p cnf -1 0\n",  # a negative count: DomainError
    "pcnf 3 2\n1 -2 3 0\n-1 2 -3 0\n",  # a bad header
]


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
    *WHOLE_TEXT, *BY_LINES,
])
def test_parsers_agree_on_hand_cases(text):
    assert_same_outcome(text)


@pytest.mark.parametrize("text", WHOLE_TEXT + BY_LINES)
def test_whole_text_reads_exactly_the_clean_files(text):
    formula = _whole_text(text)
    assert (formula is not None) == (text in WHOLE_TEXT)
    if formula is not None:
        assert formula == dimacs_import(text.replace("\n", "\nc\n", 1))  # the line parser


@pytest.mark.parametrize("k,L,r", [(2, 2, 10), (3, 2, 4), (3, 3, 6), (4, 3, 5), (9, 22, 3)])
def test_parsers_agree_on_constructions(k, L, r):
    text = dimacs_export(build_extremal_formula(k, L, r, DEFAULT_CLAUSE_GUARD))
    assert_same_outcome(text)


def test_parsers_agree_on_random_formulas():
    rng = random.Random(17)
    for _ in range(40):
        k = rng.randint(2, 5)
        formula = random_formula(rng, k, m=rng.randint(k, 30), n_clauses=rng.randint(0, 25))
        assert_same_outcome(dimacs_export(formula))
