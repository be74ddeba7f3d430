"""CNF data model, recursive extremal construction, DIMACS I/O.

Formulas are width-k CNF, stored as one flat array of signed DIMACS
literals.  The extremal instances are built by repeatedly "expanding" a
variable i: appending L-1 clauses containing the literal x_i and L-1
containing ~x_i, all other slots filled by fresh, positively occurring
variables; the result has a closed form, written by strided slices.  An
assignment is one byte per variable, values[v-1] being x_v.  DIMACS import
infers the width from the clauses.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, repeat

from .errors import DimacsError, DomainError, SizeGuardError, guard_count

DEFAULT_CLAUSE_GUARD = 200_000


@dataclass(frozen=True)
class Formula:
    """A width-k CNF stored as one flat array("q") of signed DIMACS literals.

    Clause i is literals[i*width:(i+1)*width]: v stands for x_v and -v for
    ~x_v, so a formula costs one machine word per literal.  The constructor
    trusts its input (width >= 2, variable_count >= 0, whole clauses, every
    literal nonzero and within variable_count, no clause repeating a
    variable): the two DIMACS readers check it and build_extremal_formula
    ensures it.
    """

    width: int
    variable_count: int
    literals: array

    @property
    def clause_count(self) -> int:
        return len(self.literals) // self.width

    def is_satisfied_by(self, values: bytes) -> bool:
        """Every clause has a true literal, where values[v-1] is x_v (0 or 1)."""
        if len(values) != self.variable_count:
            raise DomainError(f"{len(values)} values for {self.variable_count} variables")
        truth = bytes(map(truth_table(values).__getitem__, self.literals))
        ored = 0  # byte i is nonzero iff clause i has a true literal
        for j in range(self.width):
            ored |= int.from_bytes(truth[j::self.width], "little")
        return 0 not in ored.to_bytes(self.clause_count, "little")


_NOT = bytes([1, 0]) + bytes(254)  # 0 <-> 1, for the values of the negative literals


def truth_table(values: bytes) -> bytearray:
    """The values (0 or 1; values[v-1] is x_v) indexed by signed literal: truth[v]
    is x_v and truth[-v], read from the end, 1 - x_v; truth[z] is 1 iff z is true."""
    return bytearray(1) + values + values[::-1].translate(_NOT)


def build_extremal_formula(k: int, L: int, r: int, clause_guard: int) -> Formula:
    """Run r expansion stages; stage i expands variable i.

    Stage i appends L-1 clauses with literal x_i followed by L-1 clauses
    with ~x_i; the other k-1 slots of every new clause hold fresh
    variables, numbered sequentially in clause order, all positive.
    Stage 1 creates variable 1 implicitly (the construction starts from
    the empty formula).

    So each slot has a closed form, written by one strided slice: stage i
    adds clauses c = (i-1)(2L-2) + 0..2L-3, with x_i in slot 0 of the
    first L-1 and ~x_i in the rest; slot j >= 1 of clause c holds
    variable 1 + j + c(k-1); so n clauses use m = n(k-1) + 1 variables
    (0 if r = 0), and stage (v-2) // ((2L-2)(k-1)) + 1 introduced v >= 2.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if L < 2:
        raise DomainError(f"L must be >= 2 (L=1 adds zero clauses per stage), got {L}")
    if r < 0:
        raise DomainError(f"stage count r must be >= 0, got {r}")
    total_clauses = r * (2 * L - 2)
    m = total_clauses * (k - 1) + 1 if r > 0 else 0
    # Both counts are bounded, as mt and check-shearer bound what they read.
    for count, noun in ((total_clauses, "clauses"), (m, "variables")):
        if count > clause_guard:
            raise SizeGuardError(f"construction would produce {guard_count(count, clause_guard)} "
                                 f"{noun}, guard is {clause_guard}")

    literals = array("q", [0]) * (total_clauses * k)
    signed = chain.from_iterable(zip(range(1, r + 1), range(-1, -r - 1, -1)))  # 1, -1, 2, ...
    literals[::k] = array("q", chain.from_iterable(map(repeat, signed, repeat(L - 1))))
    for j in range(1, k):
        literals[j::k] = array("q", range(1 + j, m + 1, k - 1))
    return Formula(width=k, variable_count=m, literals=literals)  # valid as built


def dimacs_export(formula: Formula) -> str:
    n = formula.clause_count
    clause_line = " ".join(["%d"] * formula.width) + " 0\n"
    return f"p cnf {formula.variable_count} {n}\n" + (clause_line * n) % tuple(formula.literals)


# A DIMACS file carries no width, so a file without clauses gets the least
# width a Formula takes; no output depends on the width of an empty formula.
EMPTY_WIDTH = 2


def dimacs_import(text: str) -> Formula:
    """Parse DIMACS CNF, in the grammar _by_lines states; all clauses share one width.

    A clean file is read whole; any other file, or one that fails a
    whole-text check, is read by _by_lines, which alone raises, so an error
    names the line of its token, or of the first literal of its clause.
    """
    return _whole_text(text) or _by_lines(text)  # a Formula is never falsy


def _whole_text(text: str) -> Formula | None:
    """The formula read in C-level passes, or None where _by_lines must read it."""
    first, _, body = text.partition("\n")
    parts = first.split() if len(first.splitlines()) == 1 else []  # \f, \r... end lines too
    if parts[:2] != ["p", "cnf"] or len(parts) != 4 or any(map(body.__contains__, "cp%")):
        return None
    try:
        m, n, values = int(parts[2]), int(parts[3]), list(map(int, body.split()))
        w = values.index(0)
    except ValueError:
        return None
    if w < 2 or len(values) != n * (w + 1) or any(values[w::w + 1]):
        return None
    del values[w::w + 1]  # the clause-closing zeros
    top = min(m, 2 ** 63 - 1)  # and each literal fits in an array("q")
    if (0 in values or max(values) > top or min(values) < -top
            or min(map(len, map(set, zip(*[map(abs, values)] * w)))) < w):  # a repeat
        return None
    return Formula(w, m, array("q", values))


def _by_lines(text: str) -> Formula:
    """The formula read line by line and token by token.

    Lines end where str.splitlines ends them and are stripped: a blank one
    or one starting with c is skipped, % ends the input, and p starts the
    header "p cnf <variables> <clauses>" (a later one replaces it).  Any
    other line must follow a header; its tokens are literals in [-variables,
    variables], a nonzero one joining the open clause and 0 closing it.  The
    first failure in token order raises: a token that is no int or out of
    range, or a 0 closing an empty clause, at its line; a clause repeating
    a variable, at its first literal's line.  At the end: no header, an open
    clause (at its first line), a count other than the declared one, mixed
    widths, width 1, a negative count, a literal beyond 64 bits.
    """
    variable_count = declared_clauses = None
    literals: list[int] = []
    widths: dict[int, int] = {}  # the clause count of each width
    clause: list[int] = []  # the open clause
    clause_line = None  # the line of its first literal

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "%":
            break
        if line[0] == "p":
            parts = line.split()
            try:  # four tokens, the second "cnf" and the last two ints
                variable_count, declared_clauses = map(
                    int, parts[2:] if parts[1:2] == ["cnf"] else ())
            except ValueError:
                raise DimacsError(f"bad problem line {line!r}", line=lineno) from None
            continue
        if variable_count is None:
            raise DimacsError("clause before 'p cnf' header", line=lineno)
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                raise DimacsError(f"malformed literal token {token!r}", line=lineno) from None
            if abs(value) > variable_count:
                raise DimacsError(f"literal {value} exceeds the declared "
                                  f"{variable_count} variables", line=lineno)
            if value:
                if not clause:
                    clause_line = lineno
                clause.append(value)
                continue
            if not clause:
                raise DimacsError("empty clause", line=lineno)
            if len(set(map(abs, clause))) != len(clause):
                raise DimacsError(f"clause has repeated variables: {list(map(abs, clause))}",
                                  line=clause_line)
            literals += clause
            widths[len(clause)] = widths.get(len(clause), 0) + 1
            clause = []

    if variable_count is None:
        raise DimacsError("missing 'p cnf' header")
    if clause:
        raise DimacsError("unterminated clause at end of input", line=clause_line)
    if declared_clauses != sum(widths.values()):
        raise DimacsError(f"header declares {declared_clauses} clauses, found {sum(widths.values())}")
    if len(widths) > 1:
        raise DimacsError(f"non-uniform clause widths {sorted(widths)}")
    width = min(widths, default=EMPTY_WIDTH)
    if width < 2:
        raise DomainError(f"formula width must be >= 2, got {width}")
    if variable_count < 0:
        raise DomainError("variable_count must be nonnegative")
    try:
        return Formula(width, variable_count, array("q", literals))
    except OverflowError:
        raise DomainError("a literal does not fit in 64 bits") from None
