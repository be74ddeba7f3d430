"""CNF data model, occurrence accounting, recursive extremal construction, DIMACS I/O.

Formulas are width-k CNF with per-variable positive/negative occurrence
counts (R0, R1).  The extremal instances are built by repeatedly
"expanding" a variable i: appending L-1 clauses containing the literal x_i
and L-1 containing ~x_i, all other slots filled by fresh, positively
occurring variables.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Mapping

from .errors import DimacsError, DomainError, SizeGuardError

DEFAULT_CLAUSE_GUARD = 200_000


@dataclass(frozen=True, order=True)
class Literal:
    variable: int
    polarity: bool  # True = positive occurrence of the variable

    def __post_init__(self):
        if self.variable < 1:
            raise DomainError(f"variable index must be >= 1, got {self.variable}")

    def to_dimacs(self) -> int:
        return self.variable if self.polarity else -self.variable


@dataclass(frozen=True)
class Clause:
    literals: tuple[Literal, ...]

    def __post_init__(self):
        variables = [lit.variable for lit in self.literals]
        if len(set(variables)) != len(variables):
            raise DomainError(f"clause has repeated variables: {variables}")

    @property
    def variables(self) -> frozenset[int]:
        return frozenset(lit.variable for lit in self.literals)

    def is_true(self, assignment: Mapping[int, bool]) -> bool:
        return any(assignment[l.variable] == l.polarity for l in self.literals)


@dataclass(frozen=True)
class Formula:
    width: int
    variable_count: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.width < 2:
            raise DomainError(f"formula width must be >= 2, got {self.width}")
        if self.variable_count < 0:
            raise DomainError("variable_count must be nonnegative")
        for idx, clause in enumerate(self.clauses):
            if len(clause.literals) != self.width:
                raise DomainError(
                    f"clause {idx} has {len(clause.literals)} literals, expected width {self.width}")
            for lit in clause.literals:
                if lit.variable > self.variable_count:
                    raise DomainError(
                        f"clause {idx} uses variable {lit.variable} > variable_count {self.variable_count}")

    def is_satisfied_by(self, assignment: Mapping[int, bool]) -> bool:
        return all(clause.is_true(assignment) for clause in self.clauses)


@dataclass(frozen=True)
class OccurrenceProfile:
    """Per-variable counts of positive (r0) and negative (r1) literal occurrences."""

    r0: tuple[int, ...]  # indexed 1..m; slot 0 unused
    r1: tuple[int, ...]

    def R0(self, i: int) -> int:
        return self.r0[i]

    def R1(self, i: int) -> int:
        return self.r1[i]

    def R(self, i: int) -> int:
        return self.r0[i] + self.r1[i]

    @property
    def variable_count(self) -> int:
        return len(self.r0) - 1


@dataclass(frozen=True)
class ExpansionTree:
    """Provenance of an extremal construction.

    parent maps each non-root variable to the variable whose expansion
    introduced it.  added maps each expanded variable i to the clause
    indices appended at its stage, split into the half where i occurs
    positively and the half where it occurs negatively.
    """

    parent: Mapping[int, int]
    added: Mapping[int, tuple[tuple[int, ...], tuple[int, ...]]]


def occurrences(formula: Formula) -> OccurrenceProfile:
    m = formula.variable_count
    r0 = [0] * (m + 1)
    r1 = [0] * (m + 1)
    for clause in formula.clauses:
        for lit in clause.literals:
            if lit.polarity:
                r0[lit.variable] += 1
            else:
                r1[lit.variable] += 1
    return OccurrenceProfile(tuple(r0), tuple(r1))


def build_extremal_formula(k: int, L: int, r: int,
                           clause_guard: int = DEFAULT_CLAUSE_GUARD,
                           ) -> tuple[Formula, ExpansionTree]:
    """Run r expansion stages; stage i expands variable i.

    Stage i appends L-1 clauses with literal x_i followed by L-1 clauses
    with ~x_i; the other k-1 slots of every new clause hold fresh
    variables, numbered sequentially in clause order, all positive.
    Stage 1 creates variable 1 implicitly (the construction starts from
    the empty formula).
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if L < 2:
        raise DomainError(f"L must be >= 2 (L=1 adds zero clauses per stage), got {L}")
    if r < 0:
        raise DomainError(f"stage count r must be >= 0, got {r}")
    total_clauses = r * (2 * L - 2)
    if total_clauses > clause_guard:
        raise SizeGuardError(
            f"construction would produce {total_clauses} clauses, guard is {clause_guard}")

    clauses: list[Clause] = []
    parent: dict[int, int] = {}
    added: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    next_var = 1 if r == 0 else 2  # stage 1 introduces variable 1 itself

    for i in range(1, r + 1):
        pos_indices: list[int] = []
        neg_indices: list[int] = []
        for polarity, indices in ((True, pos_indices), (False, neg_indices)):
            for _ in range(L - 1):
                lits = [Literal(i, polarity)]
                for _ in range(k - 1):
                    parent[next_var] = i
                    lits.append(Literal(next_var, True))
                    next_var += 1
                indices.append(len(clauses))
                clauses.append(Clause(tuple(lits)))
        added[i] = (tuple(pos_indices), tuple(neg_indices))

    variable_count = next_var - 1 if r > 0 else 0
    formula = Formula(width=k, variable_count=variable_count, clauses=tuple(clauses))
    return formula, ExpansionTree(parent=parent, added=added)


def validate_occurrences(formula: Formula, tree: ExpansionTree, L: int) -> bool:
    """True iff R0(i) <= L and R1(i) <= L-1 for every variable i."""
    profile = occurrences(formula)
    return all(profile.R0(i) <= L and profile.R1(i) <= L - 1
               for i in range(1, formula.variable_count + 1))


def dimacs_export(formula: Formula) -> str:
    out = io.StringIO()
    out.write(f"p cnf {formula.variable_count} {len(formula.clauses)}\n")
    for clause in formula.clauses:
        out.write(" ".join(str(l.to_dimacs()) for l in clause.literals))
        out.write(" 0\n")
    return out.getvalue()


def dimacs_import(text: str, width: int | None = None) -> Formula:
    """Parse DIMACS CNF.  All clauses must share one width.

    If width is given it is demanded; otherwise it is inferred from the
    first clause (an empty formula then needs an explicit width).
    """
    variable_count = None
    declared_clauses = None
    clauses: list[Clause] = []
    pending: list[int] = []
    pending_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"bad problem line {line!r}", line=lineno)
            try:
                variable_count = int(parts[2])
                declared_clauses = int(parts[3])
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
                raise DimacsError(f"literal {value} exceeds the declared {variable_count} "
                                  f"variables", line=lineno)
            if value == 0:
                clauses.append(_clause_from_ints(pending, pending_line or lineno))
                pending = []
                pending_line = None
            else:
                if not pending:
                    pending_line = lineno
                pending.append(value)

    if variable_count is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("unterminated clause at end of input", line=pending_line)
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise DimacsError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}")

    widths = {len(c.literals) for c in clauses}
    if width is None:
        if not clauses:
            raise DimacsError("cannot infer width of an empty formula; pass width explicitly")
        if len(widths) > 1:
            raise DimacsError(f"non-uniform clause widths {sorted(widths)}")
        width = len(clauses[0].literals)
    elif widths - {width}:
        raise DimacsError(f"clause width mismatch: demanded {width}, found {sorted(widths)}")

    return Formula(width=width, variable_count=variable_count, clauses=tuple(clauses))


def _clause_from_ints(values: list[int], lineno: int) -> Clause:
    if not values:
        raise DimacsError("empty clause", line=lineno)
    try:
        return Clause(tuple(Literal(abs(v), v > 0) for v in values))
    except DomainError as exc:
        raise DimacsError(str(exc), line=lineno) from None
