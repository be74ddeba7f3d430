"""The object-per-literal DIMACS parser, kept as an oracle for the flat one.

This is the parser `satlll.sat_model` used while a formula was a tuple of
Clause objects, each a tuple of Literal objects.  It returns
(width, variable_count, literals) with the literals as one tuple of signed
ints, or raises what the old parser raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from satlll.errors import DimacsError, DomainError


@dataclass(frozen=True)
class Literal:
    variable: int
    polarity: bool

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


def oracle_dimacs_import(text: str, width: int | None = None):
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

    # The old Formula's own checks, in its order.
    if width < 2:
        raise DomainError(f"formula width must be >= 2, got {width}")
    if variable_count < 0:
        raise DomainError("variable_count must be nonnegative")
    return (width, variable_count,
            tuple(lit.to_dimacs() for clause in clauses for lit in clause.literals))


def _clause_from_ints(values: list[int], lineno: int) -> Clause:
    if not values:
        raise DimacsError("empty clause", line=lineno)
    try:
        return Clause(tuple(Literal(abs(v), v > 0) for v in values))
    except DomainError as exc:
        raise DimacsError(str(exc), line=lineno) from None
