"""Command-line surface: bound tables, constructions, checks, and runs.

Every subcommand prints text by default and a JSON mirror under
--format json, except construct, which prints DIMACS under either format.
Each shared setting is the flag (a flag after the subcommand overrides one
before it), else its SATLLL_* environment variable, else the default.
Exit codes are distinct per error class: 0 success, 2 usage (argparse),
3 domain error, 4 size-guard violation (or recursion too deep),
5 certification failure, 6 DIMACS parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from itertools import chain

from . import bounds as bounds_mod
from . import hj_family, moser_tardos, sat_model, shearer
from .errors import (CertificationError, DimacsError, DomainError,
                     SatLllError, SizeGuardError, printable)
from .events_graph import DepGraph, events_from_formula, lopsidependency_graph

EXIT_DOMAIN = 3
EXIT_GUARD = 4
EXIT_CERTIFICATION = 5
EXIT_DIMACS = 6
DEFAULT_PRECISION = 256
DEFAULT_VERTEX_GUARD = 40
_LETTERS = bytes.maketrans(b"\0\1", b"FT")  # a value byte as mt prints it

# The first class that an error is an instance of gives its exit code.  A graph
# too deep for the recursive Z_W evaluation is refused like one over the guard.
_EXIT_CODES = ((DimacsError, EXIT_DIMACS), (CertificationError, EXIT_CERTIFICATION),
               (SizeGuardError, EXIT_GUARD), (RecursionError, EXIT_GUARD),
               (SatLllError, EXIT_DOMAIN))

# The integer settings: attribute on args, environment variable, default.
_SETTINGS = (("precision", "SATLLL_PRECISION", DEFAULT_PRECISION),
             ("guard_vertices", "SATLLL_GUARD_VERTICES", DEFAULT_VERTEX_GUARD),
             ("guard_clauses", "SATLLL_GUARD_CLAUSES", sat_model.DEFAULT_CLAUSE_GUARD))


def _resolve_settings(args):
    """Fill in each shared option not given as a flag, then validate."""
    settings = vars(args)
    for name, variable, default in _SETTINGS:
        # Read even when the flag is given, so a malformed value is always refused.
        value = os.environ.get(variable)
        if value:
            try:
                default = int(value)
            except ValueError:
                PARSER.error(f"{variable} must be an integer, got {value!r}")
        settings.setdefault(name, default)
    settings.setdefault("format", "tsv")
    settings.setdefault("out", None)
    if args.precision < 64:
        raise DomainError(f"precision must be >= 64, got {args.precision}")
    if args.guard_vertices <= 0 or args.guard_clauses <= 0:
        raise DomainError("guards must be positive")


def _json_float(x: float) -> float | str:
    """x, or "inf" / "-inf" as the text form prints it: JSON has no infinity."""
    return x if math.isfinite(x) else str(x)


def _emit(args, output):
    text = output if isinstance(output, str) else json.dumps(output, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


# Each cmd_* returns (exit code, output): a str, or an object to print as JSON.

def cmd_table(args):
    if not 2 <= args.kmin <= args.kmax:
        raise DomainError(f"need 2 <= kmin <= kmax, got {args.kmin}..{args.kmax}")
    _printable_f_mt(args.kmax)
    rows = [(k, bounds_mod.f_lll(k),
             hj_family.shearer_upper_bound(k, args.precision), bounds_mod.f_mt(k))
            for k in range(args.kmin, args.kmax + 1)]
    if args.format == "json":
        return 0, [{"k": k, "F_LLL": a, "F_Shearer": b, "F_MT": c} for k, a, b, c in rows]
    return 0, "".join(f"{k}\t{a}\t{b}\t{c}\n" for k, a, b, c in rows)


def cmd_construct(args):
    formula = sat_model.build_extremal_formula(args.k, args.L, args.r,
                                               clause_guard=args.guard_clauses)
    return 0, sat_model.dimacs_export(formula)


def _read_input(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"cannot read {path}: {exc.reason} at byte {exc.start}") from None


def _load_formula(path: str, guard_clauses: int):
    # Checked before any work that grows with these counts: mt draws every
    # declared variable, and both graphs have a vertex per clause.
    formula = sat_model.dimacs_import(_read_input(path))
    for count, noun in ((formula.variable_count, "variables"),
                        (formula.clause_count, "clauses")):
        if count > guard_clauses:
            raise SizeGuardError(f"formula declares {count} {noun}, guard is {guard_clauses}")
    return formula


def _check_vertex_guard(n: int, guard_vertices: int):
    # Called before the graph is built, so the guard bounds work, not only size.
    if n > guard_vertices:
        raise SizeGuardError(f"graph has {n} vertices, guard is {guard_vertices}")


_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")


def _probability(entry) -> Fraction:
    # Fraction expands a decimal exponent exactly, so bound it by the same
    # int-string limit that already refuses long numerators.
    if isinstance(entry, str):
        exponent = _DECIMAL_EXPONENT.search(entry)
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent.group(1))) > limit:
            raise ValueError(f"probability exponent above {limit} in magnitude")
    elif type(entry) is bool:  # Fraction(True) is 1
        raise ValueError(f"{entry!r} is not a probability")
    return Fraction(entry)


def _probabilities(entries) -> list[Fraction]:
    # Graph files repeat a few strings, so each distinct one is parsed once;
    # in order, so the first bad entry raises as it would alone.
    parsed: dict[str, Fraction] = {}
    probs = []
    for entry in entries:
        if type(entry) is str:
            if entry not in parsed:
                parsed[entry] = _probability(entry)
            probs.append(parsed[entry])
        else:
            probs.append(_probability(entry))
    return probs


def _check_printable(what: str, *values):
    # Refused as a size guard where str() would raise ValueError (the int-string limit).
    for value in map(Fraction, values):
        if not (printable(value.numerator) and printable(value.denominator)):
            limit = sys.get_int_max_str_digits()
            raise SizeGuardError(f"{what} has more than {limit} digits, the int-string limit")


def _printable_f_mt(k: int) -> int:
    # k >= 4 * limit gives F_MT(k) >= 10^limit: F_MT(k) + 1 > (2^k - 1)/(ek) > 2^k/(3k) for k >= 4,
    # which rises in k and at k = 4L is 16^L/(12L) >= 10^L for L >= 11; a nonzero limit is >= 640.
    limit = sys.get_int_max_str_digits()
    mt = 10 ** limit if limit and k >= 4 * limit else bounds_mod.f_mt(k)
    _check_printable(f"F_MT({k}) + 1", mt + 1)
    return mt


def _graph_from_json(path: str, guard_vertices: int):
    text = _read_input(path)
    try:
        data = json.loads(text)
        n = data["n"]
        if type(n) is not int or n < 0:
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        _check_vertex_guard(n, guard_vertices)
        # An object would give its keys, a string its characters, so edges and p are arrays.
        if type(data["edges"]) is not list:
            raise ValueError(f"edges must be an array, got {type(data['edges']).__name__}")
        edges = [tuple(e) for e in data["edges"]]
        if ("true" in text or "false" in text) and bool in map(type, chain.from_iterable(edges)):
            raise ValueError("edge endpoints must be integers, got a bool")  # not 1 or 0
        graph = DepGraph.from_edges(n, edges)
        if type(data["p"]) is not list:
            raise ValueError(f"p must be an array, got {type(data['p']).__name__}")
        p = _probabilities(data["p"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"malformed graph JSON in {path}: {exc!r}") from None
    return graph, p


def cmd_check_shearer(args):
    if args.cnf:
        formula = _load_formula(args.cnf, args.guard_clauses)
        _check_vertex_guard(formula.clause_count, args.guard_vertices)
        events = events_from_formula(formula)
        graph = lopsidependency_graph(events)
        p = [Fraction(1, 2 ** formula.width)] * graph.n
    else:
        graph, p = _graph_from_json(args.graph, args.guard_vertices)
    verdict = shearer.shearer_check(graph, p)
    if verdict.witness_value is not None:
        _check_printable("Q", verdict.witness_value)
    if args.format == "json":
        return 0, {"satisfied": verdict.satisfied,
                   "witness": list(verdict.witness) if verdict.witness is not None else None,
                   "witness_value": str(verdict.witness_value)
                   if verdict.witness_value is not None else None}
    if verdict.satisfied:
        return 0, "SATISFIED\n"
    witness = "{" + ",".join(map(str, verdict.witness)) + "}"
    return 0, f"VIOLATED witness={witness} Q={verdict.witness_value}\n"


def cmd_hj(args):
    # H_size's guard bounds the recurrence but leaves k free at j = 1, where, in lowest
    # terms, r_1 = (2^k - 1)/2^k and s_1 = odd/2^(k(L-1)-1) print iff their denominators
    # do (never past 4 * limit bits).  |H'_j| <= |H_j|, so build_Hprime's guard passes.
    guard, what = args.guard_vertices, f"s_{args.j} or r_{args.j}"
    hj_family.H_size(False, args.j, args.k, args.L, guard)
    if args.j == 1:
        cap = 4 * sys.get_int_max_str_digits()
        _check_printable(what, 1 << min(args.k, cap), 1 << min(args.k * (args.L - 1) - 1, cap))
    s, r = hj_family.recurrence_sr(args.j, args.k, args.L)
    s_rec, r_rec = s[args.j], r[args.j]
    _check_printable(what, s_rec, r_rec)
    h = hj_family.build_H(args.j, args.k, args.L, vertex_guard=guard)
    hp = hj_family.build_Hprime(args.j, args.k, args.L, vertex_guard=guard)
    p = Fraction(1, 2 ** args.k)
    s_bf = shearer.independence_polynomial(h.graph, [p] * h.graph.n)
    r_bf = shearer.independence_polynomial(hp.graph, [p] * hp.graph.n)
    _check_printable(what, s_bf, r_bf)
    agree = (s_rec == s_bf) and (r_rec == r_bf)
    code = 0 if agree else EXIT_CERTIFICATION
    if args.format == "json":
        return code, {"j": args.j, "k": args.k, "L": args.L,
                      "s_recurrence": str(s_rec), "s_bruteforce": str(s_bf),
                      "r_recurrence": str(r_rec), "r_bruteforce": str(r_bf),
                      "agree": agree}
    flag = "AGREE" if agree else "DISAGREE"
    return code, (f"s_{args.j} = {s_rec} (recurrence) = {s_bf} (brute force)\n"
                  f"r_{args.j} = {r_rec} (recurrence) = {r_bf} (brute force)\n"
                  f"{flag}\n")


def cmd_fixedpoint(args):
    if args.max_trajectory < 0:
        raise DomainError(f"max_trajectory must be >= 0, got {args.max_trajectory}")
    report = hj_family.fixed_point_iteration(args.k, args.L, args.max_iter, args.precision)
    v = report.verdict
    if args.format == "json":
        trajectory = report.trajectory[:args.max_trajectory]
        return 0, {"parameters": {"k": args.k, "L": args.L, "precision": args.precision,
                                  "max_iter": args.max_iter},
                   "threshold": _json_float(report.threshold),
                   "trajectory": list(map(_json_float, trajectory)),
                   "trajectory_truncated": len(trajectory) < len(report.trajectory),
                   "verdict": {"kind": v.kind, "step": v.step, "value": _json_float(v.value)}}
    return 0, (f"k={args.k} L={args.L} verdict={v.kind} step={v.step} "
               f"value={v.value} threshold={report.threshold}\n")


def cmd_mt(args):
    formula = _load_formula(args.cnf, args.guard_clauses)
    events = events_from_formula(formula)
    rule = moser_tardos.SelectionRule(args.rule)
    m = formula.variable_count
    values, stats = moser_tardos.run_mt(events, m, rule, args.seed, args.max_steps)
    satisfies = formula.is_satisfied_by(values) if stats.terminated else False
    if args.format == "json":
        return 0, {"stats": {"total_resamples": stats.steps,
                             "per_event_resamples": list(stats.per_event_resamples),
                             "terminated": stats.terminated, "steps": stats.steps,
                             "seed": args.seed, "max_steps": args.max_steps, "rule": rule.value},
                   "satisfies_formula": satisfies,
                   "assignment": dict(zip(map(str, range(1, m + 1)), map(bool, values)))
                   if stats.terminated else None}
    lines = [f"terminated={stats.terminated} resamples={stats.steps} "
             f"satisfies={satisfies}"]
    if stats.terminated:
        lines.append(_assignment_line(values))
    return 0, "\n".join(lines) + "\n"


def _assignment_line(values: bytes) -> str:
    """"1=T 2=F ...", written by byte columns.

    The variables v of d digits, lo = 10^(d-1) <= v < hi, take records
    "v=X " of d + 3 bytes, so each record offset is one strided slice: digit
    i of v, from the right, at offset d-1-i, runs through the cycle
    "0"*10^i ... "9"*10^i entered at lo mod 10^(i+1); "=", the letter and
    the space follow.
    """
    letters, line, lo, d = values.translate(_LETTERS), bytearray(), 1, 1
    while lo <= len(values):
        hi = min(10 * lo, len(values) + 1)
        n, size = hi - lo, d + 3
        group = bytearray(b"=? ".rjust(size)) * n
        group[d + 1::size] = letters[lo - 1:hi - 1]
        for i in range(d):
            cycle = b"".join(bytes([c]) * 10 ** i for c in b"0123456789")
            start = lo % len(cycle)
            group[d - 1 - i::size] = (cycle * ((start + n) // len(cycle) + 1))[start:start + n]
        line += group
        lo, d = hi, d + 1
    return line[:-1].decode()


def cmd_bounds(args):
    k = args.k
    mt = _printable_f_mt(k)
    lll = bounds_mod.f_lll(k)
    holds, rhs = bounds_mod.gap_inequality(k, mt - lll)
    alpha_results = {}
    for L in (mt, mt + 1):
        try:
            alpha_results[L] = {"alpha": bounds_mod.harris_ksat_alpha(k, L, args.precision),
                                "satisfied": L <= mt}  # proof: bounds.harris_ksat_alpha
        except DomainError:
            alpha_results[L] = None
    if args.format == "json":
        return 0, {"k": k, "F_LLL": lll, "F_MT": mt,
                   "gap_inequality": {"criterion": "gap_inequality", "satisfied": holds,
                                      "parameters": {"k": k}, "witness": None,
                                      "details": {"lhs": mt - lll, "rhs": _json_float(rhs)}},
                   "harris_alpha": {str(L): v for L, v in alpha_results.items()}}
    lines = [f"F_LLL({k}) = {lll}", f"F_MT({k}) = {mt}",
             f"gap_inequality: {holds} (lhs={mt - lll} rhs={rhs:.6f})"]
    for L, value in alpha_results.items():
        if value is None:
            lines.append(f"harris_alpha(L={L}): out of domain")
        else:
            lines.append(f"harris_alpha(L={L}): alpha={value['alpha']:.8f} "
                         f"satisfied={value['satisfied']}")
    return 0, "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    # The shared options are declared once and given to the root parser and to
    # every subcommand.  Nothing defaults (SUPPRESS), so a flag reaches args only
    # when given, and one given after the subcommand overrides one before it.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--precision", type=int,
                        help=f"working precision in bits (default {DEFAULT_PRECISION})")
    common.add_argument("--format", choices=("tsv", "json"))
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--guard-vertices", type=int)
    common.add_argument("--guard-clauses", type=int)

    parser = argparse.ArgumentParser(
        prog="satlll", parents=[common],
        description="Convergence-criteria comparison for bounded-occurrence k-SAT")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    p_table = command("table", cmd_table, "emit k, F_LLL, F_Shearer, F_MT rows")
    p_table.add_argument("kmin", type=int)
    p_table.add_argument("kmax", type=int)

    p_construct = command("construct", cmd_construct, "build the extremal formula as DIMACS")
    p_construct.add_argument("--k", type=int, required=True)
    p_construct.add_argument("--L", type=int, required=True)
    p_construct.add_argument("--r", type=int, required=True)

    p_check = command("check-shearer", cmd_check_shearer,
                      "Shearer verdict for a formula or graph")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--cnf", help="DIMACS file; p = 2^-k on the lopsidependency graph")
    group.add_argument("--graph", help="JSON file with n, edges, p")

    p_hj = command("hj", cmd_hj, "s_j, r_j from recurrence vs brute force")
    p_hj.add_argument("--j", type=int, required=True)
    p_hj.add_argument("--k", type=int, required=True)
    p_hj.add_argument("--L", type=int, required=True)

    p_fp = command("fixedpoint", cmd_fixedpoint, "certified fixed-point iteration report")
    p_fp.add_argument("--k", type=int, required=True)
    p_fp.add_argument("--L", type=int, required=True)
    p_fp.add_argument("--max-iter", type=int, default=100_000)
    p_fp.add_argument("--max-trajectory", type=int, default=1000,
                      help="cap on trajectory entries in JSON output")

    p_mt = command("mt", cmd_mt, "run the resampling algorithm on a DIMACS file")
    p_mt.add_argument("--cnf", required=True)
    p_mt.add_argument("--seed", type=int, default=0)
    p_mt.add_argument("--rule", default="first-index",
                      choices=[r.value for r in moser_tardos.SelectionRule])
    p_mt.add_argument("--max-steps", type=int, default=1_000_000)

    p_bounds = command("bounds", cmd_bounds, "closed-form bounds and the gap inequality")
    p_bounds.add_argument("--k", type=int, required=True)

    return parser


# Pure declaration, so one parser serves every call; settings are read per call.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        _resolve_settings(args)
        code, output = args.func(args)
        _emit(args, output)
        return code
    except (SatLllError, RecursionError) as exc:
        retry = getattr(exc, "retry_precision", None)
        hint = f" (retry with --precision {retry})" if retry else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
