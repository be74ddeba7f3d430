"""Command-line surface: bound tables, constructions, checks, and runs.

Every subcommand has a TSV/text rendering and a JSON mirror (--format).
Exit codes are distinct per error class: 0 success, 2 usage (argparse),
3 domain error, 4 size-guard violation, 5 certification failure,
6 DIMACS parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import bounds as bounds_mod
from . import hj_family, moser_tardos, sat_model, shearer
from .certified import DEFAULT_PRECISION
from .errors import (CertificationError, DimacsError, DomainError,
                     SatLllError, SizeGuardError)
from .events_graph import DepGraph, events_from_formula, lopsidependency_graph

EXIT_DOMAIN = 3
EXIT_GUARD = 4
EXIT_CERTIFICATION = 5
EXIT_DIMACS = 6


@dataclass
class Config:
    precision: int = DEFAULT_PRECISION
    guard_vertices: int = 40
    guard_clauses: int = 200_000
    output_format: str = "tsv"

    def __post_init__(self):
        if self.precision < 64:
            raise DomainError(f"precision must be >= 64, got {self.precision}")
        if self.guard_vertices <= 0 or self.guard_clauses <= 0:
            raise DomainError("guards must be positive")


def _env_int(parser: argparse.ArgumentParser, name: str, fallback: int) -> int:
    value = os.environ.get(name)
    if not value:
        return fallback
    try:
        return int(value)
    except ValueError:
        parser.error(f"{name} must be an integer, got {value!r}")


def _emit(args, text: str):
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def cmd_table(args, config: Config) -> int:
    if not 2 <= args.kmin <= args.kmax:
        raise DomainError(f"need 2 <= kmin <= kmax, got {args.kmin}..{args.kmax}")
    rows = [(k, bounds_mod.f_lll(k, config.precision),
             hj_family.shearer_upper_bound(k, config.precision), bounds_mod.f_mt(k))
            for k in range(args.kmin, args.kmax + 1)]
    if config.output_format == "json":
        payload = [{"k": k, "F_LLL": a, "F_Shearer": b, "F_MT": c} for k, a, b, c in rows]
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(args, "".join(f"{k}\t{a}\t{b}\t{c}\n" for k, a, b, c in rows))
    return 0


def cmd_construct(args, config: Config) -> int:
    formula, _ = sat_model.build_extremal_formula(args.k, args.L, args.r,
                                                  clause_guard=config.guard_clauses)
    text = sat_model.dimacs_export(formula)
    _emit(args, text)
    return 0


def _read_input(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"cannot read {path}: {exc.reason} at byte {exc.start}") from None


def _load_formula(path: str, config: Config):
    # Checked before any work that grows with these counts: mt draws every
    # declared variable, and both graphs have a vertex per clause.
    formula = sat_model.dimacs_import(_read_input(path))
    for count, noun in ((formula.variable_count, "variables"),
                        (formula.clause_count, "clauses")):
        if count > config.guard_clauses:
            raise SizeGuardError(f"formula declares {count} {noun}, "
                                 f"guard is {config.guard_clauses}")
    return formula


def _check_vertex_guard(n: int, config: Config):
    # Called before the graph is built, so the guard bounds work, not only size.
    if n > config.guard_vertices:
        raise SizeGuardError(f"graph has {n} vertices, guard is {config.guard_vertices}")


_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")


def _probability(entry) -> Fraction:
    # Fraction expands a decimal exponent exactly, so bound it by the same
    # int-string limit that already refuses long numerators.
    if isinstance(entry, str):
        exponent = _DECIMAL_EXPONENT.search(entry)
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent.group(1))) > limit:
            raise ValueError(f"probability exponent above {limit} in magnitude")
    return Fraction(entry)


def _graph_from_json(path: str, config: Config):
    text = _read_input(path)
    try:
        data = json.loads(text)
        n = data["n"]
        if type(n) is not int or n < 0:
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        _check_vertex_guard(n, config)
        graph = DepGraph.from_edges(n, [tuple(e) for e in data["edges"]])
        p = [_probability(x) for x in data["p"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"malformed graph JSON in {path}: {exc!r}") from None
    return graph, p


def cmd_check_shearer(args, config: Config) -> int:
    if args.cnf:
        formula = _load_formula(args.cnf, config)
        _check_vertex_guard(formula.clause_count, config)
        events = events_from_formula(formula)
        graph = lopsidependency_graph(events)
        p = [Fraction(1, 2 ** formula.width)] * graph.n
    else:
        graph, p = _graph_from_json(args.graph, config)
    verdict = shearer.shearer_check(graph, p, vertex_guard=config.guard_vertices)
    if config.output_format == "json":
        payload = {"satisfied": verdict.satisfied,
                   "witness": list(verdict.witness) if verdict.witness is not None else None,
                   "witness_value": str(verdict.witness_value)
                   if verdict.witness_value is not None else None}
        _emit(args, json.dumps(payload, indent=2) + "\n")
    elif verdict.satisfied:
        _emit(args, "SATISFIED\n")
    else:
        witness = "{" + ",".join(map(str, verdict.witness)) + "}"
        _emit(args, f"VIOLATED witness={witness} Q={verdict.witness_value}\n")
    return 0


def cmd_hj(args, config: Config) -> int:
    # The graphs are built first: their vertex guard also bounds the recurrence.
    h = hj_family.build_H(args.j, args.k, args.L, vertex_guard=config.guard_vertices)
    hp = hj_family.build_Hprime(args.j, args.k, args.L, vertex_guard=config.guard_vertices)
    state = hj_family.recurrence_sr(args.j, args.k, args.L)
    s_rec, r_rec = state.s(args.j), state.r(args.j)
    p = Fraction(1, 2 ** args.k)
    s_bf = shearer.independence_polynomial(h.graph, (), [p] * h.graph.n,
                                           vertex_guard=config.guard_vertices)
    r_bf = shearer.independence_polynomial(hp.graph, (), [p] * hp.graph.n,
                                           vertex_guard=config.guard_vertices)
    agree = (s_rec == s_bf) and (r_rec == r_bf)
    if config.output_format == "json":
        payload = {"j": args.j, "k": args.k, "L": args.L,
                   "s_recurrence": str(s_rec), "s_bruteforce": str(s_bf),
                   "r_recurrence": str(r_rec), "r_bruteforce": str(r_bf),
                   "agree": agree}
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        flag = "AGREE" if agree else "DISAGREE"
        _emit(args, f"s_{args.j} = {s_rec} (recurrence) = {s_bf} (brute force)\n"
                    f"r_{args.j} = {r_rec} (recurrence) = {r_bf} (brute force)\n"
                    f"{flag}\n")
    return 0 if agree else EXIT_CERTIFICATION


def cmd_fixedpoint(args, config: Config) -> int:
    report = hj_family.fixed_point_iteration(args.k, args.L, max_iter=args.max_iter,
                                             precision=config.precision)
    if config.output_format == "json":
        _emit(args, json.dumps(report.to_json_dict(max_trajectory=args.max_trajectory),
                               indent=2) + "\n")
    else:
        v = report.verdict
        _emit(args, f"k={report.k} L={report.L} verdict={v.kind} step={v.step} "
                    f"value={v.value} threshold={report.threshold}\n")
    return 0


def cmd_mt(args, config: Config) -> int:
    formula = _load_formula(args.cnf, config)
    events = events_from_formula(formula)
    rule = moser_tardos.SelectionRule(args.rule)
    assignment, stats = moser_tardos.run_mt(events, formula.variable_count,
                                            rule=rule, seed=args.seed,
                                            max_steps=args.max_steps)
    satisfies = formula.is_satisfied_by(assignment) if stats.terminated else False
    if config.output_format == "json":
        payload = {"stats": stats.to_json_dict(),
                   "satisfies_formula": satisfies,
                   "assignment": {str(v): assignment[v]
                                  for v in sorted(assignment)} if stats.terminated else None}
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [f"terminated={stats.terminated} resamples={stats.total_resamples} "
                 f"satisfies={satisfies}"]
        if stats.terminated:
            lines.append(" ".join(f"{v}={'T' if assignment[v] else 'F'}"
                                  for v in sorted(assignment)))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_bounds(args, config: Config) -> int:
    k = args.k
    lll = bounds_mod.f_lll(k, config.precision)
    mt = bounds_mod.f_mt(k)
    gap = bounds_mod.gap_inequality(k, config.precision)
    alpha_results = {}
    for L in (mt, mt + 1):
        try:
            alpha, satisfied = bounds_mod.harris_ksat_alpha(k, L, config.precision)
            alpha_results[L] = {"alpha": float(alpha), "satisfied": satisfied}
        except DomainError:
            alpha_results[L] = None
    if config.output_format == "json":
        payload = {"k": k, "F_LLL": lll, "F_MT": mt,
                   "gap_inequality": gap.to_json_dict(),
                   "harris_alpha": {str(L): v for L, v in alpha_results.items()}}
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [f"F_LLL({k}) = {lll}", f"F_MT({k}) = {mt}",
                 f"gap_inequality: {gap.satisfied} "
                 f"(lhs={gap.details['lhs']} rhs={gap.details['rhs']:.6f})"]
        for L, value in alpha_results.items():
            if value is None:
                lines.append(f"harris_alpha(L={L}): out of domain")
            else:
                lines.append(f"harris_alpha(L={L}): alpha={value['alpha']:.8f} "
                             f"satisfied={value['satisfied']}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _add_common_options(parser: argparse.ArgumentParser, suppress: bool):
    # The same flags are accepted before and after the subcommand; the
    # subcommand copies use SUPPRESS so they only override when given.
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--precision", type=int,
                        default=default(_env_int(parser, "SATLLL_PRECISION",
                                                 DEFAULT_PRECISION)),
                        help="working precision in bits (default 256)")
    parser.add_argument("--format", choices=("tsv", "json"), default=default("tsv"))
    parser.add_argument("--out", default=default(None),
                        help="output file (default stdout)")
    parser.add_argument("--guard-vertices", type=int,
                        default=default(_env_int(parser, "SATLLL_GUARD_VERTICES", 40)))
    parser.add_argument("--guard-clauses", type=int,
                        default=default(_env_int(parser, "SATLLL_GUARD_CLAUSES", 200_000)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satlll",
        description="Convergence-criteria comparison for bounded-occurrence k-SAT")
    _add_common_options(parser, suppress=False)

    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit k, F_LLL, F_Shearer, F_MT rows")
    p_table.add_argument("kmin", type=int)
    p_table.add_argument("kmax", type=int)
    _add_common_options(p_table, suppress=True)
    p_table.set_defaults(func=cmd_table)

    p_construct = sub.add_parser("construct", help="build the extremal formula as DIMACS")
    p_construct.add_argument("--k", type=int, required=True)
    p_construct.add_argument("--L", type=int, required=True)
    p_construct.add_argument("--r", type=int, required=True)
    _add_common_options(p_construct, suppress=True)
    p_construct.set_defaults(func=cmd_construct)

    p_check = sub.add_parser("check-shearer", help="Shearer verdict for a formula or graph")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--cnf", help="DIMACS file; p = 2^-k on the lopsidependency graph")
    group.add_argument("--graph", help="JSON file with n, edges, p")
    _add_common_options(p_check, suppress=True)
    p_check.set_defaults(func=cmd_check_shearer)

    p_hj = sub.add_parser("hj", help="s_j, r_j from recurrence vs brute force")
    p_hj.add_argument("--j", type=int, required=True)
    p_hj.add_argument("--k", type=int, required=True)
    p_hj.add_argument("--L", type=int, required=True)
    _add_common_options(p_hj, suppress=True)
    p_hj.set_defaults(func=cmd_hj)

    p_fp = sub.add_parser("fixedpoint", help="certified fixed-point iteration report")
    p_fp.add_argument("--k", type=int, required=True)
    p_fp.add_argument("--L", type=int, required=True)
    p_fp.add_argument("--max-iter", type=int, default=100_000)
    p_fp.add_argument("--max-trajectory", type=int, default=1000,
                      help="cap on trajectory entries in JSON output")
    _add_common_options(p_fp, suppress=True)
    p_fp.set_defaults(func=cmd_fixedpoint)

    p_mt = sub.add_parser("mt", help="run the resampling algorithm on a DIMACS file")
    p_mt.add_argument("--cnf", required=True)
    p_mt.add_argument("--seed", type=int, default=0)
    p_mt.add_argument("--rule", default="first-index",
                      choices=[r.value for r in moser_tardos.SelectionRule])
    p_mt.add_argument("--max-steps", type=int, default=1_000_000)
    _add_common_options(p_mt, suppress=True)
    p_mt.set_defaults(func=cmd_mt)

    p_bounds = sub.add_parser("bounds", help="closed-form bounds and the gap inequality")
    p_bounds.add_argument("--k", type=int, required=True)
    _add_common_options(p_bounds, suppress=True)
    p_bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = Config(precision=args.precision,
                        guard_vertices=args.guard_vertices,
                        guard_clauses=args.guard_clauses,
                        output_format=args.format)
        return args.func(args, config)
    except DimacsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMACS
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (DomainError, SatLllError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
