"""The benchmark's three workloads.

Each workload is built in two steps.  The constructor makes the inputs
from the workload seed and writes them under ``workdir``; that is the
set-up a user pays.  ``ops()`` then derives, outside any timed path, the
expected answer of every operation by the independent routes in
``refcheck`` and returns the operations with their checks.

An operation is a ``satlll`` argv run in-process through ``cli.main``, or
(for graph building, which no CLI command reaches at these sizes) a call
into the library.  A check takes (exit code, stdout, return value) and
returns a problem description, or None when the output is right.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import refcheck

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
DEFAULT_SEED = 1


@dataclass
class Op:
    name: str
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], object]] = None
    check: Callable[[int, str, object], Optional[str]] = lambda rc, out, value: None


def _expect_rc0(check):
    def wrapped(rc, out, value):
        if rc != 0:
            return f"exit code {rc}"
        return check(out, value)
    return wrapped


# --- criteria_table ----------------------------------------------------------

class CriteriaTable:
    """The F_LLL / F_Shearer / F_MT table and fixed-point verdicts, k = 5..20.

    The seed only fixes the order of the operations.
    """

    K_RANGE = range(5, 21)

    def __init__(self, seed: int, workdir: Path):
        self.table = {int(k): row for k, row in REFERENCE["table"].items()}
        specs = []
        for k in self.K_RANGE:
            lll, sh, mt = self.table[k]
            specs += [("table", k, None), ("bounds", k, None)]
            specs += [("fixedpoint", k, L) for L in (lll, sh, sh + 1, mt, mt + 1)]
        random.Random(seed).shuffle(specs)
        self.specs = specs
        self.warmup = ["bounds", "--k", "5"]

    def ops(self) -> list[Op]:
        for k in self.K_RANGE:
            lll, _, mt = self.table[k]
            if (refcheck.f_lll(k), refcheck.f_mt(k)) != (lll, mt):
                raise RuntimeError(f"reference table row k={k} contradicts the closed forms")
        steps = {}
        ops = []
        for command, k, L in self.specs:
            lll, sh, mt = self.table[k]
            if command == "table":
                ops.append(Op(f"table {k} {k}", ["table", str(k), str(k)],
                              check=self._check_table(k)))
            elif command == "bounds":
                ops.append(Op(f"bounds --k {k}", ["bounds", "--k", str(k)],
                              check=self._check_bounds(k)))
            else:
                if L > sh and (k, L) not in steps:
                    steps[k, L] = refcheck.violation_step(k, L)
                ops.append(Op(f"fixedpoint --k {k} --L {L}",
                              ["fixedpoint", "--k", str(k), "--L", str(L)],
                              check=self._check_fixedpoint(L <= sh, steps.get((k, L)))))
        return ops

    def _check_table(self, k):
        expected = "\t".join(map(str, (k, *self.table[k]))) + "\n"
        return _expect_rc0(lambda out, _: None if out == expected
                           else f"row {out!r}, expected {expected!r}")

    def _check_bounds(self, k):
        lll, _, mt = self.table[k]
        alpha_re = re.compile(r"harris_alpha\(L=(\d+)\): alpha=([0-9.]+) satisfied=(True|False)$")

        def check(out, _):
            lines = out.splitlines()
            if len(lines) != 5:
                return f"expected 5 lines, got {out!r}"
            if lines[0] != f"F_LLL({k}) = {lll}" or lines[1] != f"F_MT({k}) = {mt}":
                return f"bounds {lines[:2]}, expected F_LLL={lll} F_MT={mt}"
            if not lines[2].startswith(f"gap_inequality: {refcheck.gap_holds(k)} "):
                return f"gap verdict {lines[2]!r}"
            # Harris alpha holds at F_MT and fails at F_MT + 1.
            for line, L, holds in ((lines[3], mt, True), (lines[4], mt + 1, False)):
                match = alpha_re.match(line)
                if not match or int(match[1]) != L or match[3] != str(holds):
                    return f"harris line {line!r}, expected L={L} satisfied={holds}"
                alpha = (((2 ** k - 1) / (k * L)) ** (1 / (k - 1)) - 1) / L
                if abs(float(match[2]) - alpha) > 2e-8:
                    return f"harris alpha {match[2]} at L={L}, expected {alpha:.8f}"
            return None
        return _expect_rc0(check)

    @staticmethod
    def _check_fixedpoint(converges: bool, step: Optional[int]):
        # The converged step is a tolerance artifact and is not compared.
        def check(out, _):
            fields = dict(f.split("=", 1) for f in out.split())
            if converges:
                return None if fields.get("verdict") == "converged" else f"expected converged: {out!r}"
            if fields.get("verdict") != "violated" or fields.get("step") != str(step):
                return f"expected violated at step {step}: {out!r}"
            return None
        return _expect_rc0(check)


# --- shearer_verdicts --------------------------------------------------------

@dataclass
class _ShearerCase:
    n: int
    p: Fraction
    satisfied: bool
    counts: refcheck.IndependenceCounts


def _shearer_case(n, edges, p) -> _ShearerCase:
    nbr = refcheck.neighbour_masks(n, edges)
    counts = refcheck.IndependenceCounts(nbr)
    return _ShearerCase(n, p, refcheck.chain_satisfied(counts, n, p), counts)


def _check_shearer(case: _ShearerCase):
    verdict_re = re.compile(r"VIOLATED witness=\{([0-9,]*)\} Q=(-?[0-9/]+)\n$")

    def check(out, _):
        if case.satisfied:
            return None if out == "SATISFIED\n" else f"expected SATISFIED, got {out!r}"
        match = verdict_re.match(out)
        if not match:
            return f"expected VIOLATED, got {out!r}"
        witness = tuple(int(v) for v in match[1].split(",") if v)
        q = refcheck.q_value(case.counts, case.n, witness, case.p)
        if q is None:
            return f"witness {witness} is not an independent set"
        if q > 0 or q != Fraction(match[2]):
            return f"witness {witness} has Q={q}, printed {match[2]}"
        # The first failing set in lexicographic order is empty iff Z_G(-p) <= 0.
        if (witness == ()) != (case.counts.z((1 << case.n) - 1, case.p) <= 0):
            return f"witness {witness} is not the lexicographically first"
        return None
    return _expect_rc0(check)


class ShearerVerdicts:
    """check-shearer on seeded random graphs near the Shearer boundary,
    on small extremal formulas, plus a few hj recurrence checks.

    Graph i has one of three verdict kinds, i % 3: satisfied (every
    independent set enumerated), violated with an empty witness (stops at
    once), violated with a non-empty witness (the graph is two components,
    each past its own boundary).  It has n = 10 + (i // 3) % 15 vertices,
    except that every other satisfied graph has 24, so that op_p90_ms falls
    among those checks on every seed.  p is uniform, within 5% of the
    boundary.
    """

    GRAPHS = 96
    FORMULAS = ((3, 3, 4), (3, 3, 5), (3, 3, 6), (3, 2, 10), (4, 3, 4), (2, 2, 12))
    HJ = ((1, 2, 2), (2, 2, 2), (3, 2, 2), (4, 2, 2), (2, 3, 2), (2, 2, 3))

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.cases: dict[str, _ShearerCase] = {}
        entries = []
        for i in range(self.GRAPHS):
            n = 24 if i % 6 == 0 else 10 + (i // 3) % 15
            n, edges, p, case = self._graph(rng, n, i % 3)
            path = workdir / f"graph{i:03d}.json"
            path.write_text(json.dumps({"n": n, "edges": edges, "p": [str(p)] * n}))
            self.cases[str(path)] = case
            entries.append(("graph", str(path)))
        self.formulas = {}
        for k, L, r in self.FORMULAS:
            m, clauses = refcheck.extremal_clauses(k, L, r)
            path = workdir / f"extremal_{k}_{L}_{r}.cnf"
            path.write_text(refcheck.dimacs_text(m, clauses))
            self.formulas[str(path)] = (k, clauses)
            entries.append(("cnf", str(path)))
        entries += [("hj", spec) for spec in self.HJ]
        rng.shuffle(entries)
        self.entries = entries
        warmup = workdir / "warmup.json"
        warmup.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
                                      "p": ["1/8"] * 4}))
        self.warmup = ["check-shearer", "--graph", str(warmup)]

    @staticmethod
    def _typical_count(n: int) -> float:
        """Median number of independent sets of G(n, 0.35), fitted for n = 10..24."""
        return 83 * math.exp(0.235 * (n - 10))

    def _random_part(self, rng: random.Random, vertices: list[int], n: int):
        """Edges of G(|vertices|, 0.35) on the given labels, redrawn until the
        number of independent sets is within 3% (or 2) of the typical one; a
        satisfied check enumerates them all, so this fixes its cost."""
        target = self._typical_count(len(vertices))
        mask = sum(1 << v for v in vertices)
        while True:
            edges = [(min(a, b), max(a, b)) for i, a in enumerate(vertices)
                     for b in vertices[i + 1:] if rng.random() < 0.35]
            nbr = refcheck.neighbour_masks(n, edges)
            if abs(refcheck.independent_set_count(nbr, mask) - target) <= max(0.03 * target, 2):
                return edges, refcheck.IndependenceCounts(nbr).poly(mask)

    def _graph(self, rng: random.Random, n: int, kind: int):
        labels = list(range(n))
        rng.shuffle(labels)
        while True:
            if kind == 2:
                parts = [self._random_part(rng, half, n) for half in (labels[:n // 2], labels[n // 2:])]
                edges = parts[0][0] + parts[1][0]
                base = max(refcheck.first_root(poly) for _, poly in parts)
            else:
                edges, poly = self._random_part(rng, labels, n)
                base = refcheck.first_root(poly)
            factor = 1 - rng.uniform(0.002, 0.05) if kind == 0 else 1 + rng.uniform(0.002, 0.05)
            p = Fraction(round(base * factor * 2 ** 20), 2 ** 20)
            case = _shearer_case(n, edges, p)
            z_full = case.counts.z((1 << n) - 1, p)
            if ((kind == 0 and case.satisfied)
                    or (kind == 1 and z_full <= 0)
                    or (kind == 2 and not case.satisfied and z_full > 0)):
                return n, sorted(edges), p, case

    def ops(self) -> list[Op]:
        ops = []
        for kind, arg in self.entries:
            if kind == "graph":
                ops.append(Op(f"check-shearer --graph {Path(arg).name}",
                              ["check-shearer", "--graph", arg],
                              check=_check_shearer(self.cases[arg])))
            elif kind == "cnf":
                k, clauses = self.formulas[arg]
                lopsided, _ = refcheck.graph_edges(clauses)
                case = _shearer_case(len(clauses), lopsided, Fraction(1, 2 ** k))
                ops.append(Op(f"check-shearer --cnf {Path(arg).name}",
                              ["check-shearer", "--cnf", arg], check=_check_shearer(case)))
            else:
                j, k, L = arg
                ops.append(Op(f"hj --j {j} --k {k} --L {L}",
                              ["hj", "--j", str(j), "--k", str(k), "--L", str(L)],
                              check=self._check_hj(j, k, L)))
        return ops

    @staticmethod
    def _check_hj(j, k, L):
        from satlll import hj_family
        p = Fraction(1, 2 ** k)
        values = []
        for graph in (hj_family.build_H(j, k, L).graph, hj_family.build_Hprime(j, k, L).graph):
            nbr = refcheck.neighbour_masks(graph.n, graph.edges())
            values.append(refcheck.IndependenceCounts(nbr).z((1 << graph.n) - 1, p))
        s, r = values
        expected = (f"s_{j} = {s} (recurrence) = {s} (brute force)\n"
                    f"r_{j} = {r} (recurrence) = {r} (brute force)\nAGREE\n")
        return _expect_rc0(lambda out, _: None if out == expected
                           else f"expected {expected!r}, got {out!r}")


# --- formula_resample --------------------------------------------------------

class FormulaResample:
    """Resampling runs, extremal constructions and graph building.

    mt runs on 124 seeded random formulas, each with one rule and one run
    seed, at 0.6 clauses per variable for 3-SAT and 1.2 for 4-SAT: 98 with
    300 clauses (3-SAT and 4-SAT alternating), 24 with 600 and 2 with 1200
    (3-SAT), so most runs take many cheap steps.  Two runs on 4200- and
    8400-clause extremal formulas take few steps that each rescan every
    clause.  Three construct runs export the extremal formula, and two
    library calls build both graphs of formulas with 400 and 1000 clauses.
    The size groups are large enough that op_p50_ms falls among the
    300-clause runs and op_p90_ms among the 600-clause runs on every seed.
    """

    RULES = ("first-index", "uniform-random", "lowest-probability")
    MT_SIZES = (300,) * 98 + (600,) * 24 + (1200,) * 2
    RATIO = {3: 0.6, 4: 1.2}
    EXTREMAL_MT = ((9, 22, 100, 0), (9, 22, 200, 1))
    CONSTRUCT = ((9, 22, 100), (9, 22, 150), (9, 22, 200))
    GRAPH_SIZES = (400, 1000)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.inputs: dict[str, tuple[int, list[list[int]]]] = {}
        entries = []
        for i, size in enumerate(self.MT_SIZES):
            k = 3 + i % 2 if size == 300 else 3
            path = self._write(workdir / f"random{i:03d}.cnf", *self._random(rng, k, size))
            entries.append(("mt", (path, self.RULES[i % 3], rng.randrange(10 ** 6))))
        for k, L, r, run_seed in self.EXTREMAL_MT:
            path = self._write(workdir / f"extremal_{k}_{L}_{r}.cnf",
                               *refcheck.extremal_clauses(k, L, r))
            entries.append(("mt", (path, "first-index", run_seed)))
        entries += [("construct", spec) for spec in self.CONSTRUCT]
        for size in self.GRAPH_SIZES:
            path = self._write(workdir / f"graph{size}.cnf", *self._random(rng, 3, size))
            entries.append(("graphs", path))
        rng.shuffle(entries)
        self.entries = entries
        warmup = self._write(workdir / "warmup.cnf", *refcheck.extremal_clauses(3, 2, 4))
        self.warmup = ["mt", "--cnf", warmup]

    def _random(self, rng: random.Random, k: int, size: int):
        m = round(size / self.RATIO[k])
        return m, [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, m + 1), k)]
                   for _ in range(size)]

    def _write(self, path: Path, m: int, clauses) -> str:
        path.write_text(refcheck.dimacs_text(m, clauses))
        self.inputs[str(path)] = (m, clauses)
        return str(path)

    def ops(self) -> list[Op]:
        from satlll import events_graph, sat_model
        ops = []
        for kind, arg in self.entries:
            if kind == "mt":
                path, rule, run_seed = arg
                ops.append(Op(f"mt --cnf {Path(path).name} --rule {rule} --seed {run_seed}",
                              ["mt", "--cnf", path, "--rule", rule, "--seed", str(run_seed)],
                              check=self._check_mt(path, rule, run_seed)))
            elif kind == "construct":
                k, L, r = arg
                expected = refcheck.dimacs_text(*refcheck.extremal_clauses(k, L, r))
                ops.append(Op(f"construct --k {k} --L {L} --r {r}",
                              ["construct", "--k", str(k), "--L", str(L), "--r", str(r)],
                              check=_expect_rc0(lambda out, _, e=expected: None if out == e
                                                else "construct output differs")))
            else:
                m, clauses = self.inputs[arg]
                formula = sat_model.dimacs_import(Path(arg).read_text())

                def build(formula=formula):
                    events = events_graph.events_from_formula(formula)
                    return (events_graph.lopsidependency_graph(events),
                            events_graph.dependency_graph(events))
                ops.append(Op(f"graphs {Path(arg).name}", call=build,
                              check=self._check_graphs(clauses)))
        return ops

    def _check_mt(self, path, rule, run_seed):
        m, clauses = self.inputs[path]
        text = Path(path).read_bytes()
        key = f"{hashlib.sha256(text).hexdigest()}:{rule}:{run_seed}"
        digest = REFERENCE["mt_digests"].get(key)

        def check(out, _):
            lines = out.splitlines()
            if not re.fullmatch(r"terminated=True resamples=\d+ satisfies=True", lines[0]):
                return f"run did not end satisfied: {lines[0]!r}"
            values = dict(tok.split("=") for tok in lines[1].split()) if len(lines) == 2 else {}
            assignment = {int(v): t == "T" for v, t in values.items()}
            if sorted(assignment) != list(range(1, m + 1)) or not refcheck.satisfies(clauses, assignment):
                return "printed assignment does not satisfy the formula"
            if digest is not None and hashlib.sha256(out.encode()).hexdigest() != digest:
                return "stdout differs from the recorded trace"
            return None
        return _expect_rc0(check)

    @staticmethod
    def _check_graphs(clauses):
        lopsided, dependent = refcheck.graph_edges(clauses)

        def check(rc, out, value):
            for graph, expected, label in zip(value, (lopsided, dependent),
                                              ("lopsidependency", "dependency")):
                edges = {(u, v) for u in range(graph.n) for v in graph.adjacency[u] if u < v}
                if graph.n != len(clauses) or edges != expected:
                    return f"{label} graph edges differ"
            return None
        return check


WORKLOADS = {"criteria_table": CriteriaTable,
             "shearer_verdicts": ShearerVerdicts,
             "formula_resample": FormulaResample}
