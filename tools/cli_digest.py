"""Print a sha256 digest of each run of a fixed satlll CLI corpus, and a total.

    python tools/cli_digest.py

Run it in two checkouts: equal totals mean byte-identical output, exit
codes and messages on the whole corpus.  Each command runs in-process
through ``satlll.cli.main`` of the checkout the script lies in.  Its inputs
are written to a temporary directory, which is the working directory while
the corpus runs, so every path in argv is relative and the digests do not
depend on where that directory is.  The SATLLL_* variables are cleared.

Per command, the digest is over (argv, exit code, stdout, stderr); the
total is over the printed lines.  The corpus: table 2 30; bounds for
k = 2..60; fixedpoint at F_Shearer, F_Shearer + 1, F_MT and F_MT + 1 for
k = 5..20, with --max-trajectory 100000 so that the json runs print whole
trajectories; these three again at --precision 128 and 512, and the
fixedpoint runs at --precision 64 and 80, where the loop rounds most
coarsely; check-shearer on seeded G(n, 0.35) graphs, n = 10..24, at
probabilities around the boundary, on such graphs, n = 10..20, whose p have
distinct prime denominators, on such graphs, n = 10..16, whose p repeat a
few strings, exponent strings and JSON floats, on four graph files that
exit 3 on a repeated bad entry (out of range, an int, "1/0", a list), on
the extremal formulas (3,3,4..9), (3,2,10), (2,2,12) and (9,22,100), and
with --guard-vertices 5000 on (3,3,40), (2,2,400) and (9,22,100);
construct to stdout at (2,2,0), (2,3,1), (12,3,5) and (9,22,200); hj on
small (j, k, L); mt under each rule on those formulas, on (9,22,200)
(67201 variables) and on (9,22,300) (100801 variables, constructed to a
file only), on a file without clauses (p cnf 5 0), on a
SATLIB-style file (c lines, a % ending) and on seeded random mixed-sign
3-SAT and 4-SAT files in the benchmark's shape (0.6 and 1.2 clauses per
variable, 300 and 600 clauses), two seeds each, and once with
--max-steps 3, which ends with terminated=False; mt and check-shearer on
eight small files that only the line reader reads: a clause split across
lines around a c line, two clauses on one line after a c header, lone-CR
line endings (which the CLI's text-mode read makes newlines), line ends
that only str.splitlines sees (vertical tab, form feed, 0x1c), and four
that exit 6 on the first of their errors (a repeated variable, named at
its clause's first line; a bad clause before a bad token on one line; an
empty clause before a bad token; an unterminated clause); table 200 200
and fixedpoint at F_Shearer(200), whose phi probes need more than 256
bits; inputs that exit with each of the codes 2 to 6; then fixedpoint at
L = 2 and 3 for k = 5..20, which converge, fixedpoint at F_Shearer + 1 for
k = 21..24, violated after 916 to 3353 steps, at --precision 64 and at the
default, table 640 640 and 1000 1000, whose brackets are decided on
enclosures of powers of up to a million bits, and fixedpoint at L = 2 for
k = 640 and 3000, whose phi_1 probes start Newton from a double far from
t = 1; then bounds for k = 2..60 at --precision 64
and 80, where the printed alpha rounds most coarsely, and bounds for
k = 1045..1048, where the gap's rhs first prints inf (at 1047); then
fixedpoint with --max-iter 0 and 5 at (9, 22) and (20, 19312), which end
inconclusive, and with --max-trajectory 0 and 2 at the violated (9, 22)
and the converged (5, 2); then check-shearer on two graph files whose
edges is an object and a string, which exit 3; then hj past the default
vertex guard, on H_3 at (3, 3) (292 vertices), H_2 at (4, 5) and, with
--format json given after the subcommand, H_2 at (5, 4); then the int-string
limit: hj at j = 1 with 4215-digit s_1 and r_1, (k, L) = (14000, 2) and
(7000, 3), and past it, (14300, 2) refused on r_1 and (7200, 3) on s_1;
check-shearer on two one-vertex graph files that exit 3, whose p is 4300
nines (named) and 4300 nines times 10^4300 (too long to name); and hj at
j = 1000000 under a guard of 1000000, whose count reads "more than".
F_Shearer is taken at 256 bits, the CLI's default precision.
Everything runs in tsv and in json.  The extremal files are read whole,
and the SATLIB-style file and the eight small files line by line.  The
SATLIB-style runs resample thousands of times, and seed 7 needs a second
batch of words for the initial draw on every small formula.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from satlll import cli  # noqa: E402
from satlll.bounds import f_mt  # noqa: E402
from satlll.hj_family import shearer_upper_bound  # noqa: E402

FORMULAS = [(3, 3, r) for r in range(4, 10)] + [(3, 2, 10), (2, 2, 12), (9, 22, 100)]
HJ = [(1, 2, 2), (2, 2, 2), (3, 2, 2), (1, 3, 2), (2, 3, 2), (2, 2, 3), (1, 4, 3)]
RULES = ("first-index", "uniform-random", "lowest-probability")
# Scales of the per-vertex probability 1 / (deg + 1), each jittered by 3/4, 1 or
# 5/4: the boundary lies between 13/20 and 4/5, and past 1 witnesses are non-empty.
SCALES = (Fraction(13, 20), Fraction(7, 10), Fraction(3, 4), Fraction(4, 5),
          Fraction(3, 2), Fraction(3))
JITTER = (Fraction(3, 4), Fraction(1), Fraction(5, 4))
# The primes in [29, 400): every composite below 400 = 20^2 has a factor below 20.
PRIMES = [q for q in range(29, 400) if all(q % f for f in range(2, 20))]
# The per-vertex probabilities of the mixed files: strings, exponent strings, JSON floats.
POOL = ("1/9", "2/17", "0.1", "1/7", "3/20", "0.125", "1/2", "0.7")
EXPONENTS = ("1e-1", "12.5e-2", "2.5E-1", "0.5e-1")
FLOATS = (0.1, 0.125, 0.2, 0.0875)
# max phi_{L-1} >= 0 at this L is not certifiable at 256 bits, only at the 528-bit floor.
F_SHEARER_200 = "2955834144021611738375928619524554769177806039044019000190"
# Clauses per variable of the random mt formulas, as in the benchmark's.
RATIOS = (0.6, 1.2)
# Decided past the default vertex guard: 160, 800 and 4200 vertices.
UNGUARDED = [(3, 3, 40), (2, 2, 400), (9, 22, 100)]
# hj past the default vertex guard: 292, 200 and 150 vertices of H_j.
HJ_GUARDED = [["hj", "--guard-vertices", "300", "--j", "3", "--k", "3", "--L", "3"],
              ["hj", "--guard-vertices", "200", "--j", "2", "--k", "4", "--L", "5"],
              ["hj", "--guard-vertices", "200", "--format", "json",
               "--j", "2", "--k", "5", "--L", "4"]]
# hj at j = 1 around the int-string limit: (k, L) printed, then refused.
HJ_FIRST_LEVEL = [(14000, 2), (7000, 3), (14300, 2), (7200, 3)]
# Printed by construct: no clause, one stage, wide clauses, and the largest formula.
PRINTED = [(2, 2, 0), (2, 3, 1), (12, 3, 5), (9, 22, 200)]
# Read only line by line: layouts no clean file has, and inputs that exit 6
# on the first of two errors.
LINE_READ = {
    "split.cnf": "p cnf 4 2\n1 -2\nc inside a clause\n3 0 -1 2\n-4 0\n",
    "two.cnf": "c a header\np cnf 4 2\n1 -2 3 0 -1 2 -4 0\n",
    "cr.cnf": "c lone CR endings\rp cnf 4 2\r1 -2 3 0\r-1 2 -4 0\r",  # read as \n
    "vt.cnf": "p cnf 4 2\x0b1 -2 3 0\x0c-1 2 -4 0\x1c",  # ends only splitlines sees
    "repeat.cnf": "p cnf 3 1\n1\nc comment\n-1 0\n",  # named at its clause's first line
    "clause_token.cnf": "p cnf 3 2\n1 1 0 x\n",  # a bad clause before a bad token
    "empty_token.cnf": "p cnf 3 2\n0 x\n",  # an empty clause before a bad token
    "open.cnf": "p cnf 3 1\n1 2\n",  # unterminated, named at its first line
}


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def seeded_graph(rng, n):
    """The edges of a G(n, 0.35) draw and its vertex degrees."""
    edges = [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return edges, degree


def write_graph(name, n, edges, p):
    Path(name).write_text(json.dumps({"n": n, "edges": edges, "p": list(map(str, p))}))
    return name


def write_graphs():
    """Seeded G(n, 0.35) graph JSON files, several probability scales each.

    The g files jitter 1 / (deg + 1); the c files round it to a fraction
    whose denominator is a prime drawn for the vertex, distinct within a
    graph, so the denominators are mixed and pairwise coprime.
    """
    names = []
    for n in range(10, 25):
        rng = random.Random(n)
        edges, degree = seeded_graph(rng, n)
        for i, scale in enumerate(SCALES):
            p = [min(scale * rng.choice(JITTER) / (d + 1), Fraction(99, 100)) for d in degree]
            names.append(write_graph(f"g{n}_{i}.json", n, edges, p))
    for n in range(10, 21):
        rng = random.Random(100 + n)
        edges, degree = seeded_graph(rng, n)
        for i, scale in enumerate(SCALES):
            p = [Fraction(min(max(round(scale * q / (d + 1)), 1), q - 1), q)
                 for d, q in zip(degree, rng.sample(PRIMES, n))]
            names.append(write_graph(f"c{n}_{i}.json", n, edges, p))
    return names


def write_mixed_graphs():
    """Graph JSON files whose p mixes the kinds of entry a file may hold.

    Each m file draws p from four entries of the pool, so entries repeat;
    the pool is the plain strings, with exponent strings, JSON floats or
    both added.  Each bad file repeats one entry that exits 3: a string out
    of range, the int 1, "1/0" and a list.
    """
    names = []
    kinds = (POOL, POOL + EXPONENTS, POOL + FLOATS, POOL + EXPONENTS + FLOATS)
    for n in range(10, 17):
        rng = random.Random(200 + n)
        edges, _ = seeded_graph(rng, n)
        for i, kind in enumerate(kinds):
            names.append(f"m{n}_{i}.json")
            choices = rng.sample(kind, 4)
            p = [rng.choice(choices) for _ in range(n)]
            Path(names[-1]).write_text(json.dumps({"n": n, "edges": edges, "p": p}))
    edges, _ = seeded_graph(random.Random(300), 12)
    for i, bad in enumerate(("3/2", 1, "1/0", [1, 2])):
        names.append(f"bad{i}.json")
        p = list(POOL + FLOATS)  # 12 entries
        p[4] = p[9] = bad
        Path(names[-1]).write_text(json.dumps({"n": 12, "edges": edges, "p": p}))
    return names


def write_satlib_style():
    """A seeded random 3-SAT file laid out as SATLIB's uf files are."""
    rng = random.Random(20)
    lines = ["c a seeded random 3-SAT formula", "c", "p cnf 50 175"]
    for _ in range(175):
        clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 51), 3)]
        lines.append(" " + " ".join(map(str, clause)) + " 0")
    Path("satlib.cnf").write_text("\n".join(lines + ["%", "0", ""]))
    return "satlib.cnf"


def write_random_formulas():
    """Seeded random k-SAT files in the benchmark's shape: m = clauses / ratio
    variables, each clause k distinct variables with independent fair signs."""
    names = []
    for k in (3, 4):
        for ratio in RATIOS:
            for size in (300, 600):
                rng = random.Random(f"{k}:{ratio}:{size}")
                m = round(size / ratio)
                lines = [f"p cnf {m} {size}"]
                for _ in range(size):
                    clause = [v if rng.random() < 0.5 else -v
                              for v in rng.sample(range(1, m + 1), k)]
                    lines.append(" ".join(map(str, clause)) + " 0")
                names.append(f"r{k}_{ratio}_{size}.cnf")
                Path(names[-1]).write_text("\n".join(lines) + "\n")
    return names


def corpus():
    """The argv lists, in order; inputs are written on the way."""
    fixedpoint = []
    for k in range(5, 21):
        f_shearer, f_moser_tardos = shearer_upper_bound(k, 256), f_mt(k)
        fixedpoint += [["fixedpoint", "--k", str(k), "--L", str(L), "--max-trajectory", "100000"]
                       for L in sorted({f_shearer, f_shearer + 1, f_moser_tardos,
                                        f_moser_tardos + 1})]
    numeric = [["table", "2", "30"], *(["bounds", "--k", str(k)] for k in range(2, 61)),
               *fixedpoint]
    commands = list(numeric)
    commands += [["check-shearer", "--graph", name]
                 for name in write_graphs() + write_mixed_graphs()]
    for k, L, r in FORMULAS:
        name = f"x{k}_{L}_{r}.cnf"
        commands.append(["--out", name, "construct", "--k", str(k), "--L", str(L),
                         "--r", str(r)])
        commands.append(["check-shearer", "--cnf", name])
        commands += [["mt", "--cnf", name, "--rule", rule, "--seed", str(seed)]
                     for rule in RULES for seed in (0, 7)]
    for k, L, r in UNGUARDED:
        name = f"x{k}_{L}_{r}.cnf"
        if (k, L, r) not in FORMULAS:
            commands.append(["--out", name, "construct", "--k", str(k), "--L", str(L),
                             "--r", str(r)])
        commands.append(["--guard-vertices", "5000", "check-shearer", "--cnf", name])
    commands += [["construct", "--k", str(k), "--L", str(L), "--r", str(r)]
                 for k, L, r in PRINTED]
    commands += [["--out", f"x9_22_{r}.cnf", "construct", "--k", "9", "--L", "22",
                  "--r", str(r)] for r in (200, 300)]  # five- and six-digit variables
    Path("empty.cnf").write_text("p cnf 5 0\n")
    commands += [["mt", "--cnf", name, "--rule", rule, "--seed", str(seed)]
                 for name in ("x9_22_200.cnf", "x9_22_300.cnf", "empty.cnf") for rule in RULES
                 for seed in (0, 7)]
    satlib = write_satlib_style()
    commands += [["mt", "--cnf", satlib, "--rule", rule, "--seed", str(seed)]
                 for rule in RULES for seed in (0, 7)]
    randoms = write_random_formulas()
    commands += [["mt", "--cnf", name, "--rule", rule, "--seed", str(seed)]
                 for name in randoms for rule in RULES for seed in (0, 7)]
    commands.append(["mt", "--cnf", randoms[-1], "--max-steps", "3"])  # terminated=False
    for name, text in LINE_READ.items():
        Path(name).write_bytes(text.encode())  # as given: no newline translation
        commands += [["mt", "--cnf", name], ["check-shearer", "--cnf", name]]
    commands += [["hj", "--j", str(j), "--k", str(k), "--L", str(L)] for j, k, L in HJ]
    Path("bad.cnf").write_text("p cnf 2 1\n1 3 0\n")
    Path("loop.json").write_text(json.dumps({"n": 2, "edges": [[1, 1]], "p": ["1/2"] * 2}))
    Path("wide.json").write_text(json.dumps({"n": 41, "edges": [], "p": ["1/2"] * 41}))
    commands += [
        ["table"], ["mt", "--cnf", "bad.cnf", "--rule", "none"],  # 2
        ["bounds", "--k", "1"], ["table", "5", "3"], ["check-shearer", "--graph", "loop.json"],
        ["check-shearer", "--graph", "missing.json"], ["--precision", "32", "bounds", "--k", "5"],
        ["check-shearer", "--graph", "wide.json"], ["hj", "--j", "5", "--k", "2", "--L", "2"],
        ["--guard-vertices", "20", "check-shearer", "--cnf", "x3_3_9.cnf"],  # 4
        ["table", "200", "200"],  # 0
        ["fixedpoint", "--k", "200", "--L", F_SHEARER_200],  # 0
        ["check-shearer", "--cnf", "bad.cnf"], ["mt", "--cnf", "bad.cnf"],  # 6
    ]
    commands += [["--precision", precision, *argv] for precision in ("128", "512")
                 for argv in numeric]
    commands += [["--precision", precision, *argv] for precision in ("64", "80")
                 for argv in fixedpoint]
    commands += [["fixedpoint", "--k", str(k), "--L", str(L)]
                 for k in range(5, 21) for L in (2, 3)]  # converged: phi_1 and phi_2
    commands += [[*precision, "fixedpoint", "--k", str(k),
                  "--L", str(shearer_upper_bound(k, 256) + 1)]
                 for precision in (["--precision", "64"], []) for k in range(21, 25)]
    commands += [["table", "640", "640"], ["table", "1000", "1000"]]
    commands += [["fixedpoint", "--k", str(k), "--L", "2"] for k in (640, 3000)]
    commands += [["--precision", precision, "bounds", "--k", str(k)]
                 for precision in ("64", "80") for k in range(2, 61)]
    commands += [["bounds", "--k", str(k)] for k in range(1045, 1049)]  # rhs inf from 1047
    commands += [["fixedpoint", "--k", k, "--L", L, "--max-iter", steps]
                 for k, L in (("9", "22"), ("20", "19312")) for steps in ("0", "5")]
    commands += [["fixedpoint", "--k", k, "--L", L, "--max-trajectory", cap]
                 for k, L in (("9", "22"), ("5", "2")) for cap in ("0", "2")]
    for name, edges in (("edges_object.json", {}), ("edges_string.json", "")):  # 3
        Path(name).write_text(json.dumps({"n": 2, "edges": edges, "p": ["1/3", "1/3"]}))
        commands.append(["check-shearer", "--graph", name])
    commands += HJ_GUARDED
    commands += [["hj", "--j", "1", "--k", str(k), "--L", str(L)] for k, L in HJ_FIRST_LEVEL]
    for name, entry in (("nines.json", "9" * 4300), ("nines_e.json", "9" * 4300 + "e4300")):
        Path(name).write_text(json.dumps({"n": 1, "edges": [], "p": [entry]}))  # 3
        commands.append(["check-shearer", "--graph", name])
    commands.append(["--guard-vertices", "1000000", "hj", "--j", "1000000", "--k", "2",
                     "--L", "2"])  # 4
    return commands


def main():
    for variable in [v for v in os.environ if v.startswith("SATLLL_")]:
        del os.environ[variable]
    lines = []
    with tempfile.TemporaryDirectory() as directory:
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            for argv in corpus():
                for argv_format in (argv, ["--format", "json", *argv]):
                    record = json.dumps([argv_format, *run(argv_format)])
                    digest = hashlib.sha256(record.encode()).hexdigest()
                    lines.append(f"{digest}\t{' '.join(argv_format)}")
        finally:
            os.chdir(cwd)
    for line in lines:
        print(line)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{total}\ttotal of {len(lines)} runs")


if __name__ == "__main__":
    main()
