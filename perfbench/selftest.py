"""Self-test of the benchmark itself (not part of the pytest suite).

    python3 perfbench/selftest.py                  # all checks, about 3 minutes
    python3 perfbench/selftest.py --record-digests # rewrite reference.json's mt digests

It shows that:
  * the same seed writes byte-identical inputs and another seed does not;
  * the reference routes agree with definitions (chain criterion against
    the all-independent-sets definition; the k = 5..8 table rows against
    the fixed-point flip);
  * a wrong output from satlll is counted as a failure, in every workload;
  * every workload runs with no failure on the default seed and seed 2, and
    prints exactly the metrics BENCHMARK.json names, traced and untraced;
  * without satlll sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import refcheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def input_bytes(name: str, seed: int, tag: str) -> dict[str, bytes]:
    directory = fresh_dir(tag)
    workloads.WORKLOADS[name](seed, directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def check_inputs_are_seeded():
    def specs(seed):  # criteria_table writes no files; its seed orders the operations
        return workloads.CriteriaTable(seed, WORK).specs
    assert specs(1) == specs(1) != specs(2)
    for name in ("shearer_verdicts", "formula_resample"):
        first = input_bytes(name, 1, "a")
        assert first == input_bytes(name, 1, "b"), f"{name}: same seed, different inputs"
        assert first != input_bytes(name, 2, "c"), f"{name}: seed ignored"
    print("ok  same seed gives byte-identical inputs; another seed differs")


def check_reference_routes():
    rng = random.Random(7)
    agree = 0
    for _ in range(150):
        n = rng.randint(1, 9)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
        nbr = refcheck.neighbour_masks(n, edges)
        p = Fraction(rng.randint(1, 40), 100)
        chain = refcheck.chain_satisfied(refcheck.IndependenceCounts(nbr), n, p)
        assert chain == refcheck.shearer_by_definition(n, nbr, p), (n, edges, p)
        agree += 1
    table = workloads.REFERENCE["table"]
    for k in range(5, 9):
        lll, sh, mt = table[str(k)]
        assert (refcheck.f_lll(k), refcheck.f_mt(k)) == (lll, mt), k
        assert refcheck.violation_step(k, sh) is None, k
        assert refcheck.violation_step(k, sh + 1) is not None, k
    print(f"ok  chain criterion matches the definition on {agree} graphs; "
          "rows k=5..8 match closed forms and the fixed-point flip")


def faults():
    """(workload, what is broken, patch) triples; patch returns an undo function."""
    from satlll import events_graph, hj_family, moser_tardos, shearer

    def patch(module, name, make):
        original = getattr(module, name)
        setattr(module, name, make(original))
        return lambda: setattr(module, name, original)

    def off_by_one(original):
        return lambda *a, **kw: original(*a, **kw) + 1

    def always_satisfied(original):
        return lambda *a, **kw: dataclasses.replace(original(*a, **kw), satisfied=True)

    def flip_variable_1(original):
        def wrapped(*a, **kw):
            assignment, stats = original(*a, **kw)
            return {**assignment, 1: not assignment[1]}, stats
        return wrapped

    def drop_an_edge(original):
        def wrapped(events):
            graph = original(events)
            u, v = graph.edges()[0]
            return events_graph.DepGraph.from_edges(
                graph.n, [e for e in graph.edges() if e != (u, v)], graph.payloads)
        return wrapped

    return [
        ("criteria_table", "shearer_upper_bound + 1",
         lambda: patch(hj_family, "shearer_upper_bound", off_by_one)),
        ("shearer_verdicts", "every verdict 'satisfied'",
         lambda: patch(shearer, "shearer_check", always_satisfied)),
        ("formula_resample", "variable 1 flipped after resampling",
         lambda: patch(moser_tardos, "run_mt", flip_variable_1)),
        ("formula_resample", "one dependency edge dropped",
         lambda: patch(events_graph, "dependency_graph", drop_an_edge)),
    ]


def check_wrong_output_is_counted():
    from satlll import cli
    for name, broken, apply in faults():
        workload = workloads.WORKLOADS[name](1, fresh_dir("faults"))
        ops = workload.ops()
        if name == "criteria_table":
            ops = [op for op in ops if op.argv[0] == "table"][:2]
        clean = run.Passes(ops, run.SpeedProbe())
        clean.run(cli.main)
        undo = apply()
        try:
            faulty = run.Passes(ops, run.SpeedProbe())
            faulty.run(cli.main)
        finally:
            undo()
        assert not clean.failures, clean.failures[:3]
        assert faulty.failures, f"{name}: '{broken}' went unnoticed"
        print(f"ok  {name}: '{broken}' fails {len(faulty.failures)}/{faulty.attempted} "
              f"operations, so fail_ratio > 0")


def bench(*args, cwd=ROOT) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def check_clean_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for seed, trace in ((workloads.DEFAULT_SEED, 0), (2, 0), (2, 1)):
            code, out, err = bench("--workload", name, "--seed", str(seed),
                                   "--seconds", "1", "--trace", str(trace))
            assert code == 0, err[-2000:]
            result = json.loads(out.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (name, seed, err[-2000:])
            assert set(result["metrics"]) == names[trace], set(result["metrics"]) ^ names[trace]
            print(f"ok  {name} seed {seed} trace {trace}: fail_ratio 0/{result['attempted']}")


def check_bare_directory_fails():
    bare = fresh_dir("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = bench("--workload", "criteria_table", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    assert code != 0 and '"metrics"' not in out, (code, out)
    print(f"ok  without satlll sources: exit code {code}, no result line")


def record_digests():
    from satlll import cli
    workload = workloads.FormulaResample(workloads.DEFAULT_SEED, fresh_dir("record"))
    digests = {}
    for op in workload.ops():
        if op.argv and op.argv[0] == "mt":
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli.main(op.argv) == 0, op.name
            out = out.getvalue()
            path, rule, seed = op.argv[2], op.argv[4], op.argv[6]
            key = f"{hashlib.sha256(Path(path).read_bytes()).hexdigest()}:{rule}:{seed}"
            digests[key] = hashlib.sha256(out.encode()).hexdigest()
    reference_path = HERE / "reference.json"
    reference = json.loads(reference_path.read_text())
    reference["mt_digests"] = dict(sorted(digests.items()))
    reference_path.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"recorded {len(digests)} mt digests")


def main() -> int:
    try:
        if sys.argv[1:] == ["--record-digests"]:
            record_digests()
            return 0
        check_inputs_are_seeded()
        check_reference_routes()
        check_wrong_output_is_counted()
        check_clean_runs()
        check_bare_directory_fails()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
