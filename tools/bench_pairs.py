"""Run the benchmark in alternating pairs on a parent commit and on this
working tree, and write the results to BENCH_<pr>.json.

    python tools/bench_pairs.py --parent REV --pr N --workload criteria_table \
        --pairs 10 --seconds 25 --seed 11

The parent is extracted with ``git archive REV | tar -x`` into a temporary
directory, so the repository's .git is not touched; the directory is
removed at exit.  Each pair runs ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in the parent's tree and once in this
one, one run after the other, and the side that runs first alternates from
pair to pair.  Each run's last stdout line is its JSON result: the
end-to-end metrics, all of them better lower.

BENCH_<pr>.json, at the root of this tree, holds one entry per workload;
a later call for another workload adds its entry and keeps the others.  An
entry holds the settings, each pair's metrics on both sides, and per
metric each side's median and quartiles (``statistics.quantiles``, n = 4,
inclusive) and the change's wins: the pairs in which it read lower.  Ties
count for neither.  Each metric's verdict, by the pairing rule of the
choosing-metrics guide, with its bound from BENCHMARK.json's end_to_end:

- gain: the change wins at least nine tenths of the pairs, and the parent's
  median exceeds the change's by more than the parent's q3 - q1;
- worse: the change's median exceeds the parent's by more than the bound,
  as a fraction of the parent's median;
- unresolved: the parent's q3 - q1 exceeds the bound times its median;
- within bound: every other case, the first that holds deciding.

A run that fails or reports a failed operation stops the script.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    parser.add_argument("--pr", required=True, help="the N of BENCH_<N>.json")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    return parser.parse_args(argv)


def extract(rev: str, into: Path) -> str:
    """Write the tree of rev into `into`; return its full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
    return sha


def run(tree: Path, args) -> dict[str, float]:
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=10 * args.seconds + 600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: {result['failed']}/{result['attempted']} operations failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: dict[str, float], change: dict[str, float], wins: int, pairs: int,
            bound: float) -> str:
    """gain, worse, unresolved or within bound, for the summaries of one metric."""
    spread = parent["q3"] - parent["q1"]
    if 10 * wins >= 9 * pairs and parent["median"] - change["median"] > spread:
        return "gain"
    if change["median"] > parent["median"] * (1 + bound):
        return "worse"
    if spread > bound * parent["median"]:
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pairs < 2:
        raise SystemExit("--pairs must be >= 2: quartiles need two runs a side")
    out = ROOT / f"BENCH_{args.pr}.json"
    report = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        parent_tree = Path(tmp)
        sha = extract(args.parent, parent_tree)
        pairs = []
        for i in range(args.pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": sides[0]}
            for side in sides:
                pair[side] = run(parent_tree if side == "parent" else ROOT, args)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}"
                for name in pair["parent"]), flush=True)
    bounds = {metric["name"]: metric["bound"]
              for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    metrics = {}
    for name in pairs[0]["parent"]:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        entry = metrics[name] = {"parent": summary(parent), "change": summary(change),
                                 "change_wins": sum(c < p for p, c in zip(parent, change)),
                                 "ties": sum(c == p for p, c in zip(parent, change))}
        entry["verdict"] = verdict(entry["parent"], entry["change"], entry["change_wins"],
                                   len(pairs), bounds[name])
        print(f"{name}: {entry['verdict']}")
    report["python"] = platform.python_version()
    report["workloads"][args.workload] = {
        "parent": sha, "seed": args.seed, "seconds": args.seconds, "trace": 0,
        "pairs": pairs, "metrics": metrics}
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
