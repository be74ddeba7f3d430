"""satlll benchmark: one closed-loop client running one workload in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; satlll is imported from ./src.
Operations run one at a time through ``satlll.cli.main(argv)`` with stdout
captured (graph building calls the library), and every output is checked
against an independent reference.  Passes over the workload's operations
repeat until S seconds have passed.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 untraced and traced passes alternate, and it holds the per-layer
metrics and the tracing overhead.  Spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# Speed normalisation (see SpeedProbe): the kernel's time on a quiet
# 2-vCPU x86-64 VM under CPython 3.11, and the sampling parameters.
REFERENCE_KERNEL_S = 0.0006
SAMPLE_EVERY_S = 0.02
PAD_S = 0.03

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "peak_rss_mib": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_op(main, op, wrap=None):
    """Run one operation; returns (seconds, problem or None).

    ``wrap(name, fn)``, when given, wraps a library call in a root span.
    """
    out, err = io.StringIO(), io.StringIO()
    value, rc, problem = None, 0, None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            if op.argv is not None:
                rc = main(op.argv)
            else:
                value = (op.call if wrap is None else wrap("bench.call", op.call))()
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an operation that raises is a failure, not a crash
            problem = f"raised {exc!r}"
        elapsed = perf_counter() - start
    if problem is None:
        try:
            problem = op.check(rc, out.getvalue(), value)
        except Exception as exc:
            problem = f"unreadable output ({exc!r}): {out.getvalue()[:200]!r}"
        if problem and err.getvalue():
            problem += f" [stderr: {err.getvalue().strip()[:200]}]"
    return elapsed, problem


def _kernel():
    """Fixed pure-Python work with satlll's mix: ints, Fractions, sets, dicts."""
    table, total = {}, Fraction(0)
    for i in range(800):
        key = frozenset((i % 37, i % 11))
        table[key] = table.get(key, 0) + i * i
        if i % 8 == 0:
            total += Fraction(i + 1, 2 ** (i % 64) + 1)
    return total


class SpeedProbe:
    """Follows the machine's speed by timing ``_kernel`` between operations.

    The machine is shared, and its speed swings by up to 2x within
    seconds.  Times are therefore reported in reference seconds: a measured
    time multiplied by REFERENCE_KERNEL_S over the mean kernel time in a
    window around the measured interval, padded on each side by the
    interval's own length plus PAD_S.  Samples are taken after every
    operation, one per SAMPLE_EVERY_S it ran, so long operations are
    covered too.  Kernel time never counts in a latency.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, elapsed: float = 0.0):
        for _ in range(1 + min(int(elapsed / SAMPLE_EVERY_S), 50)):
            start = perf_counter()
            _kernel()
            self.times.append(start)
            self.durations.append(perf_counter() - start)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end].  The
        window always holds the last sample before and the first after."""
        pad = end - start + PAD_S
        i = min(bisect.bisect_left(self.times, start - pad),
                max(bisect.bisect_left(self.times, start) - 1, 0))
        j = max(bisect.bisect_right(self.times, end + pad), bisect.bisect_right(self.times, end) + 1)
        return REFERENCE_KERNEL_S / statistics.fmean(self.durations[i:j])


class Passes:
    """Per-pass latencies and failures of a run."""

    def __init__(self, ops, probe: SpeedProbe):
        self.ops = ops
        self.probe = probe
        self.timings: list[list[tuple[float, float]]] = []  # per pass: (start, seconds)
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, main, wrap=None):
        timings = []
        self.probe.sample()
        for op in self.ops:
            start = perf_counter()
            elapsed, problem = run_op(main, op, wrap)
            self.probe.sample(elapsed)
            timings.append((start, elapsed))
            self.attempted += 1
            if problem:
                self.failures.append(f"{op.name}: {problem}")
        self.timings.append(timings)

    def raw_walls(self) -> list[float]:
        return [sum(t for _, t in timings) for timings in self.timings]

    def latencies(self) -> list[list[float]]:
        """Per pass, each operation's latency in reference seconds."""
        return [[t * self.probe.scale(start, start + t) for start, t in timings]
                for timings in self.timings]

    def summary(self) -> dict[str, float]:
        """wall_s: median over passes of the pass time.  op_p50_ms and
        op_p90_ms: percentiles over the operations of each operation's
        median latency across passes."""
        passes = self.latencies()
        per_op = [statistics.median(column) for column in zip(*passes)]
        return {"wall_s": statistics.median(sum(p) for p in passes),
                "op_p50_ms": 1000 * statistics.median(per_op),
                "op_p90_ms": 1000 * statistics.quantiles(per_op, n=10, method="inclusive")[8]}


def measure_setup(args, probe: SpeedProbe) -> float:
    """Median time of fresh processes that import satlll, write the
    workload's inputs and run one warm-up operation (reference seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample(0.2)
        start = perf_counter()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        elapsed = perf_counter() - start
        probe.sample(0.2)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()[-500:]}")
        times.append(elapsed * probe.scale(start, start + elapsed))
    return statistics.median(times)


def set_up(args, workdir: Path):
    from satlll import cli
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    _, problem = run_op(cli.main, workloads.Op("warm-up", workload.warmup))
    if problem:
        raise RuntimeError(f"warm-up operation failed: {problem}")
    return cli, workload


def report(metrics: dict[str, tuple[float, str]], passes: list[Passes]):
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for p, label in zip(passes, ("untraced", "traced")):
        print(f"{label}: {len(p.timings)} passes of {len(p.ops)} operations, measured pass "
              f"times {[round(w, 3) for w in p.raw_walls()]} s")
    print(f"fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4f} (ratio)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def measure(args, workdir: Path):
    probe = SpeedProbe()
    setup_s = None if args.trace else measure_setup(args, probe)
    cli, workload = set_up(args, workdir)
    ops = workload.ops()
    # Objects made in set-up live on; keep them out of the collector's scans,
    # as they would be in a fresh CLI process.
    gc.collect()
    gc.freeze()
    plain = Passes(ops, probe)
    deadline = perf_counter() + args.seconds
    if not args.trace:
        while True:
            plain.run(cli.main)
            if perf_counter() >= deadline:
                break
        metrics = {"setup_s": setup_s, **plain.summary(),
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        report({n: (v, END_TO_END_UNITS[n]) for n, v in metrics.items()}, [plain])
        return

    import tracing
    tracer = tracing.Tracer()
    traced = Passes(ops, probe)
    traced_main = tracer.wrap("cli.main", cli.main)
    while not (traced.timings and perf_counter() >= deadline):
        if len(plain.timings) <= len(traced.timings):
            plain.run(cli.main)
        else:
            tracer.install()
            try:
                traced.run(traced_main, tracer.wrap)
            finally:
                tracer.uninstall()
            tracer.pass_index += 1
    metrics = tracer.metrics(len(traced.timings), probe.scale)
    metrics["trace.overhead_pct"] = 100 * (traced.summary()["wall_s"]
                                           / plain.summary()["wall_s"] - 1)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    units = {n: ("%" if n.endswith("_pct") else "us" if n.endswith("us_per_step")
                 else "ms" if n.endswith("_ms") else "count") for n in metrics}
    report({n: (v, units[n]) for n, v in metrics.items()}, [plain, traced])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "satlll" / "cli.py").is_file():
        print(f"perfbench: no satlll sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            set_up(args, workdir)
        else:
            measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
