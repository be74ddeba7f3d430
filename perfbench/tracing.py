"""Spans around satlll's public functions, installed from the benchmark.

``Tracer.install`` replaces each function in ``WRAPPED`` with a timing
wrapper wherever satlll binds it (its own module, ``satlll.cli``, the
package namespace), so calls between modules are seen too; ``uninstall``
puts the originals back.  Nothing under ``src/`` changes.  Spans stay in
memory until ``dump`` writes them out.

Only functions the CLI and the benchmark call are wrapped.  Helpers
called in inner loops (``certified``, ``disagree``, ``find_true_bad_event``)
are not, so the wrappers stay cheap next to the work they time.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

LAYERS = ("cli", "hj_family", "bounds", "shearer", "events_graph", "sat_model",
          "moser_tardos")

WRAPPED = {
    "bounds": ("f_lll", "f_mt", "harris_ksat_alpha", "gap_inequality"),
    "hj_family": ("shearer_upper_bound", "fixed_point_iteration", "recurrence_sr",
                  "build_H", "build_Hprime"),
    "shearer": ("shearer_check", "independence_polynomial"),
    "events_graph": ("events_from_formula", "lopsidependency_graph", "dependency_graph"),
    "sat_model": ("build_extremal_formula", "dimacs_import", "dimacs_export"),
    "moser_tardos": ("run_mt",),
}

# What a span keeps of its function's return value.
NOTES = {
    "hj_family.fixed_point_iteration": lambda r: (r.verdict.kind, r.verdict.step or 0),
    "shearer.shearer_check": lambda r: r.satisfied,
    "moser_tardos.run_mt": lambda r: r[1].steps,
}

# Span fields: name, parent index, pass, start, end, raised, note.
NAME, PARENT, PASS, START, END, RAISED, NOTE = range(7)

PER_PASS_MS = {
    "hj_family.shearer_upper_bound_ms": "hj_family.shearer_upper_bound",
    "bounds.f_lll_ms": "bounds.f_lll",
    "bounds.f_mt_ms": "bounds.f_mt",
    "bounds.harris_ksat_alpha_ms": "bounds.harris_ksat_alpha",
    "bounds.gap_inequality_ms": "bounds.gap_inequality",
    "shearer.independence_polynomial_ms": "shearer.independence_polynomial",
    "events_graph.events_from_formula_ms": "events_graph.events_from_formula",
    "events_graph.lopsidependency_graph_ms": "events_graph.lopsidependency_graph",
    "events_graph.dependency_graph_ms": "events_graph.dependency_graph",
    "sat_model.build_extremal_formula_ms": "sat_model.build_extremal_formula",
    "sat_model.dimacs_import_ms": "sat_model.dimacs_import",
    "sat_model.dimacs_export_ms": "sat_model.dimacs_export",
    "moser_tardos.run_mt_ms": "moser_tardos.run_mt",
}


# Every summed metric; a layer a workload does not reach reports 0.
SUMMED = (*(f"{layer}.{count}" for layer in LAYERS for count in ("spans", "raised")),
          *PER_PASS_MS, "cli.self_ms", "hj_family.fixed_point_converged_ms",
          "hj_family.fixed_point_violated_ms", "hj_family.fixed_point_steps",
          "shearer.check_satisfied_ms", "shearer.check_violated_ms", "moser_tardos.steps")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_index = 0
        self.patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else None, self.pass_index,
                      perf_counter(), None, False, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                record[END] = perf_counter()
                stack.pop()
            if note is not None:
                record[NOTE] = note(result)
            return result
        return wrapper

    def install(self):
        namespaces = [m for n, m in sys.modules.items()
                      if n == "satlll" or n.startswith("satlll.")]
        for module_name, names in WRAPPED.items():
            module = sys.modules[f"satlll.{module_name}"]
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{module_name}.{name}", original)
                for namespace in namespaces:
                    if getattr(namespace, name, None) is original:
                        self.patches.append((namespace, name, original))
                        setattr(namespace, name, wrapper)

    def uninstall(self):
        for namespace, name, original in reversed(self.patches):
            setattr(namespace, name, original)
        self.patches.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def metrics(self, passes: int, scale) -> dict[str, float]:
        """Per-layer metrics, summed over the traced spans and divided by passes.

        ``scale(start, end)`` converts measured seconds to reference seconds.
        """
        own = [t * scale(s[START], s[END]) for s, t in zip(self.spans, self.self_times())]
        totals = dict.fromkeys(SUMMED, 0.0)
        by_function = {function: key for key, function in PER_PASS_MS.items()}
        for span, self_s in zip(self.spans, own):
            name, note = span[NAME], span[NOTE]
            layer = name.split(".")[0]
            if layer not in LAYERS:
                continue
            totals[f"{layer}.spans"] += 1
            totals[f"{layer}.raised"] += int(span[RAISED])
            ms = 1000 * self_s
            if name == "cli.main":
                totals["cli.self_ms"] += ms
            if name in by_function:
                totals[by_function[name]] += ms
            if note is None:
                continue
            if name == "hj_family.fixed_point_iteration":
                kind, steps = note
                if kind in ("converged", "violated"):
                    totals[f"hj_family.fixed_point_{kind}_ms"] += ms
                totals["hj_family.fixed_point_steps"] += steps
            elif name == "shearer.shearer_check":
                totals["shearer.check_satisfied_ms" if note else "shearer.check_violated_ms"] += ms
            elif name == "moser_tardos.run_mt":
                totals["moser_tardos.steps"] += note
        result = {key: value / passes for key, value in totals.items()}
        steps = totals["moser_tardos.steps"]
        result["moser_tardos.us_per_step"] = (
            1000 * totals["moser_tardos.run_mt_ms"] / steps if steps else 0.0)
        return result

    def dump(self, path):
        """Write the spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": s[PARENT], "pass": s[PASS], "name": s[NAME],
                    "start": s[START] - origin, "end": s[END] - origin,
                    "raised": s[RAISED], "note": s[NOTE]}) + "\n")
