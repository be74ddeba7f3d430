"""The package surface is what the CLI reaches.

Every public top-level name defined in a satlll module must be read, as an
``ast`` Name or Attribute, somewhere under src/satlll, or be kept for a
stated reason below, so a function that only tests call fails here: it
belongs in tests/oracles.py.  One level down, every dataclass field, method
and ``self.`` attribute of a class under src/satlll must be read as an
attribute there, or be kept for a stated reason.

Every defaulted parameter under src/satlll must be kept for a stated reason
too: the CLI owns the defaults, so a library function takes each input it
computes on as a required argument.  Each CertificationError and DimacsError
raised under src/satlll or tests states its retry precision or line, None
where there is none.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import satlll

SOURCES = sorted(Path(satlll.__file__).parent.glob("*.py"))
SRC_STATS = Path(__file__).resolve().parents[1] / "tools" / "src_stats.py"

KEPT = {
    "dependency_graph": "the benchmark's formula_resample workload and self-test call it",
    "harris_check": "the generic resampling criterion, for the planned separate subcommand",
}


def defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def read_names(tree: ast.Module) -> set[str]:
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def surface() -> tuple[set[tuple[str, str]], set[str]]:
    """(module, name) for every public top-level name, and every name read."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    defined = {(module, name) for module, tree in trees.items() for name in defined_names(tree)}
    return defined, set().union(*map(read_names, trees.values()))


def test_every_public_name_is_read_under_src_or_kept_for_a_reason():
    defined, reads = surface()
    unread = sorted(f"{module}.{name}" for module, name in defined
                    if name not in reads and name not in KEPT)
    assert unread == []


def test_every_kept_name_is_defined_and_unread():
    # A kept name that src/ now reads, or that is gone, leaves the list.
    defined, reads = surface()
    names = {name for _, name in defined}
    assert sorted(name for name in KEPT if name not in names or name in reads) == []


KEPT_FIELDS = {
    "DepGraph.edges": "the benchmark's self-test drops an edge through it",
    "DepGraph.payloads": "the benchmark's self-test passes it through",
    "HarrisVerdict.margin": "the exact margin, for the planned separate subcommand",
}


def defined_fields(tree: ast.Module) -> set[str]:
    """'Class.name' for every annotated field and non-dunder method in a class
    body, and every attribute a method stores on self."""
    found = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                found.add(f"{cls.name}.{node.target.id}")
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("__")):
                found.add(f"{cls.name}.{node.name}")
        found.update(f"{cls.name}.{node.attr}" for node in ast.walk(cls)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                     and isinstance(node.value, ast.Name) and node.value.id == "self")
    return found


def read_attributes(tree: ast.Module) -> set[str]:
    """Every attribute loaded, as x.name or as getattr(x, "name", ...)."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
    return reads


def field_surface() -> tuple[set[str], set[str]]:
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    return set().union(*map(defined_fields, trees)), set().union(*map(read_attributes, trees))


def test_every_field_is_read_under_src_or_kept_for_a_reason():
    defined, reads = field_surface()
    unread = sorted(field for field in defined
                    if field.split(".")[1] not in reads and field not in KEPT_FIELDS)
    assert unread == []


def test_every_kept_field_is_defined_and_unread():
    defined, reads = field_surface()
    assert sorted(field for field in KEPT_FIELDS
                  if field not in defined or field.split(".")[1] in reads) == []


KEPT_DEFAULTS = {
    "main.argv": "the satlll console script calls main() with no arguments",
    "from_edges.payloads": "most graphs carry no payloads",
    "build_H.vertex_guard": "the benchmark builds H_j without a guard",
    "build_Hprime.vertex_guard": "the benchmark builds H'_j without a guard",
}


def load_src_stats():
    spec = importlib.util.spec_from_file_location("src_stats", SRC_STATS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def all_defaulted_parameters() -> set[str]:
    walk = load_src_stats().defaulted_parameters
    return set().union(*(walk(ast.parse(path.read_text())) for path in SOURCES))


def test_every_defaulted_parameter_is_kept_for_a_reason():
    assert sorted(all_defaulted_parameters() - KEPT_DEFAULTS.keys()) == []


def test_every_kept_default_is_still_a_default():
    assert sorted(KEPT_DEFAULTS.keys() - all_defaulted_parameters()) == []


def test_src_stats_prints_the_number_of_listed_defaults():
    # The ROADMAP's figure is the number of reasons listed above.
    result = subprocess.run([sys.executable, str(SRC_STATS)], check=True,
                            capture_output=True, text=True)
    figures = dict(line.split("\t") for line in result.stdout.splitlines())
    assert int(figures["defaulted_parameters"]) == len(KEPT_DEFAULTS)


def test_every_certification_and_dimacs_error_states_both_arguments():
    # Checked statically: some of these raises sit on paths no test reaches, where
    # a missing argument would be a TypeError instead of exit 5 or 6.
    def calls(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                in ("CertificationError", "DimacsError")]
    paths = SOURCES + sorted(Path(__file__).parent.glob("*.py"))
    found = [(path.name, node.lineno, len(node.args) + len(node.keywords))
             for path in paths for node in calls(ast.parse(path.read_text()))]
    assert len(found) >= 20
    assert [(name, line) for name, line, count in found if count != 2] == []


def test_the_int_string_limit_is_read_only_by_errors_and_cli():
    # errors.printable is the one printability rule; cli reads the limit only
    # for its work bounds and for the digit count in its refusal message.
    def reads_limit(tree):
        return any(getattr(node, "attr", getattr(node, "id", None)) == "get_int_max_str_digits"
                   for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name)))
    readers = {path.stem for path in SOURCES if reads_limit(ast.parse(path.read_text()))}
    assert readers == {"errors", "cli"}
