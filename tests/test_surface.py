"""The package surface is what the CLI reaches.

Every public top-level name defined in a satlll module must be read, as an
``ast`` Name or Attribute, somewhere under src/satlll, or be kept for a
stated reason below.  Re-exports in ``__init__`` do not count as reads, so
a function that only tests call fails here: it belongs in tests/oracles.py.

Every defaulted parameter under src/satlll must be kept for a stated reason
too: the CLI owns the defaults, so a library function takes each input it
computes on as a required argument.
"""

import ast
import subprocess
import sys
from pathlib import Path

import satlll

SOURCES = sorted(Path(satlll.__file__).parent.glob("*.py"))

KEPT = {
    "dependency_graph": "the benchmark's formula_resample workload and self-test call it",
    "harris_check": "the generic resampling criterion, for the planned separate subcommand",
    "embed_H_in_G": "the H_j embedding, for the planned separate subcommand",
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
    defined = {(module, name) for module, tree in trees.items() if module != "__init__"
               for name in defined_names(tree)}
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


KEPT_DEFAULTS = {
    "main.argv": "the satlll console script calls main() with no arguments",
    "CertificationError.retry_precision": "raised both with and without a retry precision",
    "DimacsError.line": "raised both with and without a line number",
    "from_edges.payloads": "most graphs carry no payloads",
    "_check_params.j": "fixed_point_iteration checks k and L, and has no j",
    "build_H.vertex_guard": "the benchmark and embed_H_in_G build H_j without a guard",
    "build_Hprime.vertex_guard": "the benchmark builds H'_j without a guard",
    "_check_probabilities.open_interval": "its two callers pass different values",
}


def defaulted_parameters(tree: ast.Module) -> set[str]:
    """'function.parameter' for every parameter with a default; a method is
    named by its function, except __init__, which is named by its class."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                name = owner if name == "__init__" else name
                args = child.args
                positional = args.posonlyargs + args.args
                with_defaults = positional[len(positional) - len(args.defaults):]
                with_defaults += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                                  if default is not None]
                found.update(f"{name}.{arg.arg}" for arg in with_defaults)
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return found


def all_defaulted_parameters() -> set[str]:
    return set().union(*(defaulted_parameters(ast.parse(path.read_text())) for path in SOURCES))


def test_every_defaulted_parameter_is_kept_for_a_reason():
    assert sorted(all_defaulted_parameters() - KEPT_DEFAULTS.keys()) == []


def test_every_kept_default_is_still_a_default():
    assert sorted(KEPT_DEFAULTS.keys() - all_defaulted_parameters()) == []


def test_src_stats_counts_the_listed_defaults():
    # tools/src_stats.py prints the ROADMAP's figure with its own ast walk;
    # the two walks must agree, so that figure and this list cannot drift.
    script = Path(__file__).resolve().parents[1] / "tools" / "src_stats.py"
    result = subprocess.run([sys.executable, str(script)], check=True,
                            capture_output=True, text=True)
    figures = dict(line.split("\t") for line in result.stdout.splitlines())
    assert int(figures["defaulted_parameters"]) == len(all_defaulted_parameters())
