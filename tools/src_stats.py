"""Print the two size figures the ROADMAP tracks for src/satlll, then the
line count of each module.

    python tools/src_stats.py

lines: the total of `wc -l src/satlll/*.py`.  defaulted parameters: the
number of names defaulted_parameters gives over every module, one per
parameter with a default.  Then one "lines <module>" line per module, so
two checkouts' outputs diff module by module.  tests/test_surface.py loads
this file to check each of those names against its list of reasons.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "satlll").glob("*.py"))


def defaulted_parameters(tree: ast.AST) -> set[str]:
    """'function.parameter' for every parameter with a default; a method is
    named by its function, except __init__, which is named by its class.
    A keyword-only parameter without a default has None in kw_defaults."""
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


def main():
    texts = [path.read_text() for path in SOURCES]
    lines = [text.count("\n") for text in texts]
    defaults = set().union(*(defaulted_parameters(ast.parse(text)) for text in texts))
    print(f"lines\t{sum(lines)}")
    print(f"defaulted_parameters\t{len(defaults)}")
    for path, count in zip(SOURCES, lines):
        print(f"lines {path.stem}\t{count}")


if __name__ == "__main__":
    main()
