"""Print the two size figures the ROADMAP tracks for src/satlll, then the
line count of each module.

    python tools/src_stats.py

lines: the total of `wc -l src/satlll/*.py`.  defaulted parameters: over
every function and lambda, the `ast` count of positional `defaults` plus
the keyword-only `kw_defaults` that are not None (a keyword-only parameter
without a default has None there).  Then one "lines <module>" line per
module, so two checkouts' outputs diff module by module.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "satlll").glob("*.py"))


def defaulted_parameters(tree: ast.AST) -> int:
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def main():
    texts = [path.read_text() for path in SOURCES]
    lines = [text.count("\n") for text in texts]
    defaults = sum(defaulted_parameters(ast.parse(text)) for text in texts)
    print(f"lines\t{sum(lines)}")
    print(f"defaulted_parameters\t{defaults}")
    for path, count in zip(SOURCES, lines):
        print(f"lines {path.stem}\t{count}")


if __name__ == "__main__":
    main()
