"""Print the two size figures the ROADMAP tracks for src/satlll.

    python tools/src_stats.py

lines: the total of `wc -l src/satlll/*.py`.  defaulted parameters: over
every function and lambda, the `ast` count of positional `defaults` plus
the keyword-only `kw_defaults` that are not None (a keyword-only parameter
without a default has None there).
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
    lines = sum(text.count("\n") for text in texts)
    defaults = sum(defaulted_parameters(ast.parse(text)) for text in texts)
    print(f"lines\t{lines}")
    print(f"defaulted_parameters\t{defaults}")


if __name__ == "__main__":
    main()
