"""Count the code lines of the package, per module.

A code line holds at least one token that is not a comment, and lies
outside every docstring (the first string statement of a module, class or
function body, as ``ast.get_docstring`` reads it).  Blank lines, comments
and docstrings are left out.  Run from the repository root:

    python tools/code_lines.py [package directory, default src/biaslab]

It prints one row per module, the largest first, and the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _SKIP:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list) -> None:
    package = Path(argv[0] if argv else "src/biaslab")
    counts = sorted(((code_lines(path), path.stem) for path in package.glob("*.py")), reverse=True)
    print("| module | lines |\n| --- | --- |")
    for count, name in counts:
        print(f"| `{name}` | {count} |")
    print(f"| total | {sum(count for count, _ in counts)} |")


if __name__ == "__main__":
    main(sys.argv[1:])
