"""Line counts of the package source, before and after a simplification.

For each ``src/pottsverify/*.py`` file, and in total, prints the physical
line count (as ``wc -l`` gives it) and the code-only line count: lines that
hold at least one token that is not a comment, with blank lines, comment
lines and docstring lines left out.  Tokens come from ``tokenize`` and
docstrings from ``ast`` (the first statement of a module, class or function
body, when it is a string literal).

Given two directories, prints each count in both and the difference (after
minus before) per file name and in total; a file missing from one side
counts 0 there.

Usage: python3 tools/loc.py [SOURCE_DIR]    (default: src/pottsverify)
       python3 tools/loc.py BEFORE_DIR AFTER_DIR
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """``(physical lines, code-only lines)`` of one file's text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def compare(before: Path, after: Path) -> int:
    """Print the two directories' counts side by side, with the differences."""
    names = sorted({path.name for root in (before, after) for path in root.glob("*.py")})
    rows = []
    for name in names:
        sides = [counts(path.read_text(encoding="utf-8")) if path.exists() else (0, 0)
                 for path in (before / name, after / name)]
        rows.append(([side[k] for k in (0, 1) for side in sides], name))
    rows.append(([sum(column) for column in zip(*[row for row, _name in rows])], "total"))
    print(f"{'lines':>23}  {'code':>23}")
    print(f"{'before':>7} {'after':>7} {'diff':>7}  {'before':>7} {'after':>7} {'diff':>7}  file")
    for (lines_before, lines_after, code_before, code_after), name in rows:
        print(f"{lines_before:>7} {lines_after:>7} {lines_after - lines_before:>+7}  "
              f"{code_before:>7} {code_after:>7} {code_after - code_before:>+7}  {name}")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        return compare(Path(argv[1]), Path(argv[2]))
    root = Path(argv[1] if len(argv) > 1 else "src/pottsverify")
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>7}  file")
    for path in sorted(root.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:>7} {code:>7}  {path}")
    print(f"{total_lines:>7} {total_code:>7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
