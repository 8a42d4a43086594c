"""Count the lines of each Python file of a package by kind, as JSON.

    python3 tools/line_counts.py [PACKAGE_DIR]      # default: src/longwave

Every line that ``wc -l`` counts gets exactly one kind, tried in this order:

* ``docstring``: inside the string that is the first statement of a module,
  class or function (found by ``ast``), blank lines in it included;
* ``blank``: only whitespace;
* ``comment``: its only token is a comment (found by ``tokenize``);
* ``code``: every other line, including continuation lines of a statement.

The four kinds sum to ``wc_l``, the newline count.  The output maps each file
name, and ``total``, to its five counts.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "longwave"


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def comment_lines(text: str) -> set[int]:
    """1-based numbers of the lines whose only token is a comment."""
    seen: dict[int, set[int]] = {}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                          tokenize.ENDMARKER):
            continue
        for line in range(token.start[0], token.end[0] + 1):
            seen.setdefault(line, set()).add(token.type)
    return {line for line, types in seen.items() if types == {tokenize.COMMENT}}


def count_lines(text: str) -> dict[str, int]:
    """The counts of one file's source ``text`` by kind, and ``wc_l``."""
    docs, comments = docstring_lines(ast.parse(text)), comment_lines(text)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.split("\n")[:text.count("\n")], start=1):
        if number in docs:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return {**counts, "wc_l": text.count("\n")}


def package_counts(package: Path) -> dict[str, dict[str, int]]:
    """``count_lines`` of each ``*.py`` file of ``package`` by name, and their ``total``."""
    counts = {path.name: count_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    counts["total"] = {key: sum(c[key] for c in counts.values()) for key in (*KINDS, "wc_l")}
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    print(json.dumps(package_counts(Path(args[0]) if args else PACKAGE), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
