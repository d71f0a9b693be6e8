"""Code line counter: how many lines of src/ are code.

Run from the repository root:

    python tests/code_lines.py

A code line is a line that some AST node spans, less docstrings, blank
lines and comment lines. Comment lines are found with tokenize, so a
line inside a string constant that starts with "#" stays a code line.
It prints the count of each module and the total over src/.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _comment_lines(text):
    """Lines whose only token is a comment."""
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return comments - code


def code_lines(text):
    tree = ast.parse(text)
    spanned = set()
    for node in ast.walk(tree):
        if getattr(node, "end_lineno", None) is not None:
            spanned.update(range(node.lineno, node.end_lineno + 1))
    blank = {i for i, line in enumerate(text.splitlines(), 1) if not line.strip()}
    return len(spanned - _docstring_lines(tree) - _comment_lines(text) - blank)


def main():
    counts = {path.relative_to(ROOT / "src"): code_lines(path.read_text())
              for path in sorted((ROOT / "src").rglob("*.py"))}
    for path, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        print("%6d  %s" % (count, path))
    print("%6d  total" % sum(counts.values()))


if __name__ == "__main__":
    main()
