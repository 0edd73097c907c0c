"""Line counts of the cacherec modules.

For each module of a package directory (default: src/cacherec next to this
script's parent) print two counts: its lines as `wc -l` counts them, and its
code-only lines, which leave out docstrings (found with `ast`), comments and
blank lines (found with `tokenize`). A last row sums them. Stdlib only:

    python3 tools/loc.py [PACKAGE_DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """Line numbers covered by the docstrings of a module, class or function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token that is not a comment, outside docstrings."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def counts(package: Path):
    """(module name, wc -l lines, code-only lines) per module, by name."""
    return [
        (path.name, path.read_bytes().count(b"\n"), code_lines(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    ]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "cacherec"
    rows = counts(package)
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
