"""Code lines of the library, per module and in total.

A code line is a non-blank source line that holds a token other than a
comment and lies outside every docstring: the leading string of a
module, class or function.  A statement written over several lines
counts each of its lines.  Run from the root of a checkout:

    python3 scripts/src_lines.py            # src/minusord
    python3 scripts/src_lines.py path/to/package

The output is one ``module lines`` row per ``.py`` file, sorted by name,
then a ``total lines`` row.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Tokens that make no line a code line on their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's ``source``."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    text = source.splitlines()
    return len({n for n in lines - _docstring_lines(ast.parse(source)) if text[n - 1].strip()})


def count(package: Path) -> dict[str, int]:
    """Code lines per module of ``package``, by file name."""
    return {path.name: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "minusord")
    args = parser.parse_args(argv)
    per_module = count(args.package)
    for name, lines in per_module.items():
        print(f"{name} {lines}")
    print(f"total {sum(per_module.values())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
