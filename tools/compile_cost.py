"""Lines and compile time of each module of the ``cantorlab`` package.

Usage (from the repository root; standard library only):

    python3 tools/compile_cost.py [--src DIR]

For each ``*.py`` file in ``DIR`` (default: this repository's
``src/cantorlab``) it prints the file's lines, its code lines and the best
of 20 timings of ``compile()`` of its source, in ms, then the totals.  A
code line holds a token that is not a comment and not part of a docstring.  Every command that imports the package without cached bytecode
pays the compile time, so the two columns are the start-up cost of the
source's size.  Pass another checkout's package as ``--src`` to compare two
trees on the same machine.
"""

from __future__ import annotations

import argparse
import ast
import io
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 20
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of the docstrings of the module, its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def compile_ms(source: str, name: str) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        compile(source, name, "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src" / "cantorlab")
    args = ap.parse_args()
    print(f"{'module':<16}{'lines':>7}{'code':>7}{'compile_ms':>12}")
    totals = [0, 0, 0.0]
    for path in sorted(args.src.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        row = (source.count("\n"), code_lines(source),
               compile_ms(source, str(path)))
        totals = [t + v for t, v in zip(totals, row)]
        print(f"{path.stem:<16}{row[0]:>7}{row[1]:>7}{row[2]:>12.2f}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>7}{totals[2]:>12.2f}")


if __name__ == "__main__":
    main()
