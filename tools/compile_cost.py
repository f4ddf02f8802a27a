"""Lines and compile time of each module of the ``cantorlab`` package.

Usage (from the repository root; standard library only):

    python3 tools/compile_cost.py [--src DIR]

For each ``*.py`` file in ``DIR`` (default: this repository's
``src/cantorlab``) it prints the file's lines, its code lines, the best
of 20 timings of ``compile()`` of its source, in ms, and the spread of
those timings (their interquartile range), then the totals.  A code line
holds a token that is not a comment and not part of a docstring.  Each of
the 20 rounds compiles every module once, in the order of the round before
rotated by one, so no module always follows the same one: a module's time
depends on what was compiled just before it.  Every command that imports
the package without cached bytecode pays the compile time, so the two
columns are the start-up cost of the source's size.  Pass another
checkout's package as ``--src`` to compare two trees on the same machine.

Garbage collection is off while it times, as in ``timeit``.  Resolution,
measured on a 2-core x86-64 machine with Python 3.11: in two batches of
six runs over one tree, per-module bests stayed within 0.06 ms of each
other and totals within 0.21 ms (0.08 ms in the quieter batch), and a
byte-identical module read within 0.04 ms in two trees; so a change below
about 0.05 ms per module or 0.2 ms in total is not resolved.
"""

from __future__ import annotations

import argparse
import ast
import gc
import io
import statistics
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


def compile_times(sources: list[tuple[str, str]]) -> list[list[float]]:
    """The ``REPEAT`` timings of ``compile()`` of each (source, name), in
    ms; round ``r`` starts at module ``r`` and goes round the list."""
    times: list[list[float]] = [[] for _ in sources]
    gc.disable()  # as timeit does: no collection lands inside a timing
    for r in range(REPEAT):
        for k in range(len(sources)):
            m = (r + k) % len(sources)
            start = time.perf_counter()
            compile(*sources[m], "exec", dont_inherit=True)
            times[m].append((time.perf_counter() - start) * 1e3)
    gc.enable()
    return times


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src" / "cantorlab")
    args = ap.parse_args()
    paths = sorted(args.src.glob("*.py"))
    sources = [(p.read_text(encoding="utf-8"), str(p)) for p in paths]
    times = compile_times(sources)
    print(f"{'module':<16}{'lines':>7}{'code':>7}{'compile_ms':>12}{'spread_ms':>11}")
    totals = [0, 0, 0.0]
    for path, (source, _), ms in zip(paths, sources, times):
        q1, _, q3 = statistics.quantiles(ms, n=4)
        row = (source.count("\n"), code_lines(source), min(ms))
        totals = [t + v for t, v in zip(totals, row)]
        print(f"{path.stem:<16}{row[0]:>7}{row[1]:>7}{row[2]:>12.2f}{q3 - q1:>11.3f}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>7}{totals[2]:>12.2f}")


if __name__ == "__main__":
    main()
