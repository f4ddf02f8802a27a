"""Cold-start wall time of one ``cantorlab`` command in two source trees,
from alternating pairs of fresh interpreters.

Usage (standard library only):

    python3 tools/cold_start.py --parent DIR --change DIR [--pairs 30] [-S] \\
        (--setup SCENARIO | -- ARGS...)

``DIR`` is the root of a checkout or of a ``git archive`` export; its
``src`` is the child's ``PYTHONPATH`` and the child runs in ``DIR``, so a
relative path in ``ARGS`` names each tree's own file.  A child imports
``cantorlab.cli`` and either calls ``cli.main(ARGS)`` or, with ``--setup``,
loads and validates ``SCENARIO``, as ``perfbench``'s ``setup_s`` does.  A
sample is the wall time from spawning the child to its exit.  ``-S`` starts
each child without the ``site`` module, so no ``.pth`` file in site-packages
imports modules before the package does.

Each child runs with bytecode writing off (``-B``), so a tree without
``__pycache__`` compiles the package from source at every start; a tree
that has one under ``src`` is refused.  Pair ``i`` runs the parent first
when ``i`` is even and the change first otherwise.  The output gives each
side's median and quartiles in ms and the number of modules the child's
code loads on each side, then the pairs in which the change is faster and
whether the gain rule holds, then the same as one JSON line.  The
statistics and the rule are ``tools/ab_pairs.py``'s ``summarize``: the
change faster in at least nine tenths of the pairs, and the medians apart
by more than the parent's interquartile distance.  Both sides must exit
with the same code.

Example, a construction's run in a clean interpreter:

    python3 tools/cold_start.py --parent /tmp/a --change /tmp/b -S -- \\
        run --scenario src/cantorlab/scenarios/main.json --select lemma31 \\
        --trace /dev/null
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from ab_pairs import summarize

CHILD = """\
import sys
census, setup, args = sys.argv[1] == "1", sys.argv[2] == "1", sys.argv[3:]
before = set(sys.modules)
import cantorlab.cli
if setup:
    from cantorlab.enumeration import load_scenario, validate_scenario
    validate_scenario(load_scenario(args[0]))
    code = 0
else:
    code = cantorlab.cli.main(args)
if census:
    print("modules loaded:", len(set(sys.modules) - before), file=sys.stderr)
sys.exit(code)
"""
CENSUS = "modules loaded: "


def child(tree: Path, args: argparse.Namespace, census: bool
          ) -> tuple[float, int, str]:
    """One cold start in ``tree``: its wall time in seconds, exit code and
    standard error."""
    flags = ["-B", *(["-S"] if args.S else [])]
    argv = [args.setup] if args.setup is not None else args.args
    cmd = [sys.executable, *flags, "-c", CHILD, str(int(census)),
           str(int(args.setup is not None)), *argv]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    return time.perf_counter() - start, proc.returncode, proc.stderr


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent source tree")
    ap.add_argument("--change", type=Path, required=True, help="changed source tree")
    ap.add_argument("--pairs", type=int, default=30)
    ap.add_argument("-S", action="store_true", help="start each child with -S")
    ap.add_argument("--setup", metavar="SCENARIO",
                    help="time import, load and validate of SCENARIO")
    ap.add_argument("args", nargs="*", help="cantorlab CLI arguments, after --")
    args = ap.parse_args(argv)
    if args.pairs < 30:
        ap.error("--pairs must be at least 30")
    if (args.setup is None) == (not args.args):
        ap.error("give either --setup SCENARIO or the CLI arguments")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, tree in trees.items():
        if not (tree / "src" / "cantorlab" / "cli.py").is_file():
            ap.error(f"--{name}: no src/cantorlab/cli.py under {tree}")
        if any((tree / "src").rglob("__pycache__")):
            ap.error(f"--{name}: {tree / 'src'} holds __pycache__; use a fresh export")

    modules, codes = {}, set()
    for name, tree in trees.items():  # one untimed start each, for the census
        _, code, err = child(tree, args, census=True)
        if CENSUS not in err:
            raise SystemExit(f"--{name}: the child failed:\n{err}")
        codes.add(code)
        modules[name] = int(err.rsplit(CENSUS, 1)[1].split()[0])
    times: dict[str, list[float]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            seconds, code, _ = child(trees[name], args, census=False)
            codes.add(code)
            times[name].append(seconds * 1e3)
    if len(codes) != 1:
        raise SystemExit(f"the children exited with different codes: {sorted(codes)}")

    stats = summarize(times["parent"], times["change"], "lower")
    summary: dict = {"command": argv if argv is not None else sys.argv[1:],
                     "exit_code": codes.pop(), "modules_loaded": modules, "unit": "ms",
                     **stats}
    for name in trees:
        q1, q3 = stats[f"{name}_quartiles"]
        print(f"{name:<7} median {stats[f'{name}_median']:7.2f} ms  "
              f"(q1 {q1:.2f}, q3 {q3:.2f})  modules loaded {modules[name]}")
    print(f"change/parent {stats['change_over_parent_median']:.4f}; change faster in "
          f"{stats['pairs_change_better']}/{args.pairs} pairs; gain rule "
          f"{'met' if stats['gain_rule_met'] else 'not met'}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
