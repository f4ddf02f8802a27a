"""In-process median time of every command on a bundled scenario.

Usage (from the repository root; standard library only):

    python3 tools/cmd_times.py [--src DIR] [--scenario main] [--reps 5] \\
        [--select SEL ...] [--against DIR [--rounds 5]]

``--src`` (default: this repository's ``src``) is put first on
``sys.path``, so another checkout's package can be timed.  Each rep runs,
for every selector (all 16 by default, in catalog order), ``run --trace
<tmp>`` and then ``verify --quiet`` on that trace through
``cantorlab.cli.main`` in this process, as perfbench's workload does:
``gc.collect()`` before each command and the trace unlinked after its
verify.  A command that exits non-zero stops the tool.  It prints one line
per ``(kind, selector)`` command, slowest median first, with the median and
range of its wall times in ms, then one line with the sum of the ``run``
medians and the sum of the ``verify`` medians (an in-process proxy for
perfbench's ``run_s`` and ``verify_s``), and ends with one JSON line holding
every median, those two totals and the two slowest commands.  Times are raw
wall times, so compare two trees only in alternating runs on the same
machine.

``--against DIR`` does that: it compares ``--src`` with ``DIR/src`` in
``--rounds`` rounds, each running this script once per tree, one process at
a time, with the other options as given; even rounds time ``--src`` first
and odd rounds ``DIR`` first.  A command's reading in a round is that
process's median.  It prints one line per command, slowest first: the median
over the rounds for each tree, the change from ``DIR`` in percent (the
median over the rounds of the ratio of the two readings, which were taken
back to back), and the rounds in which ``--src`` was faster; then the same
for the ``run`` and ``verify`` totals, each round's total being the sum of
that process's medians; then one JSON line with the medians of both trees,
the changes and those round counts, per command and per total.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed(main, argv: list[str]) -> float:
    """Wall seconds of ``main(argv)``, its output discarded, after a
    collection; SystemExit if it exits non-zero."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return wall


def against(args: argparse.Namespace) -> None:
    """Alternating rounds of this script on ``--src`` and ``DIR/src``."""
    srcs = [str(Path(args.src).resolve()), str((Path(args.against) / "src").resolve())]
    rounds = max(args.rounds, 1)
    readings: dict[str, tuple[list[float], list[float]]] = {}
    totals: dict[str, tuple[list[float], list[float]]] = {}
    for r in range(rounds):
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            argv = [sys.executable, __file__, "--src", srcs[side], "--scenario",
                    args.scenario, "--reps", str(args.reps)]
            if args.select:
                argv += ["--select", *args.select]
            out = subprocess.run(argv, check=True, text=True, stdout=subprocess.PIPE).stdout
            report = json.loads(out.splitlines()[-1])
            for into, key in ((readings, "median_ms"), (totals, "total_ms")):
                for cmd, ms in report[key].items():
                    into.setdefault(cmd, ([], []))[side].append(ms)
    summary: dict[str, dict] = {}
    for into, prefix in ((readings, ""), (totals, "total_")):
        medians = {cmd: [statistics.median(ts) for ts in sides] for cmd, sides in into.items()}
        won = {cmd: sum(a < b for a, b in zip(*sides)) for cmd, sides in into.items()}
        # A round's two processes ran back to back, so their ratio is paired.
        change = {cmd: (statistics.median(a / b for a, b in zip(*sides)) - 1) * 100
                  for cmd, sides in into.items()}
        ranked = sorted(medians, key=lambda cmd: max(medians[cmd]), reverse=True)
        for cmd in ranked:
            this, other = medians[cmd]
            print(f"{prefix.replace('_', ' ') + cmd:<28} {this:8.3f} ms  against {other:8.3f} ms  "
                  f"({change[cmd]:+6.1f}%)  faster in {won[cmd]}/{rounds}")
        summary |= {
            prefix + "median_ms": {cmd: [round(ms, 4) for ms in medians[cmd]] for cmd in ranked},
            prefix + "change_pct": {cmd: round(change[cmd], 2) for cmd in ranked},
            prefix + "won": {cmd: won[cmd] for cmd in ranked}}
    print(json.dumps({"scenario": args.scenario, "reps": max(args.reps, 1), "rounds": rounds,
                      "against": args.against, **summary}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--scenario", default="main")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--select", nargs="+")
    ap.add_argument("--against")
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args()
    if args.against:
        against(args)
        return
    sys.path.insert(0, str(Path(args.src).resolve()))
    import cantorlab.cli as cli
    from cantorlab import bundled_scenario

    scenario = str(bundled_scenario(args.scenario))
    selectors = args.select or list(cli.SELECTORS)
    times: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory() as work:
        trace = Path(work) / "trace.jsonl"
        for _ in range(max(args.reps, 1)):
            for sel in selectors:
                times.setdefault(f"run {sel}", []).append(timed(cli.main, [
                    "run", "--scenario", scenario, "--select", sel, "--trace", str(trace)]))
                times.setdefault(f"verify {sel}", []).append(timed(cli.main, [
                    "verify", "--trace", str(trace), "--quiet"]))
                trace.unlink()
    medians = {cmd: statistics.median(ts) * 1e3 for cmd, ts in times.items()}
    ranked = sorted(medians, key=medians.get, reverse=True)
    totals = {kind: sum(ms for cmd, ms in medians.items() if cmd.split()[0] == kind)
              for kind in ("run", "verify")}
    for cmd in ranked:
        ts = times[cmd]
        print(f"{cmd:<28} {medians[cmd]:8.3f} ms  ({min(ts) * 1e3:.3f}-{max(ts) * 1e3:.3f})")
    print(f"total run {totals['run']:.3f} ms  total verify {totals['verify']:.3f} ms")
    print(json.dumps({"scenario": args.scenario, "reps": max(args.reps, 1),
                      "slowest": ranked[:2],
                      "median_ms": {cmd: round(medians[cmd], 4) for cmd in ranked},
                      "total_ms": {kind: round(ms, 4) for kind, ms in totals.items()}}))


if __name__ == "__main__":
    main()
