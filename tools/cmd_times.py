"""In-process median time of every command on a bundled scenario.

Usage (from the repository root; standard library only):

    python3 tools/cmd_times.py [--src DIR] [--scenario main] [--reps 5] \\
        [--select SEL ...]

``--src`` (default: this repository's ``src``) is put first on
``sys.path``, so another checkout's package can be timed.  Each rep runs,
for every selector (all 16 by default, in catalog order), ``run --trace
<tmp>`` and then ``verify --quiet`` on that trace through
``cantorlab.cli.main`` in this process, as perfbench's workload does:
``gc.collect()`` before each command and the trace unlinked after its
verify.  A command that exits non-zero stops the tool.  It prints one line
per ``(kind, selector)`` command, slowest median first, with the median and
range of its wall times in ms, and ends with one JSON line holding every
median and naming the two slowest commands.  Times are raw wall times, so
compare two trees only in alternating runs on the same machine.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--scenario", default="main")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--select", nargs="+")
    args = ap.parse_args()
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
    for cmd in ranked:
        ts = times[cmd]
        print(f"{cmd:<28} {medians[cmd]:8.3f} ms  ({min(ts) * 1e3:.3f}-{max(ts) * 1e3:.3f})")
    print(json.dumps({"scenario": args.scenario, "reps": max(args.reps, 1),
                      "slowest": ranked[:2],
                      "median_ms": {cmd: round(medians[cmd], 4) for cmd in ranked}}))


if __name__ == "__main__":
    main()
