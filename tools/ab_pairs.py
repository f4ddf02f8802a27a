"""Alternating parent/change pairs of the benchmark, with the statistics a
``BENCH_*.json`` records.

Usage (from the repository root; standard library only):

    python3 tools/ab_pairs.py --parent REF [--change REF] [--pairs 10] \\
        [--seed-base 300] [--trace-seed N [--trace-runs 3]] [--out BENCH.json] \\
        [--workdir DIR]

The committed files of ``--parent`` and ``--change`` (default ``HEAD``) are
exported with ``git archive`` into two fresh directories under ``--workdir``
(made if missing; default: a new temporary directory), so each side runs its
own ``perfbench/run.py`` from its own files and neither holds compiled
bytecode from an earlier run.  To measure uncommitted work, pass ``--change $(git
stash create)``, a commit of the working tree that moves no ref.

For each workload of ``BENCHMARK.json``, pair ``i`` runs ``perfbench/run.py
--workload W --seed (seed-base + i) --seconds S --trace 0`` once on each side,
``S`` being the benchmark's ``run_seconds``, one process at a time; even
pairs run the parent first and odd pairs the change first.  Each run record
keeps the command that ``run.py`` names as the slowest of its first pass
(``slowest_cmd``, ``"<kind> <selector>"``), and ``slowest_cmd_counts``
counts those commands per side, so a ``slowest_cmd_s`` reading shows which
command set it.  With
``--trace-seed T``, traced runs (``--trace 1``) follow the pairs, for the
per-layer counts and times: ``--trace-runs N`` (default 1) alternating pairs
of them per workload, pair ``j`` at seed ``T + j`` and ordered like the
pairs above.  The record keeps each side's median of every metric over its
N traced runs, and the lowest and highest reading, because a single traced
run's layer times move by 10-20% between identical runs.

For every end-to-end metric of ``BENCHMARK.json`` the output gives each
side's median and quartiles (``statistics.quantiles(n=4,
method='inclusive')``), the pairs in which the change is better (ties count
for neither side) and whether the gain rule holds: the change better in at
least nine tenths of the pairs, and the medians apart by more than the
parent's interquartile distance.  The JSON is rewritten after every run, so
an interrupted session keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOWEST = "slowest command of the first pass: "


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(sha: str, dest: Path) -> None:
    """The committed files of ``sha`` in ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"exporting {sha}: git archive exited {archive.returncode}, "
                         f"tar {untar.returncode}")


def bench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``side``: its JSON result line, with
    the slowest command it printed (None when it printed none) as
    ``slowest_cmd``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side, text=True, stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench in {side} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["slowest_cmd"] = next(
        (line[len(SLOWEST):] for line in lines if line.startswith(SLOWEST)), None)
    return result


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(values[0], 6)] * 2 if values else []
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 6), round(q[2], 6)]


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles, wins and the gain rule for one metric over the
    pairs run so far (``parent[i]`` and ``change[i]`` are pair ``i``)."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    pq = quartiles(parent)
    return {
        "pairs": len(parent),
        "pairs_change_better": wins,
        "parent_median": round(pm, 6),
        "change_median": round(cm, 6),
        "parent_quartiles": pq,
        "change_quartiles": quartiles(change),
        "change_over_parent_median": round(cm / pm, 4) if pm else None,
        "gain_rule_met": wins >= 0.9 * len(parent) and sign * (pm - cm) > pq[1] - pq[0],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--change", default="HEAD", help="git ref of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=300)
    ap.add_argument("--trace-seed", type=int, help="also traced runs, from this seed")
    ap.add_argument("--trace-runs", type=int, default=1,
                    help="traced runs per side (the median is recorded)")
    ap.add_argument("--out", type=Path, help="JSON output file (default stdout)")
    ap.add_argument("--workdir", type=Path, help="where the two exports go")
    args = ap.parse_args(argv)
    if args.trace_runs < 1:
        ap.error("--trace-runs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}

    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="ab-pairs-", dir=args.workdir))
    sides = {name: base / name for name in shas}
    out: dict = {
        "command": (f"perfbench/run.py --workload W --seed s --seconds {seconds:g} "
                    f"--trace 0 in git archive exports of each side; seeds "
                    f"{args.seed_base}..{args.seed_base + args.pairs - 1}; even pairs "
                    f"run the parent first; one process at a time"),
        "parent": shas["parent"], "change": shas["change"], "cpus": os.cpu_count(),
    }

    def write() -> None:
        text = json.dumps(out, indent=1) + "\n"
        if args.out:
            args.out.write_text(text, encoding="utf-8")
        else:
            print(text, end="")

    try:
        for name, sha in shas.items():
            export(sha, sides[name])
        for w in workloads:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            record = out[w] = {"runs": runs}
            for i in range(args.pairs):
                seed = args.seed_base + i
                for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    result = bench(sides[name], w, seed, seconds, 0)
                    runs[name].append({"seed": seed, "correct": result["correct"],
                                       "attempted": result["attempted"],
                                       "failed": result["failed"],
                                       "slowest_cmd": result["slowest_cmd"],
                                       **{k: m["value"] for k, m in result["metrics"].items()}})
                    print(f"{w} seed {seed} {name}: " + ", ".join(
                        f"{k} {runs[name][-1][k]:.6g}" for k in metrics), file=sys.stderr)
                done = min(len(runs["parent"]), len(runs["change"]))
                record["summary"] = {k: summarize([r[k] for r in runs["parent"][:done]],
                                                  [r[k] for r in runs["change"][:done]], better)
                                     for k, better in metrics.items()}
                record["failed_total"] = {n: sum(r["failed"] for r in rs)
                                          for n, rs in runs.items()}
                record["slowest_cmd_counts"] = {
                    n: dict(collections.Counter(r["slowest_cmd"] for r in rs).most_common())
                    for n, rs in runs.items()}
                if args.out:
                    write()
            if args.trace_seed is not None:
                traced: dict[str, list[dict]] = {"parent": [], "change": []}
                for j in range(args.trace_runs):
                    for name in (("parent", "change") if j % 2 == 0 else ("change", "parent")):
                        result = bench(sides[name], w, args.trace_seed + j, seconds, 1)
                        traced[name].append({k: m["value"]
                                             for k, m in result["metrics"].items()})
                record["traced"] = {
                    "seeds": [args.trace_seed + j for j in range(args.trace_runs)],
                    **{name: {k: statistics.median(r[k] for r in rs) for k in rs[0]}
                       for name, rs in traced.items()},
                    **{f"{name}_range": {k: [min(r[k] for r in rs), max(r[k] for r in rs)]
                                         for k in rs[0]}
                       for name, rs in traced.items()}}
        write()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
