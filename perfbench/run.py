"""cantorlab benchmark: end-to-end run/verify wall time per workload, or,
with ``--trace 1``, per-layer metrics from an outside-in traced pass.

Run from the repository root:

    python3 perfbench/run.py --workload main-batch --seed 1 --seconds 40 --trace 0

It measures set-up time with fresh interpreters, then starts the workload in
a fresh child interpreter (``workload.py``) so that caches and peak RSS do
not leak between runs.  Times are seconds at reference speed (see
``refspeed.py``); raw wall times are printed alongside.  It prints one line
per metric, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
It exits non-zero, without a result, when the checkout has no cantorlab
sources or the workload child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refspeed
from layers import COMMANDS, LAYER_METRICS, OVERHEAD

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# workload name -> bundled scenario it runs
WORKLOADS = {"main-batch": "main", "deep-sweep": "deep"}

SETUP_STARTS = 11
CHILD_TIMEOUT_S = 170.0
# A cold start reports when it is ready, then samples the reference kernel on
# its own CPU for the scale factor.
SETUP_CODE = (
    "import sys, time\n"
    "import cantorlab.cli\n"
    "from cantorlab.enumeration import load_scenario, validate_scenario\n"
    "validate_scenario(load_scenario(sys.argv[1]))\n"
    "ready = time.perf_counter()\n"
    "import json, refspeed\n"
    "print(json.dumps([ready, refspeed.sample()]))\n"
)


def child_env(*paths: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (SRC,) + paths)
    return env


def setup_seconds(scenario: Path) -> list[float]:
    """Seconds at reference speed from spawning a fresh interpreter until it
    has imported the CLI and loaded and validated the scenario."""
    times = []
    env = child_env(Path(__file__).parent)
    for _ in range(SETUP_STARTS):
        # perf_counter is CLOCK_MONOTONIC, shared with the child
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(scenario)],
                              cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE,
                              text=True, timeout=60)
        ready, samples = json.loads(proc.stdout)
        times.append((ready - start) * refspeed.scale(samples, []))
    return times


def run_child(args: argparse.Namespace, work: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("workload.py")),
           "--scenario", WORKLOADS[args.workload], "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"workload child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(name: str, values: list[float], unit: str) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"(q1 {q[0]:.6g}, q3 {q[2]:.6g}, min {min(values):.6g}, "
            f"max {max(values):.6g}, n={len(values)})")


def end_to_end_metrics(setup: list[float], result: dict) -> dict[str, dict]:
    """Medians over the passes of one untraced workload run."""
    passes = result["passes"]

    def med(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "run_s": {"value": med("run_s"), "unit": "s"},
        "verify_s": {"value": med("verify_s"), "unit": "s"},
        "slowest_cmd_s": {"value": med("slowest_s"), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        "trace_bytes": {"value": passes[0]["trace_bytes"], "unit": "B"},
    }


def per_layer_metrics(result: dict) -> dict[str, dict]:
    """The traced run's layer metrics, each with its unit."""
    units = {f"{c}.{m}": u for c in COMMANDS for m, u in LAYER_METRICS.items()}
    units[OVERHEAD] = "ratio"
    return {name: {"value": result["layer_metrics"][name], "unit": unit}
            for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    scenario = SRC / "cantorlab" / "scenarios" / f"{WORKLOADS[args.workload]}.json"
    if not (SRC / "cantorlab" / "cli.py").is_file() or not scenario.is_file():
        print(f"error: no cantorlab sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"run-{os.getpid()}"
    try:
        setup = [] if args.trace else setup_seconds(scenario)
        result = run_child(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures:
        print(f"FAIL {f}")
    print(f"workload {args.workload} ({WORKLOADS[args.workload]}.json), seed {args.seed}: "
          f"{len(passes)} passes, {attempted} commands, {len(failures)} failed")

    if args.trace:
        metrics = per_layer_metrics(result)
        consistent = True
        print(f"spans written to {result['spans_file']}")
    else:
        print(summary("setup_s", setup, "s"))
        for key in ("run_s", "verify_s", "slowest_s", "wall_run_s", "wall_verify_s"):
            print(summary(f"{key} per pass", [p[key] for p in passes], "s"))
        print(f"slowest command of the first pass: {passes[0]['slowest_cmd']}")
        metrics = end_to_end_metrics(setup, result)
        # an exact count: every pass writes the same traces
        consistent = len({p["trace_bytes"] for p in passes}) == 1
        if not consistent:
            print("FAIL trace bytes differ between passes")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")

    print(json.dumps({"correct": not failures and consistent, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
