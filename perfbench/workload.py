"""One benchmark workload, run in a fresh interpreter by ``run.py``.

A pass drives the public CLI entry point ``cantorlab.cli.main`` in this
process, one command at a time: for each of the 16 selectors in an order
shuffled by the seed, ``run --trace <tmp>`` and then ``verify --quiet`` on
that trace.  Passes repeat in a closed loop while the next one is predicted
to end within the time budget; at least one pass always runs.

Every command is checked: a run must exit 0 and write a trace whose sha256
matches ``golden.json``; a verify must exit 0 and report a deterministic
replay with no failed obligation or budget check and the expected number of
budget checks.

With ``--trace 1`` the workload instead runs one untraced pass and the same
pass again with the tracer installed, and reports per-layer metrics.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):
    python3 perfbench/workload.py --scenario main --seed 1 \
        --seconds 40 --trace 0 --work .perfbench-work/run
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import cantorlab.cli as cli

import refspeed
from layers import COMMANDS, OVERHEAD, layer_metrics
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "src" / "cantorlab" / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden.json"


@dataclass
class PassStats:
    """One pass.  Times are seconds at reference speed (see refspeed.py);
    the ``wall_`` fields are the raw wall times."""

    run_s: float = 0.0
    verify_s: float = 0.0
    slowest_s: float = 0.0
    slowest_cmd: str = ""
    wall_run_s: float = 0.0
    wall_verify_s: float = 0.0
    trace_bytes: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.run_s + self.verify_s

    def add(self, kind: str, sel: str, wall: float, scale: float) -> None:
        secs = wall * scale
        if kind == "run":
            self.run_s += secs
            self.wall_run_s += wall
        else:
            self.verify_s += secs
            self.wall_verify_s += wall
        self.attempted += 1
        if secs > self.slowest_s:
            self.slowest_s, self.slowest_cmd = secs, f"{kind} {sel}"


def invoke(main, argv: list[str]) -> tuple[int, float, str]:
    """Call the CLI entry point; return exit code, wall seconds and stdout."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, time.perf_counter() - start, out.getvalue()


class Clock:
    """Times commands at reference speed (see refspeed.py): each command is
    scaled by kernel samples taken just before it, while it runs and just
    after it."""

    def __init__(self) -> None:
        gc.collect()
        self.last = refspeed.sample()

    def time(self, main, argv: list[str]) -> tuple[int, float, float, str]:
        """Exit code, wall seconds, scale factor and stdout of one command."""
        before = self.last
        with refspeed.Sampling() as during:
            code, wall, out = invoke(main, argv)
        gc.collect()
        self.last = refspeed.sample()
        scale = refspeed.scale(before + self.last, during.samples)
        return code, wall - during.spent, scale, out


def run_pass(order: list[str], scenario: str, golden: dict, work: Path,
             mains: dict | None = None) -> PassStats:
    """One pass over ``order``; ``mains`` maps command kind to the entry point."""
    mains = mains or {c: cli.main for c in COMMANDS}
    path = str(SCENARIOS / f"{scenario}.json")
    stats = PassStats()
    clock = Clock()
    for sel in order:
        trace = work / f"{sel}.jsonl"
        code, wall, scale, _ = clock.time(mains["run"], [
            "run", "--scenario", path, "--select", sel, "--trace", str(trace)])
        stats.add("run", sel, wall, scale)
        data = trace.read_bytes() if trace.exists() else b""
        stats.trace_bytes += len(data)
        if code != 0:
            stats.failures.append(f"run {sel}: exit {code}")
        elif hashlib.sha256(data).hexdigest() != golden["traces"][sel]["sha256"]:
            stats.failures.append(f"run {sel}: trace digest differs from golden")

        code, wall, scale, out = clock.time(mains["verify"], [
            "verify", "--trace", str(trace), "--quiet"])
        stats.add("verify", sel, wall, scale)
        problem = _verify_problem(code, out, sel, golden["budget_checks"])
        if problem:
            stats.failures.append(f"verify {sel}: {problem}")
        trace.unlink(missing_ok=True)
    return stats


def _verify_problem(code: int, out: str, sel: str, budget_checks: int) -> str | None:
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        report = {}
    if code != 0:
        return f"exit {code}"
    if report.get("selector") != sel:
        return "no report line"
    if report.get("deterministic") is not True:
        return "deterministic: false"
    if report.get("failed") or report.get("budget_failed"):
        return f"failed {report.get('failed')} budget_failed {report.get('budget_failed')}"
    if report.get("budget_checks") != budget_checks:
        return f"budget_checks {report.get('budget_checks')} != {budget_checks}"
    return None


def timed_passes(order_rng: random.Random, scenario: str, golden: dict,
                 work: Path, seconds: float) -> list[PassStats]:
    """Untraced passes in a closed loop until the next would overrun ``seconds``."""
    selectors = sorted(golden["traces"])
    passes: list[PassStats] = []
    start = time.perf_counter()
    while True:
        order = order_rng.sample(selectors, len(selectors))
        passes.append(run_pass(order, scenario, golden, work))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def traced_pass(order: list[str], scenario: str, golden: dict, work: Path,
                spans_out: Path) -> tuple[PassStats, PassStats, dict[str, float]]:
    """The same pass untraced and traced; the per-layer metrics of the latter."""
    plain = run_pass(order, scenario, golden, work)
    tracer = Tracer()
    counts: dict[str, dict[str, int]] = {c: {} for c in COMMANDS}
    active = dict.fromkeys(COMMANDS, 0)

    def command(kind: str):
        """Entry point for ``kind`` commands: one ``bench.<kind>`` span each,
        with the count-only hooks and realizer stages tallied per kind."""
        # cli.main is looked up at call time, so its installed wrapper runs
        span = tracer.span(f"bench.{kind}", lambda argv: cli.main(argv))

        def main(argv):
            before = tracer.counts()
            try:
                return span(argv)
            finally:
                for name, n in tracer.counts().items():
                    counts[kind][name] = counts[kind].get(name, 0) + n - before.get(name, 0)
                active[kind] += tracer.take_active_stages()
        return main

    tracer.install()
    try:
        traced = run_pass(order, scenario, golden, work,
                          {c: command(c) for c in COMMANDS})
    finally:
        tracer.uninstall()
    spans_out.write_text(json.dumps({"spans": tracer.dump(), "counts": counts}) + "\n",
                         encoding="utf-8")
    metrics: dict[str, float] = {}
    roots = tracer.nodes[0].kids
    for kind in COMMANDS:
        values = layer_metrics(tracer, roots[f"bench.{kind}"], counts[kind], active[kind])
        metrics.update({f"{kind}.{k}": v for k, v in values.items()})
    metrics[OVERHEAD] = traced.total_s / plain.total_s
    return plain, traced, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scenario", required=True, help="bundled scenario name")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True,
                    help="directory for temporary traces")
    args = ap.parse_args(argv)

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[args.scenario]
    if sorted(golden["traces"]) != sorted(c.name for c in cli.CATALOG):
        raise SystemExit("golden.json selectors differ from the CLI catalog")
    args.work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    result: dict = {}
    if args.trace:
        order = rng.sample(sorted(golden["traces"]), len(golden["traces"]))
        spans = args.work.parent / f"spans-{args.scenario}-seed{args.seed}.json"
        plain, traced, metrics = traced_pass(order, args.scenario, golden, args.work, spans)
        passes = [plain, traced]
        result["layer_metrics"] = metrics
        result["spans_file"] = str(spans.relative_to(ROOT))
    else:
        passes = timed_passes(rng, args.scenario, golden, args.work, args.seconds)
    result["passes"] = [vars(p) for p in passes]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
