"""Wall time and peak RSS of ``run --trace`` and then ``verify --quiet`` of
one selector at a stage budget, each command in a fresh interpreter, e.g.
``python3 tools/cap_timing.py --src src --select cn_times_mlr --stages
1000000 --repeats 5`` (the defaults), with ``PYTHONPATH`` set to ``--src``;
``--scenario`` defaults to that tree's ``main.json``.  Per command it prints
the median and range of the wall times and the largest ``ru_maxrss``."""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def timed(cmd: list[str], env: dict, log) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one child running ``cmd``."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=log)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code:
        log.seek(0)
        raise SystemExit(f"{' '.join(cmd)} exited {code}:\n{log.read()}")
    return wall, usage.ru_maxrss / 1024


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag, default in (("--src", "src"), ("--scenario", None),
                          ("--select", "cn_times_mlr"), ("--stages", 10**6),
                          ("--repeats", 5)):
        ap.add_argument(flag, default=default, type=type(default or ""))
    args = ap.parse_args()
    src = Path(args.src).resolve()
    scenario = args.scenario or str(src / "cantorlab" / "scenarios" / "main.json")
    env = dict(os.environ, PYTHONPATH=str(src))
    cli = [sys.executable, "-m", "cantorlab.cli"]
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryFile("w+") as log:
        trace = str(Path(tmp) / "trace.jsonl")
        commands = {"run": cli + ["run", "--scenario", scenario, "--select", args.select,
                                  "--stages", str(args.stages), "--trace", trace],
                    "verify": cli + ["verify", "--quiet", "--trace", trace]}
        rows: dict[str, list] = {name: [] for name in commands}
        for _ in range(args.repeats):  # each run writes a new file, as at the first
            for name, cmd in commands.items():
                rows[name].append(timed(cmd, env, log))
            os.remove(trace)
    print(f"{args.select} at S={args.stages}, {args.repeats} repeats, {src}")
    for name, got in rows.items():
        walls = [w for w, _ in got]
        print(f"  {name}: median {statistics.median(walls):.3f} s (range {min(walls):.3f}"
              f"-{max(walls):.3f} s), peak RSS {max(r for _, r in got):.1f} MB")


if __name__ == "__main__":
    main()
