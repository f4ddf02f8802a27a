"""Smoke tests of the measurement scripts in ``tools/``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cmd_times_names_the_two_slowest():
    """One rep of one selector: a line per command, then the JSON summary."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cmd_times.py"), "--select", "combinators",
         "--reps", "1"], check=True, capture_output=True, text=True, timeout=60).stdout
    *rows, last = out.splitlines()
    report = json.loads(last)
    assert sorted(report["slowest"]) == ["run combinators", "verify combinators"]
    assert sorted(report["median_ms"]) == sorted(report["slowest"]) and len(rows) == 2
    assert report["scenario"] == "main" and report["reps"] == 1
