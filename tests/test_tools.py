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


def test_cmd_times_against_a_tree():
    """One rep of one selector against this tree itself: a line per command
    with both trees' medians and the rounds won, then the JSON summary."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cmd_times.py"), "--select", "lemma31",
         "--reps", "1", "--rounds", "1", "--against", str(ROOT)],
        check=True, capture_output=True, text=True, timeout=60).stdout
    *rows, last = out.splitlines()
    report = json.loads(last)
    assert sorted(report["median_ms"]) == ["run lemma31", "verify lemma31"] and len(rows) == 2
    assert all(len(ms) == 2 and min(ms) > 0 for ms in report["median_ms"].values())
    assert sorted(report["won"]) == sorted(report["change_pct"]) == sorted(report["median_ms"])
    assert set(report["won"].values()) <= {0, 1}
    assert (report["scenario"], report["reps"], report["rounds"]) == ("main", 1, 1)
    assert report["against"] == str(ROOT)
