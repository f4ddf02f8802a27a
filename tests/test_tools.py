"""Smoke tests of the measurement scripts in ``tools/``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Lines 5, 6, 9 and 11 are code: a docstring, a comment-only line and a
# blank line are not, and each line of a continued expression is.
SAMPLE = '''"""A module docstring
over two lines."""

# a comment-only line
x = (1 +
     2)  # a trailing comment


def f():
    """A function docstring."""
    return x
'''


def test_cmd_times_names_the_two_slowest():
    """One rep of one selector: a line per command, then the JSON summary."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cmd_times.py"), "--select", "combinators",
         "--reps", "1"], check=True, capture_output=True, text=True, timeout=60).stdout
    *rows, total, last = out.splitlines()
    report = json.loads(last)
    assert sorted(report["slowest"]) == ["run combinators", "verify combinators"]
    assert sorted(report["median_ms"]) == sorted(report["slowest"]) and len(rows) == 2
    assert report["scenario"] == "main" and report["reps"] == 1
    # one selector: each kind's total is its one command's median
    assert report["total_ms"] == {"run": report["median_ms"]["run combinators"],
                                  "verify": report["median_ms"]["verify combinators"]}
    assert total.startswith("total run ") and " total verify " in total


def test_cmd_times_against_a_tree():
    """One rep of one selector against this tree itself: a line per command
    with both trees' medians and the rounds won, then the JSON summary."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cmd_times.py"), "--select", "lemma31",
         "--reps", "1", "--rounds", "1", "--against", str(ROOT)],
        check=True, capture_output=True, text=True, timeout=60).stdout
    *rows, last = out.splitlines()
    report = json.loads(last)
    assert sorted(report["median_ms"]) == ["run lemma31", "verify lemma31"] and len(rows) == 4
    assert all(len(ms) == 2 and min(ms) > 0 for ms in report["median_ms"].values())
    assert sorted(report["won"]) == sorted(report["change_pct"]) == sorted(report["median_ms"])
    assert set(report["won"].values()) <= {0, 1}
    # the per-kind totals, paired per round like the commands
    assert report["total_median_ms"] == {"run": report["median_ms"]["run lemma31"],
                                         "verify": report["median_ms"]["verify lemma31"]}
    assert report["total_change_pct"] == {"run": report["change_pct"]["run lemma31"],
                                          "verify": report["change_pct"]["verify lemma31"]}
    assert report["total_won"] == {"run": report["won"]["run lemma31"],
                                   "verify": report["won"]["verify lemma31"]}
    assert sorted(row.split("  ")[0].strip() for row in rows[2:]) == ["total run", "total verify"]
    assert (report["scenario"], report["reps"], report["rounds"]) == ("main", 1, 1)
    assert report["against"] == str(ROOT)


def test_code_lines_counts_only_code():
    spec = importlib.util.spec_from_file_location(
        "compile_cost", ROOT / "tools" / "compile_cost.py")
    compile_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compile_cost)
    assert compile_cost.code_lines(SAMPLE) == 4
    assert compile_cost.code_lines("") == 0


def test_compile_cost_ends_with_the_counts(tmp_path):
    """The last line is JSON: each module's lines and code lines, and the totals."""
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compile_cost.py"), "--src", str(tmp_path)],
        check=True, capture_output=True, text=True, timeout=60).stdout
    assert json.loads(out.splitlines()[-1]) == {
        "modules": {"sample": {"lines": 11, "code": 4}}, "total": {"lines": 11, "code": 4}}
