"""Behaviour pinned across commits: every selector's trace on both bundled
scenarios must hash to the digest recorded in ``perfbench/golden.json``, and
verify's budget sweep must report the recorded number of checks."""

import hashlib
import json
from pathlib import Path

import pytest

from cantorlab import bundled_scenario
from cantorlab.cli import (
    CATALOG,
    _budget_sweep,
    derived_tests,
    execute,
    trace_lines,
)
from cantorlab.constructions import ConstructionTrace
from cantorlab.enumeration import load_scenario, validate_scenario

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")
    .read_text(encoding="utf-8"))

_SCENARIOS: dict = {}


def _scenario(name: str):
    if name not in _SCENARIOS:
        sc = load_scenario(bundled_scenario(name))
        validate_scenario(sc)
        _SCENARIOS[name] = sc
    return _SCENARIOS[name]


@pytest.mark.parametrize("scenario_name", ["main", "deep"])
@pytest.mark.parametrize("selector", [c.name for c in CATALOG])
def test_trace_matches_golden_digest(scenario_name, selector):
    sc = _scenario(scenario_name)
    trace = execute(sc, selector)
    lines = trace_lines(sc, selector, trace, grace=None, sigma_stages=None,
                        stride=1)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    want = GOLDEN[scenario_name]["traces"][selector]
    assert len(data) == want["bytes"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]


@pytest.mark.parametrize("scenario_name", ["main", "deep"])
def test_budget_checks_match_golden(scenario_name):
    sc = _scenario(scenario_name)
    trace = ConstructionTrace(name="verify.budgets")
    checks = _budget_sweep(trace, derived_tests(sc), sc.budgets, 1)
    assert checks == GOLDEN[scenario_name]["budget_checks"]
    assert trace.failed_claims() == []
