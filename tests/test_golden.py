"""Behaviour pinned across commits: every selector's trace on both bundled
scenarios must hash to the digest recorded in ``perfbench/golden.json``, and
verify's budget sweep must report the recorded number of checks.  Every dict
a trace writes is keyed by strings, so its key order does not depend on how
the encoder sorts other keys."""

import hashlib
import json
from pathlib import Path

import pytest

from cantorlab import bundled_scenario
from cantorlab.cli import (
    CATALOG,
    _budget_sweep,
    _text_blocks,
    execute,
    produce,
    trace_lines,
)
from cantorlab.constructions import ConstructionTrace
from cantorlab.enumeration import MLTest, load_scenario, validate_scenario

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
    data = "".join(_text_blocks(lines)).encode("utf-8")
    want = GOLDEN[scenario_name]["traces"][selector]
    assert len(data) == want["bytes"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]


def _dict_keys(value):
    """Every dict key under ``value``; a test's notes are the only dict a
    library value holds."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield k
            yield from _dict_keys(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _dict_keys(v)
    elif isinstance(value, MLTest):
        yield from _dict_keys(value.notes)


@pytest.mark.parametrize("scenario_name", ["main", "deep"])
@pytest.mark.parametrize("selector", [c.name for c in CATALOG])
def test_trace_dict_keys_are_strings(scenario_name, selector):
    """The encoder sorts keys that are not strings by value, not as the
    strings it writes them as."""
    trace = execute(_scenario(scenario_name), selector)
    values = [trace.outputs, *(w["data"] for w in trace.obligations())]
    assert [k for k in _dict_keys(values) if not isinstance(k, str)] == []


@pytest.mark.parametrize("scenario_name", ["main", "deep"])
def test_budget_checks_match_golden(scenario_name):
    sc = _scenario(scenario_name)
    trace = ConstructionTrace()
    checks = _budget_sweep(trace, sc.derived, sc.budgets, 1)
    assert checks == GOLDEN[scenario_name]["budget_checks"]
    assert trace.failed_claims() == []


def test_cn_times_mlr_trace_at_the_stage_cap():
    """``cn_times_mlr`` on ``main`` at the documented cap S = 10^6: its run
    of ``stable`` events crosses every thousand of the stage numbers and
    reaches the 7-digit stage 10^6.  The text is hashed a block at a time,
    so it is never held whole and no file is written."""
    sc = load_scenario(bundled_scenario("main"), {"S": 10**6})
    _, lines = produce(sc, "cn_times_mlr", None, None, 1)
    digest, size, count = hashlib.sha256(), 0, 0
    for block in _text_blocks(lines):
        data = block.encode("utf-8")
        digest.update(data)
        size += len(data)
        count += data.count(b"\n")
    assert (size, count) == (228_567_912, 4_000_106)
    assert digest.hexdigest() == (
        "bf5e5fbe4dd07e9f2e3c7f261481d58ef9936a3369edba3bcac382092094d185")
