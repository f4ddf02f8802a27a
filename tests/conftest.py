from __future__ import annotations

import json

import pytest

from cantorlab import bundled_scenario
from cantorlab.cli import _text_blocks
from cantorlab.core import Clopen
from cantorlab.enumeration import (
    Scenario,
    descending_chain,
    load_scenario,
    universal_sum,
    validate_scenario,
)

DEPTH = 8
LEAVES = 1 << DEPTH
FULL_MASK = (1 << LEAVES) - 1


def leaf_mask(strings, depth: int = DEPTH) -> int:
    """Bitset-of-leaves oracle: bit k set iff the depth-`depth` leaf with
    binary expansion k is covered by some cylinder."""
    mask = 0
    for s in strings:
        gap = depth - len(s)
        lo = int(s, 2) << gap if s else 0
        width = 1 << gap
        mask |= ((1 << width) - 1) << lo
    return mask


def leftmost_uncovered(length: int, cones: Clopen) -> str | None:
    """Leftmost length-``length`` string whose cylinder is not inside ``cones``:
    the one over the first leaf the spans leave out."""
    d, b = cones.max_length(), cones._b
    gap = b[1] if b and b[0] == 0 else 0
    if gap == 1 << d:
        return None
    v = gap >> (d - length) if length <= d else gap << (length - d)
    return format(v, f"0{length}b") if length else ""


def written_lines(entries) -> list[str]:
    """The lines of ``entries`` as a trace file holds them: a run entry of
    ``ConstructionTrace.lines()`` is one line per stage."""
    return "".join(_text_blocks(entries)).split("\n")[:-1]


def decoded_events(trace) -> list[dict]:
    """A trace's events as records, read from their written lines."""
    return [json.loads(line) for line in written_lines(trace.events)]


@pytest.fixture(scope="session")
def main_scenario() -> Scenario:
    sc = load_scenario(bundled_scenario("main"))
    validate_scenario(sc)
    return sc


@pytest.fixture(scope="session")
def deep_scenario() -> Scenario:
    sc = load_scenario(bundled_scenario("deep"))
    validate_scenario(sc)
    return sc


@pytest.fixture(scope="session")
def surrogate(main_scenario):
    return universal_sum(main_scenario)


@pytest.fixture(scope="session")
def chain(surrogate):
    return descending_chain(surrogate)
