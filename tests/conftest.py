from __future__ import annotations

import json
from itertools import product
from typing import Callable, Iterator, Mapping

import pytest

from cantorlab import bundled_scenario
from cantorlab.cli import _text_blocks
from cantorlab.core import Clopen, SearchExhaustedError, check_bits
from cantorlab.deficiency import CoTree, Stream
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


def extensions(prefix: str, length: int) -> Iterator[str]:
    """All length-``length`` extensions of ``prefix`` in lexicographic order."""
    if length >= len(prefix):
        for tail in product("01", repeat=length - len(prefix)):
            yield prefix + "".join(tail)


def brute_free_string(min_len: int, max_len: int, covered: Clopen,
                      pred: Callable[[str], bool] | None = None) -> str:
    """The oracle of ``core.first_free_string``: every string of each length
    ``min_len..max_len`` in lexicographic order, the first whose cylinder
    avoids ``covered`` and that ``pred`` accepts, with the same depth check,
    candidate cap and errors."""
    covered.complement(max_len)  # DepthExceededError for a deeper cylinder
    scanned = 0
    for d in range(min_len, max_len + 1):
        for sigma in extensions("", d):
            if covered.meets(sigma):
                continue
            if pred is None or pred(sigma):
                return sigma
            scanned += 1
            if scanned > 200_000:
                raise SearchExhaustedError("free-string search exceeded 200000 candidates")
    raise SearchExhaustedError(
        f"no free string of length in [{min_len}, {max_len}] outside {covered!r}")


def string_inside(x: Stream, view: Clopen) -> bool:
    """The string path of ``deficiency._inside``: the prefix of ``x`` as long
    as the view's depth, built and parsed by ``covers``."""
    return view.covers(x.prefix(view.max_length()))


def string_alive(tree: CoTree, node: str, s: int) -> bool:
    """The string path of ``CoTree.alive``: ``covers`` of the node string,
    with the same depth check."""
    if len(node) > tree.depth:
        raise ValueError(f"node {node!r} deeper than tree depth {tree.depth}")
    return not tree.dead.stage_view(s).covers(node)


def stream_bit(x: Stream, k: int) -> str:
    """Bit ``k`` of the stream ``x``, read off its pad and period."""
    if k < len(x.pad):
        return x.pad[k]
    return x.period[(k - len(x.pad)) % len(x.period)]


def starts_with(x: Stream, bits: str) -> bool:
    """Whether ``bits`` prefixes the stream ``x``: the naive membership oracle."""
    return all(stream_bit(x, k) == b for k, b in enumerate(bits))


def leftmost_uncovered(length: int, cones: Clopen) -> str | None:
    """Leftmost length-``length`` string whose cylinder is not inside ``cones``:
    the one over the first leaf the spans leave out."""
    d, b = cones.max_length(), cones._b
    gap = b[1] if b and b[0] == 0 else 0
    if gap == 1 << d:
        return None
    v = gap >> (d - length) if length <= d else gap << (length - d)
    return format(v, f"0{length}b") if length else ""


def sigma_plus(bits: str) -> str | None:
    """The string immediately to the right of ``bits`` at the same length, or
    None when ``bits`` is the rightmost string of its length."""
    check_bits(bits)
    if not bits or bits == "1" * len(bits):
        return None
    n = int(bits, 2) + 1
    return format(n, f"0{len(bits)}b")


AdviceTable = Mapping[tuple[str, int], int]


def eval_table(phi: AdviceTable, x: Stream, advice: int, max_len: int) -> int | None:
    """Value of the shortest table entry hit by a prefix of ``x``, else None."""
    for n in range(max_len + 1):
        value = phi.get((x.prefix(n), advice))
        if value is not None:
            return value
    return None


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
