"""Streams, stage-relative randomness deficiency, and co-trees.

A stream is a total infinite bit sequence realized as a finite pad followed by
a periodic tail, so every prefix is computable and repeated reads agree.  The
deficiency of a stream against a test at a stage, ``rd_at_stage``, is the
least component index whose current stage view misses the stream, or one past
the top index when every view captures it; it is monotone in the stage and
freezes once the test's schedules are exhausted.  Every reduction and decoder
reads deficiencies through it.

Membership is read on integer leaves: a stream holds its first 64 bits as one
integer, and a view of depth ``d`` (at most 64 in any scenario, since K is)
holds the stream iff the leaf of its first ``d`` bits falls in one of the
view's spans, one shift and one ``bisect``.  A deeper view reads the
stream's prefix of that length instead.  A co-tree node is a bit string or
the integer ``1 << n | v`` of its ``n`` bits ``v``, and is met with the dead
view in the same way.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

from .core import Clopen, Dyadic, Frozen, check_bits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .enumeration import Enumeration, MLTest


class Stream(Frozen):
    """A deterministic infinite bit sequence: ``pad`` then ``period`` cycling.

    Its fields are ``name``, ``pad`` and ``period``; the private slot
    ``_head`` holds its first 64 bits as one integer, worked out once."""

    __slots__ = ("name", "pad", "period", "_head")

    def __init__(self, name: str, pad: str, period: str) -> None:
        check_bits(pad)
        check_bits(period)
        if not period:
            raise ValueError(f"stream {name!r} needs a non-empty period")
        self._set(name, pad, period, int((pad[:64] + period * 64)[:64], 2))

    def _leading(self, n: int) -> int:
        """The first ``n`` bits as an integer: a shift of the head, or past
        64 bits (deeper than any scenario's clopens) the prefix parsed."""
        return self._head >> 64 - n if n <= 64 else int(self.prefix(n), 2)

    def prefix(self, k: int) -> str:
        if k <= len(self.pad):
            return self.pad[:k]
        reps = (k - len(self.pad)) // len(self.period) + 1
        return (self.pad + self.period * reps)[:k]


def prepend(bits: str, stream: Stream) -> Stream:
    """The stream ``bits`` followed by ``stream`` from position 0."""
    check_bits(bits)
    return Stream(f"{bits}^{stream.name}", bits + stream.pad, stream.period)


def _inside(x: Stream, view: Clopen) -> bool:
    """True iff some cylinder of ``view`` prefixes ``x``: no cylinder is longer
    than the view's depth ``d``, so the leaf of ``x``'s first ``d`` bits
    decides it, one bisect into the view's span boundaries."""
    return bisect_right(view._b, x._leading(view._d)) % 2 == 1


def member_at_stage(x: Stream, t: "MLTest", i: int, s: int) -> bool:
    """True iff some cylinder of component ``i``'s stage-``s`` view prefixes ``x``."""
    return _inside(x, t.stage_view(i, s))


def rd_at_stage(x: Stream, t: "MLTest", s: int) -> int:
    """Stage-``s`` deficiency of ``x`` against ``t``: the least index whose
    stage-``s`` view misses ``x``, or ``t.max_index + 1`` when every view
    captures it.  Views only grow, so the value never falls as ``s`` grows,
    and every index below it stays a member at every later stage."""
    for i in range(t.max_index + 1):
        if not _inside(x, t.stage_view(i, s)):
            return i
    return t.max_index + 1


# ---------------------------------------------------------------------------
# co-trees: trees presented by a growing set of dead cones
# ---------------------------------------------------------------------------

class CoTree:
    """The depth-``depth`` tree of strings not yet covered by dead cones.

    ``dead`` is the ``Enumeration`` of dead cones: its ``stage_view(s)`` is
    the dead set at stage ``s`` and its ``change_stages()`` are the stages
    at which that set grows; a node belongs to the tree at stage ``s`` while
    its cylinder is not fully covered.  A static tree is the special case of
    all dead cones scheduled at stage 0.
    """

    def __init__(self, dead: "Enumeration", depth: int) -> None:
        self.dead = dead
        self.depth = depth

    def alive(self, node: str | int, s: int) -> bool:
        """Whether ``node`` is in the tree at stage ``s``.  A node is a bit
        string, or the integer whose binary expansion is ``1`` then it."""
        if type(node) is str:
            node = int("1" + node, 2)
        n = node.bit_length() - 1
        if n > self.depth:
            raise ValueError(f"node {bin(node)[3:]!r} deeper than tree depth {self.depth}")
        return not self.dead.stage_view(s)._covers(node ^ 1 << n, n)

    def change_stages(self) -> tuple[int, ...]:
        return self.dead.change_stages()

    def path_measure(self, s: int) -> Dyadic:
        """Exact measure of the set of paths at stage ``s``."""
        return Dyadic(1) - self.dead.stage_view(s).measure()

    def live_clopen(self, s: int) -> Clopen:
        return self.dead.stage_view(s).complement(self.depth)

    def carries(self, x: Stream, s: int) -> bool:
        """True iff the depth-``depth`` prefix of ``x`` is still in the tree."""
        return self.alive(x._leading(self.depth) | 1 << self.depth, s)
