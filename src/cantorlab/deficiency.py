"""Streams, stage-relative randomness deficiency, and co-trees.

A stream is a total infinite bit sequence realized as a finite pad followed by
a periodic tail, so every prefix is computable and repeated reads agree.  The
deficiency of a stream against a test at a stage, ``rd_at_stage``, is the
least component index whose current stage view misses the stream, or one past
the top index when every view captures it; it is monotone in the stage and
freezes once the test's schedules are exhausted.  Every reduction and decoder
reads deficiencies through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import Clopen, Dyadic, Frozen, check_bits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .enumeration import Enumeration, MLTest


class Stream(Frozen):
    """A deterministic infinite bit sequence: ``pad`` then ``period`` cycling."""

    __slots__ = ("name", "pad", "period")

    def __init__(self, name: str, pad: str, period: str) -> None:
        check_bits(pad)
        check_bits(period)
        if not period:
            raise ValueError(f"stream {name!r} needs a non-empty period")
        self._set(name, pad, period)

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
    than ``view.max_length()``, so that prefix of ``x`` decides it."""
    return view.covers(x.prefix(view.max_length()))


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

    def alive(self, node: str, s: int) -> bool:
        if len(node) > self.depth:
            raise ValueError(f"node {node!r} deeper than tree depth {self.depth}")
        return not self.dead.stage_view(s).covers(node)

    def change_stages(self) -> tuple[int, ...]:
        return self.dead.change_stages()

    def path_measure(self, s: int) -> Dyadic:
        """Exact measure of the set of paths at stage ``s``."""
        return Dyadic.one() - self.dead.stage_view(s).measure()

    def live_clopen(self, s: int) -> Clopen:
        return self.dead.stage_view(s).complement(self.depth)

    def carries(self, x: Stream, s: int) -> bool:
        """True iff the depth-``depth`` prefix of ``x`` is still in the tree."""
        return self.alive(x.prefix(self.depth), s)
