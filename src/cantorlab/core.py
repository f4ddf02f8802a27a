"""Finite binary strings, canonical clopen sets, and exact dyadic measure.

The ambient space is the set of infinite binary sequences.  A cylinder is the
set of all sequences extending a finite string; a clopen set is a finite union
of cylinders, held in a canonical form (sorted integer spans of leaves at the
set's own depth) so that equality, containment, and measure are exact
decidable queries.  Measures are dyadic rationals with arbitrary-precision
numerators.  No floats anywhere.  Clopens and dyadics compare by value, and
only dyadics hash; the ``Frozen`` records compare and hash by identity.

Bit strings are plain ``str`` over ``{'0', '1'}``; the empty string denotes
the whole space's root.  Callers that hold a string's bits as an integer
(streams, tree nodes, committed outputs) ask ``Clopen._covers`` on the
integer, and the span helpers ``_clip``, ``_merge_spans`` and ``_within``
serve code that keeps a set as raw span boundaries at a fixed depth.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

#: Largest denominator exponent a Dyadic may carry.  Stage constructions add
#: long tails of 2**-(s+c) terms; the cap turns a runaway scenario into an
#: error instead of an ever-growing integer.
DYADIC_EXPONENT_CAP = 4096


class CantorError(Exception):
    """Base class for all domain errors."""


class DepthExceededError(CantorError):
    """An operation needed strings deeper than the configured depth."""


class BudgetError(CantorError):
    """An index, stage, or measure budget was violated."""


class SearchExhaustedError(CantorError):
    """A bounded string search ran out of room (scenario too small)."""


class ScenarioError(CantorError):
    """A scenario file failed validation."""


def json_int(value: object, name: str, least: int | None = None,
             most: int | None = None) -> int:
    """``value`` if it is a JSON integer (not a ``bool``) in ``least..most``,
    a bound that is None unchecked; otherwise ScenarioError naming ``name``."""
    if type(value) is int and (least is None or least <= value) and (
            most is None or value <= most):
        return value
    bounds = "" if least is None else f" >= {least}" if most is None else f" in {least}..{most}"
    raise ScenarioError(f"{name} must be an integer{bounds}, got {value!r}")


def json_bits(value: object, name: str, most: int | None = None) -> str:
    """``value`` if it is a string over {'0','1'} of at most ``most``
    characters (None: any length); otherwise ScenarioError naming ``name``."""
    if type(value) is str and not value.strip("01") and (most is None or len(value) <= most):
        return value
    cap = "" if most is None else f" of at most {most} bits"
    raise ScenarioError(f"{name} must be a binary string{cap}, got {value!r}")


class Frozen:
    """Base of the immutable value records: a subclass lists its fields in
    ``__slots__`` and its ``__init__`` sets them once, in that order, with
    ``_set``.  Records compare and hash by identity."""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


# ---------------------------------------------------------------------------
# bit strings
# ---------------------------------------------------------------------------

def check_bits(bits: str) -> str:
    """Validate that ``bits`` is a string over {'0','1'} and return it."""
    if not isinstance(bits, str) or bits.strip("01"):
        raise ValueError(f"not a binary string: {bits!r}")
    return bits


def str_order_key(bits: str) -> tuple[int, str]:
    """Sort key for the length-lexicographic order: shorter first, 0 before 1."""
    return (len(bits), bits)


# ---------------------------------------------------------------------------
# exact dyadic rationals
# ---------------------------------------------------------------------------

class Dyadic:
    """An exact non-negative dyadic rational ``numerator / 2**exponent``.

    Normalized so the numerator is odd whenever the exponent is positive and
    zero is stored as 0 / 2**0.  Supports exact addition, subtraction (when
    the result stays non-negative), halving, and total ordering.
    """

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int = 0) -> None:
        if numerator < 0:
            raise ValueError("Dyadic numerator must be non-negative")
        if exponent < 0:
            raise ValueError("Dyadic exponent must be non-negative")
        # strip every factor of 2 the exponent allows at once; zero is 0/2^0
        k = min((numerator & -numerator).bit_length() - 1, exponent) if numerator else exponent
        numerator, exponent = numerator >> k, exponent - k
        if exponent > DYADIC_EXPONENT_CAP:
            raise BudgetError(f"dyadic exponent {exponent} exceeds cap {DYADIC_EXPONENT_CAP}")
        self.numerator = numerator
        self.exponent = exponent

    @classmethod
    def exp2(cls, e: int) -> "Dyadic":
        """The value 2**e (e may be negative)."""
        return cls(1, -e) if e < 0 else cls(1 << e, 0)

    def within(self, i: int) -> bool:
        """Whether the value is at most 2**-i, for ``i >= 0``, on integers."""
        return self.numerator << i <= 1 << self.exponent

    def half(self) -> "Dyadic":
        return Dyadic(self.numerator, self.exponent + 1)

    def _pair(self, other: "Dyadic") -> tuple[int, int, int]:
        e = max(self.exponent, other.exponent)
        return (self.numerator << (e - self.exponent),
                other.numerator << (e - other.exponent), e)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._pair(other)
        return Dyadic(a + b, e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._pair(other)
        if a < b:
            raise ValueError("Dyadic subtraction would go negative")
        return Dyadic(a - b, e)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.numerator == other.numerator and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.numerator, self.exponent))

    def __lt__(self, other: "Dyadic") -> bool:
        a, b, _ = self._pair(other)
        return a < b

    def __le__(self, other: "Dyadic") -> bool:
        a, b, _ = self._pair(other)
        return a <= b

    def __str__(self) -> str:
        return f"{self.numerator}/2^{self.exponent}"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# canonical clopen sets
# ---------------------------------------------------------------------------

def _leaf_span(bits: str, d: int) -> tuple[int, int]:
    """The depth-``d`` leaves ``[lo, hi)`` under ``bits`` (at most ``d`` long)."""
    gap = d - len(bits)
    lo = int(bits, 2) << gap if bits else 0
    return lo, lo + (1 << gap)


def _clip(b: Sequence[int], lo: int, hi: int) -> list[int]:
    """The span boundaries ``b`` cut to the leaves ``[lo, hi)``."""
    i, j = bisect_right(b, lo), bisect_left(b, hi)
    return [lo] * (i % 2) + list(b[i:j]) + [hi] * (j % 2)


def _within(x: Sequence[int], y: Sequence[int]) -> bool:
    """Whether the spans ``x`` lie inside the spans ``y``, at one depth."""
    for lo, hi in zip(x[::2], x[1::2]):
        i = bisect_right(y, lo)
        if i % 2 == 0 or y[i] < hi:
            return False
    return True


def _blocks(d: int, b: Sequence[int]) -> Iterator[tuple[int, int]]:
    """``(length, value)`` of each maximal aligned block of depth-``d`` leaves
    in the spans ``b``: the cylinder of the ``length``-bit expansion of value."""
    for lo, hi in zip(b[::2], b[1::2]):
        while lo < hi:
            k = min((lo & -lo or 1 << d).bit_length(), (hi - lo).bit_length()) - 1
            yield d - k, lo >> k
            lo += 1 << k


def _merge_spans(out: list[int], b: Sequence[int]) -> None:
    """Merge the spans ``b`` into the span boundaries ``out``, in place:
    each span replaces the boundaries it spans."""
    for lo, hi in zip(b[::2], b[1::2]):
        i, j = bisect_left(out, lo), bisect_right(out, hi)
        out[i:j] = [lo] * (i % 2 == 0) + [hi] * (j % 2 == 0)


class Clopen:
    """A finite union of cylinders, held as the pair ``(d, b)``.

    Leaf ``v`` is the cylinder of the ``d``-bit expansion of ``v``; ``b`` is
    the flat tuple ``lo0, hi0, lo1, hi1, ...`` of the set's maximal leaf spans
    ``[lo, hi)``, sorted, disjoint and not adjacent; ``d`` is the least depth
    at which the set is a union of leaves, the length of its longest canonical
    cylinder.  So the pair is unique per set, and the set operations are
    merges of sorted boundaries.  ``cylinders``, the canonical (prefix-free,
    sibling-merged) cylinders in length-lex order, is derived on first read.
    Two clopens are equal iff their pairs are; a clopen does not hash, and
    its repr lists its cylinders.
    """

    __slots__ = ("_d", "_b", "_cyl")

    def __init__(self, strings: Iterable[str] = (), *,
                 _spans: tuple[int, Sequence[int]] | None = None) -> None:
        if _spans is None:
            items = [check_bits(s) for s in strings]
            if len(items) == 1:  # one cylinder: one leaf at its own depth
                s = items[0]
                v = int(s, 2) if s else 0
                self._d, self._b, self._cyl = len(s), (v, v + 1), (s,)
                return
            d = max(map(len, items), default=0)
            b: list[int] = []
            for lo, hi in sorted(_leaf_span(s, d) for s in items):
                if b and lo <= b[-1]:
                    b[-1] = max(b[-1], hi)
                else:
                    b += (lo, hi)
        else:
            d, b = _spans
        low = reduce(or_, b, 0)  # coarsen while every boundary is even
        k = min((low & -low).bit_length() - 1, d) if low else d
        self._d, self._b, self._cyl = d - k, tuple([x >> k for x in b] if k else b), None

    @property
    def cylinders(self) -> tuple[str, ...]:
        """The canonical cylinders in length-lex order."""
        if self._cyl is None:
            self._cyl = tuple(format(v, f"0{n}b") if n else ""
                              for n, v in sorted(_blocks(self._d, self._b)))
        return self._cyl

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clopen):
            return NotImplemented
        return self._d == other._d and self._b == other._b

    def __bool__(self) -> bool:
        return bool(self._b)

    def __repr__(self) -> str:
        return "Clopen({" + ", ".join(self.cylinders) + "})"

    # -- queries -----------------------------------------------------------

    def covers(self, bits: str) -> bool:
        """True iff the cylinder of ``bits`` lies inside this set.  Only the
        first ``d`` bits are read: a longer string lies in one leaf."""
        bits = bits[:self._d]
        return self._covers(int(bits or "0", 2), len(bits))

    def _covers(self, v: int, n: int) -> bool:
        """``covers`` for the ``n``-bit expansion of ``v``, on integers: a node
        at least ``d`` long lies in the leaf ``v >> n - d``, one bisect."""
        d, b = self._d, self._b
        if n >= d:
            return bisect_right(b, v >> n - d) % 2 == 1
        i = bisect_right(b, v << d - n)
        return i % 2 == 1 and b[i] >= v + 1 << d - n

    def meets(self, bits: str) -> bool:
        """True iff the cylinder of ``bits`` intersects this set."""
        d, b = self._d, self._b
        lo, hi = _leaf_span(bits[:d], d)
        i = bisect_right(b, lo)
        return i % 2 == 1 or (i < len(b) and b[i] < hi)

    def max_length(self) -> int:
        return self._d

    def measure(self) -> Dyadic:
        """Exact measure: the number of leaves over 2**d."""
        b = self._b
        return Dyadic(sum(b[1::2]) - sum(b[::2]), self._d)

    # -- algebra -----------------------------------------------------------

    def _aligned(self, other: "Clopen") -> tuple[int, Sequence[int], Sequence[int]]:
        """The common depth and both sets' boundaries at it; the deeper
        side's, or both at equal depths, are the stored tuples."""
        d, x, y = max(self._d, other._d), self._b, other._b
        if self._d < d:
            x = [v << d - self._d for v in x]
        if other._d < d:
            y = [v << d - other._d for v in y]
        return d, x, y

    def union(self, other: "Clopen") -> "Clopen":
        """The spans of the smaller side merged into the larger side."""
        d, x, y = self._aligned(other)
        if len(x) < len(y):
            x, y = y, x
        out = list(x)
        _merge_spans(out, y)
        return Clopen(_spans=(d, out))

    def intersect(self, other: "Clopen") -> "Clopen":
        """The larger side cut to each span of the smaller side."""
        d, x, y = self._aligned(other)
        if len(x) < len(y):
            x, y = y, x
        out: list[int] = []
        for lo, hi in zip(y[::2], y[1::2]):
            out += _clip(x, lo, hi)
        return Clopen(_spans=(d, out))

    def complement(self, depth: int) -> "Clopen":
        """The complement within the whole space.  ``depth`` only bounds
        residency: every cylinder of this set must be at most that long."""
        if self._d > depth:
            deep = next(c for c in self.cylinders if len(c) > depth)
            raise DepthExceededError(
                f"complement at depth {depth} requested below resident string {deep!r}")
        out = [0, *self._b, 1 << self._d]  # a boundary met twice cancels
        if out[1] == 0:
            del out[:2]
        if out and out[-2] == out[-1]:
            del out[-2:]
        return Clopen(_spans=(self._d, out))

    def difference(self, other: "Clopen", depth: int) -> "Clopen":
        return self.intersect(other.complement(depth))

    def is_subset_of(self, other: "Clopen") -> bool:
        """True iff every point of this set lies in ``other``."""
        _, x, y = self._aligned(other)
        return _within(x, y)


def intersect_all(clopens: Iterable[Clopen]) -> Clopen:
    """Intersection of a non-empty family of clopens."""
    result: Clopen | None = None
    for c in clopens:
        result = c if result is None else result.intersect(c)
    if result is None:
        raise ValueError("intersect_all needs at least one clopen")
    return result


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def pair(i: int, s: int) -> int:
    """The diagonal pairing (i+s)(i+s+1)/2 + i."""
    if i < 0 or s < 0:
        raise ValueError("pair arguments must be non-negative")
    return (i + s) * (i + s + 1) // 2 + i


def unpair(n: int) -> tuple[int, int]:
    """Exact inverse of :func:`pair`."""
    if n < 0:
        raise ValueError("unpair argument must be non-negative")
    w = (math.isqrt(8 * n + 1) - 1) // 2
    i = n - w * (w + 1) // 2
    return i, w - i


def unpair3(n: int) -> tuple[int, int, int]:
    """Dovetail order over triples: unpair the first coordinate again."""
    a, t = unpair(n)
    i, m = unpair(a)
    return i, m, t


# ---------------------------------------------------------------------------
# bounded string searches
# ---------------------------------------------------------------------------

def first_extension_into(prefix: str, target: Clopen, max_len: int) -> str | None:
    """Least ``tau`` in length-lex order with [prefix + tau] inside ``target``.

    Returns the empty string when ``prefix`` is already covered, or None when
    no extension of length at most ``max_len`` fits.
    """
    if target.covers(prefix):
        return ""
    # the least is the shortest, then leftmost, block of target under prefix
    d = target.max_length()
    best = min(_blocks(d, _clip(target._b, *_leaf_span(prefix[:d], d))), default=None)
    if best is None or best[0] > max_len:
        return None
    return format(best[1], f"0{best[0]}b")[len(prefix):]


def first_free_string(min_len: int, max_len: int, covered: Clopen,
                      pred: Callable[[str], bool] | None = None) -> str:
    """First string in length-lex order whose cylinder avoids ``covered``.

    Searches lengths ``min_len..max_len`` over the free set's leaf spans; an
    optional ``pred`` filters candidates (evaluated in order, at most 200,000).
    """
    free = covered.complement(max_len)
    scanned = 0
    for d in range(min_len, max_len + 1):
        g = free._d - d  # the length-d strings inside span [lo, hi)
        for lo, hi in zip(free._b[::2], free._b[1::2]):
            for v in range(-(-lo >> g), hi >> g) if g > 0 else range(lo << -g, hi << -g):
                sigma = format(v, f"0{d}b") if d else ""
                if pred is None or pred(sigma):
                    return sigma
                scanned += 1
                if scanned > 200_000:
                    raise SearchExhaustedError(
                        "free-string search exceeded 200000 candidates")
    raise SearchExhaustedError(
        f"no free string of length in [{min_len}, {max_len}] outside {covered!r}")
