"""Stage-scheduled enumerations, measure-budgeted test families, combinators,
and the scenario world they are instantiated over.

An enumeration is a finite schedule of (stage, cylinder) pairs; its view at a
stage is the canonical union of everything scheduled so far, so views only
grow, and they change only at the stages that schedule something.  The
views are built together when a stage before the last is first read: one
walk of the schedule merges each cylinder's leaf span, at the depth of the
longest cylinder, into one list of span boundaries, and each change stage
makes one clopen of the list; the final measure is one pass over the
distinct cylinders sorted as strings, with no view built.  A test is an
indexed family of enumerations where component ``i`` must stay within
measure ``2**-i``, checked exactly on the integers of final measures.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_right
from functools import cached_property, partial
from itertools import compress, groupby
from operator import itemgetter
from os import PathLike
from typing import Any, Callable, Iterable, Mapping, Sequence

from .core import (
    BudgetError,
    Clopen,
    DepthExceededError,
    Dyadic,
    Frozen,
    ScenarioError,
    SearchExhaustedError,
    _leaf_span,
    _merge_spans,
    check_bits,
    intersect_all,  # noqa: F401  unused; perfbench/test_perfbench.py patches it here
    json_bits,
    json_int,
)
from .deficiency import CoTree, Stream, rd_at_stage


class Enumeration:
    """A monotone stage-scheduled clopen: cylinders tagged with entry stages.

    The view and its measure are constant between consecutive
    ``change_stages()``, so anything derived from views at one stage holds
    until the next change stage.  Enumerations compare and hash by identity:
    to compare two by value, compare their ``schedule`` pairs.
    """

    __slots__ = ("_schedule", "_stages", "_views", "_final")

    def __init__(self, schedule: Iterable[tuple[int, str]] = ()) -> None:
        items = set()  # (stage, len, cylinder) sorts as stage, then length-lex
        for st, c in schedule:
            if type(st) is not int or st < 0:
                raise ValueError(f"schedule stage must be a non-negative integer, got {st!r}")
            items.add((st, len(check_bits(c)), c))
        self._set(items)

    @classmethod
    def _of_items(cls, items: Iterable[tuple[int, int, str]]) -> "Enumeration":
        """The enumeration of distinct checked ``(stage, length, cylinder)``:
        read by the scenario reader, or taken from checked enumerations and
        kept or re-rooted, so none is checked again."""
        e = cls.__new__(cls)
        e._set(items)
        return e

    def _set(self, items: Iterable[tuple[int, int, str]]) -> None:
        self._schedule = tuple([(st, c) for st, _, c in sorted(items)])
        self._stages = self._views = self._final = None

    @classmethod
    def _of_views(cls, stages: list[int], views: list[Clopen]) -> "Enumeration":
        """The enumeration whose view becomes ``views[k]`` at ``stages[k]``
        (strictly increasing stages, growing nonempty views).  It keeps the
        views, its final measure is its last view's, and its schedule is
        derived when first read."""
        e = cls.__new__(cls)
        e._schedule, e._stages, e._views = None, stages, views
        e._final = views[-1].measure() if views else Dyadic(0)
        return e

    @property
    def schedule(self) -> tuple[tuple[int, str], ...]:
        """The ``(stage, cylinder)`` pairs in stage, then length-lex, order;
        of an enumeration of views, each view's canonical cylinders as they stand."""
        if self._schedule is None:
            self._schedule = tuple([(s, c) for s, v in zip(self._stages, self._views)
                                    for c in v.cylinders])
        return self._schedule

    def _ensure(self) -> None:
        """Build the views: merge each stage's leaf spans, at the longest
        cylinder's depth, into the boundaries so far, and make one clopen
        of them per change stage."""
        d = max((len(c) for _, c in self._schedule), default=0)
        stages: list[int] = []
        views: list[Clopen] = []
        out: list[int] = []
        for s, entries in groupby(self._schedule, key=itemgetter(0)):
            _merge_spans(out, [x for _, c in entries for x in _leaf_span(c, d)])
            stages.append(s)
            views.append(Clopen(_spans=(d, out)))
        self._stages, self._views = stages, views

    def stage_view(self, s: int) -> Clopen:
        """Canonical union of all cylinders scheduled at stages <= ``s``."""
        if s < 0:
            raise ValueError("stage must be non-negative")
        if self._stages is None:
            self._ensure()
        k = bisect_right(self._stages, s)
        return self._views[k - 1] if k else Clopen()

    def measure_at(self, s: int) -> Dyadic:
        """The view's measure at stage ``s``: zero before stage 0, and the
        final measure from the last scheduled stage on."""
        if s >= self.last_stage():
            return self.final_measure()
        return self.stage_view(s).measure() if s >= 0 else Dyadic(0)

    def change_stages(self) -> tuple[int, ...]:
        if self._stages is None:
            self._ensure()
        return tuple(self._stages)

    def final_measure(self) -> Dyadic:
        """The last view's measure.  An enumeration of views measured its
        last view; otherwise no view is built: of the distinct cylinders
        sorted as strings, each that does not start with the last one counted
        (in lex order, its shortest prefix in the set) adds its leaves."""
        if self._final is None:
            cyls = sorted({c for _, c in self._schedule})
            d, leaves, last = max(map(len, cyls), default=0), 0, "-"  # no cylinder starts "-"
            for c in cyls:
                if not c.startswith(last):
                    leaves += 1 << (d - len(c))
                    last = c
            self._final = Dyadic(leaves, d)
        return self._final

    def last_stage(self) -> int:
        if self._schedule is None:  # an enumeration of views
            return self._stages[-1] if self._stages else 0
        return self._schedule[-1][0] if self._schedule else 0


class MLTest:
    """An indexed family of enumerations with exact per-index measure budgets.

    Component ``i`` must satisfy measure <= 2**-i at every stage; since views
    only grow it suffices to check the final measure, which the constructor
    does unless ``check=False``.

    Every component's view and measure are constant between consecutive
    stages of ``change_stages()`` (the union over components); ``meet_view``
    relies on this to share one intersection per change interval.
    """

    def __init__(
        self,
        components: Sequence[Enumeration],
        *,
        nested: bool = False,
        notes: Mapping[str, object] | None = None,
        check: bool = True,
    ) -> None:
        self.components: tuple[Enumeration, ...] = tuple(components)
        if not self.components:
            raise ValueError("a test needs at least one component")
        self.max_index = len(self.components) - 1
        self.nested = nested
        self.notes: dict[str, object] = dict(notes or {})
        self._changes: tuple[int, ...] | None = None
        self._meets: dict[tuple[int, int], Clopen] = {}
        if check:
            self.ensure_budget()

    def component(self, i: int) -> Enumeration:
        if not 0 <= i <= self.max_index:
            raise BudgetError(f"component index {i} out of range 0..{self.max_index}")
        return self.components[i]

    def stage_view(self, i: int, s: int) -> Clopen:
        return self.component(i).stage_view(s)

    def final_stage(self) -> int:
        return max(c.last_stage() for c in self.components)

    def change_stages(self) -> tuple[int, ...]:
        if self._changes is None:
            self._changes = tuple(sorted({s for c in self.components for s in c.change_stages()}))
        return self._changes

    def meet_view(self, n: int, s: int) -> Clopen:
        """Intersection of the views of components 0..n at stage ``s``.

        Memoized per (n, change interval): no view moves between two
        consecutive change stages, so the key is exact, and the shared
        clopen is immutable; ``descending_chain`` fills it too.  A new key
        extends the largest memoized k < n by one ``intersect`` per index.
        """
        if s < 0 or n < 0:
            raise ValueError("index and stage must be non-negative")
        at, meets = bisect_right(self.change_stages(), s), self._meets
        k = n
        while k >= 0 and (k, at) not in meets:
            k -= 1
        meet = meets[k, at] if k >= 0 else None
        for i in range(k + 1, n + 1):
            view = self.stage_view(i, s)
            meet = view if meet is None else meet.intersect(view)
            meets[i, at] = meet
        return meet

    def ensure_budget(self) -> None:
        """Each final measure within 2**-i, checked exactly on its integers."""
        for i, comp in enumerate(self.components):
            m = comp.final_measure()
            if not m.within(i):
                raise BudgetError(
                    f"component {i} has measure {m} exceeding 2^-{i}")

    def check_nested_stagewise(self) -> bool:
        """Whether each view lies inside the one before it at every stage,
        checked for (i, i+1) at those two components' change stages only."""
        for outer, inner in zip(self.components, self.components[1:]):
            for s in sorted({*outer.change_stages(), *inner.change_stages()}):
                if not inner.stage_view(s).is_subset_of(outer.stage_view(s)):
                    return False
        return True


def effective_top(t: MLTest) -> int:
    """Largest component index with any scheduled content, that is, with a
    positive final measure, as every cylinder has one: no string schedule
    is derived.

    Components above it are structurally empty (their defining indices fall
    outside the index budget), so intersections and pad targets stop here.
    """
    for i in range(t.max_index, -1, -1):
        if t.component(i).final_measure().numerator:
            return i
    return 0


def _run_clock(changes: Sequence[int], first: int, last: int,
               step: Callable[[int], bool],
               record: Callable[[int], None] | None = None) -> None:
    """Step the stages ``first..last`` at which a watch can fire.

    ``step(s)`` checks the watches of a realizer or a construction at stage
    ``s`` and returns whether it acted (padded, or moved one of its
    counters).  The watches read only stage views, which are constant
    between consecutive stages of the sorted ``changes``, and counters that
    move only when the loop acts.  A stage that is not ``first``, not a
    change stage and not right after a stage that acted would therefore
    repeat the previous step's outcome, which was to do nothing: it is not
    stepped.  A step may also return False after acting when no watch can
    fire again before the next change stage.  After each step, ``record(t)``
    gets the last stage ``t`` before the next stepped one, so a loop with an
    output stream can fill in the emission of the skipped stages in closed
    form.
    """
    s = first
    while s <= last:
        if step(s):
            nxt = s + 1
        else:
            k = bisect_right(changes, s)
            nxt = min(changes[k], last + 1) if k < len(changes) else last + 1
        if record is not None:
            record(nxt - 1)  # the next watches may read the committed output
        s = nxt


# ---------------------------------------------------------------------------
# budgets and scenarios
# ---------------------------------------------------------------------------

HARD_MAX_INDEX = 64
HARD_MAX_STAGE = 10**6
HARD_MAX_DEPTH = 64
# A scenario's arrays and objects nest at most this many levels, the
# scenario object being level 1.  A trace header embeds the scenario two
# levels down, so the header of every trace ``run`` writes nests at most 102
# levels, far inside the JSON decoder's recursion budget (the interpreter's
# recursion limit, 1,000 by default, less the caller's stack).
MAX_NESTING = 100


class Budgets(Frozen):
    """World bounds: max component index, max stage, max depth, unary-pad cap."""

    __slots__ = ("max_index", "max_stage", "max_depth", "max_layers")

    def __init__(self, max_index: int, max_stage: int, max_depth: int,
                 max_layers: int) -> None:
        self._set(max_index, max_stage, max_depth, max_layers)

    def validate(self) -> None:
        if not 0 <= self.max_index <= HARD_MAX_INDEX:
            raise ScenarioError(f"budget I={self.max_index} outside 0..{HARD_MAX_INDEX}")
        if not 0 <= self.max_stage <= HARD_MAX_STAGE:
            raise ScenarioError(f"budget S={self.max_stage} outside 0..{HARD_MAX_STAGE}")
        if not 1 <= self.max_depth <= HARD_MAX_DEPTH:
            raise ScenarioError(f"budget K={self.max_depth} outside 1..{HARD_MAX_DEPTH}")
        if not 0 <= self.max_layers <= self.max_depth:
            raise ScenarioError(f"budget L={self.max_layers} outside 0..K")
        if self.max_index > self.max_depth - 2:
            raise ScenarioError(
                f"budget I={self.max_index} above K-2={self.max_depth - 2}: the "
                f"stratification head 1^(I+2) must fit the depth")

    @classmethod
    def from_json(cls, obj: object) -> "Budgets":
        """``{"I", "S", "K", "L"}``, ``L`` defaulting to ``K // 2``, unvalidated."""
        try:
            depth = json_int(_typed(obj, dict)["K"], ".K")
            return cls(json_int(obj["I"], ".I"), json_int(obj["S"], ".S"), depth,
                       json_int(obj.get("L", depth // 2), ".L"))
        except KeyError as exc:
            raise ScenarioError(f"budgets.{exc.args[0]} is missing") from None
        except ScenarioError as exc:
            raise ScenarioError(f"budgets{exc}") from None

    def to_json(self) -> dict:
        return {"I": self.max_index, "S": self.max_stage,
                "K": self.max_depth, "L": self.max_layers}


class Scenario:
    """The finite world a run quantifies over: tests, tables, streams, trees.
    Its ``universal`` test, ``chain`` and ``derived`` tests are built once,
    on first read, and kept in the instance ``__dict__``."""

    __slots__ = ("budgets", "tests", "partial_functions", "functionals",
                 "halting", "streams", "random_streams", "inert_functionals",
                 "opens", "trees", "parallel_family", "parallel_bound", "raw",
                 "__dict__")

    def __init__(self, budgets: Budgets, tests: tuple[MLTest, ...],
                 partial_functions: dict[int, dict[int, tuple[int, int]]],
                 functionals: dict[int, dict[tuple[str, int], int]],
                 halting: dict[int, int], streams: dict[str, Stream],
                 random_streams: tuple[str, ...], inert_functionals: frozenset[int],
                 opens: dict[str, tuple[Enumeration, ...]],
                 trees: dict[str, Enumeration], parallel_family: tuple[str, ...] = (),
                 parallel_bound: int = 0, raw: dict | None = None) -> None:
        self.budgets = budgets
        self.tests = tests
        self.partial_functions = partial_functions
        self.functionals = functionals
        self.halting = halting
        self.streams = streams
        self.random_streams = random_streams
        self.inert_functionals = inert_functionals
        self.opens = opens
        self.trees = trees
        self.parallel_family = parallel_family
        self.parallel_bound = parallel_bound
        self.raw = {} if raw is None else raw

    @cached_property
    def universal(self) -> MLTest:
        return universal_sum(self)

    @cached_property
    def chain(self) -> MLTest:
        return descending_chain(self.universal)

    @cached_property
    def derived(self) -> dict[str, MLTest]:
        """The tests the combinators derive from ``universal``, by name;
        verify sweeps their budgets.  Callers that add tests copy it."""
        u, chain = self.universal, self.chain
        return {
            "universal": u,
            "chain": chain,
            "even_shift": even_shift(chain),
            "shift_union": shift_union(u),
            "stratify": stratify(u, self.budgets),
        }

    def stream(self, name: str) -> Stream:
        try:
            return self.streams[name]
        except KeyError:
            raise ScenarioError(f"unknown stream {name!r}") from None

    def tree(self, name: str) -> CoTree:
        try:
            return CoTree(self.trees[name], self.budgets.max_depth)
        except KeyError:
            raise ScenarioError(f"unknown tree {name!r}") from None


def load_scenario(source: str | PathLike | Mapping,
                  overrides: Mapping[str, int] | None = None) -> Scenario:
    """Read a scenario from a JSON file path or an already-loaded mapping:
    check its budgets, merge ``overrides`` (``{"S": 64}``) into them and
    read every other field against the result.  An unreadable file raises
    OSError or JSONDecodeError; a value that is missing, of the wrong JSON
    type or out of range raises ScenarioError naming its JSON path first."""
    if isinstance(source, (str, PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = source
    if not isinstance(raw, Mapping):
        raise ScenarioError("scenario must be a JSON object")
    raw = dict(raw)
    _check_nesting(raw)
    if "budgets" not in raw:
        raise ScenarioError("budgets is missing")
    budgets = Budgets.from_json(raw["budgets"])
    budgets.validate()  # before any test: I sizes every test read below
    if overrides and {**budgets.to_json(), **overrides} != budgets.to_json():
        raw["budgets"] = {**budgets.to_json(), **overrides}
        budgets = Budgets.from_json(raw["budgets"])
        budgets.validate()
    return _read_scenario(raw, budgets)


_CONTAINER = {dict, list, tuple}.__contains__


def _check_nesting(raw: dict) -> None:
    """Raise ScenarioError when ``raw`` nests deeper than ``MAX_NESTING``.
    The walk goes level by level, so it needs no stack.  The containers are
    the values of type dict, list or tuple, what a decoded document holds;
    any other value is a leaf.  The referents of a level's containers are
    their values and items (and a dict's keys when they are not all
    strings), so no Python loop runs over the values."""
    level, depth = [raw], 1
    while level:
        if depth > MAX_NESTING:
            raise ScenarioError(f"scenario nests deeper than the cap of "
                                f"{MAX_NESTING} levels")
        values = gc.get_referents(*level)
        level = [*compress(values, map(_CONTAINER, map(type, values)))]
        depth += 1


# The typed reader.  A reader of a JSON value raises ScenarioError whose
# message begins with the fault's path below the value (empty, ".key" or
# "[k]"); the enclosing reader prefixes its own key, on failure only.

def _read_scenario(raw: dict, budgets: Budgets) -> Scenario:
    big_i, big_s, big_k = budgets.max_index, budgets.max_stage, budgets.max_depth

    def entry(e: dict, cap: int | None = None) -> tuple[int, str]:  # no cap: opens, trees
        return json_int(e["stage"], ".stage", 0, cap), json_bits(e["cylinder"], ".cylinder", big_k)

    def schedule(entries: object) -> Enumeration:
        return Enumeration._of_items({(st, len(c), c) for st, c in _each(entries, entry, True)})

    def test(entries: object) -> MLTest:
        items: list[set[tuple[int, int, str]]] = [set() for _ in range(big_i + 1)]
        for comp, (st, c) in _each(entries, lambda e: (
                json_int(e["component"], ".component", 0, big_i), entry(e, big_s)), True):
            items[comp].add((st, len(c), c))
        try:
            return MLTest([Enumeration._of_items(s) for s in items])
        except BudgetError as exc:
            raise ScenarioError(f" {exc}") from None

    def partial_entry(e: dict) -> tuple[int, tuple[int, int]]:
        return json_int(e["arg"], ".arg"), (json_int(e["stage"], ".stage", 0, big_s),
                                           json_int(e["value"], ".value"))

    def functional_entry(e: dict) -> tuple[tuple[str, int], int]:
        return ((json_bits(e["prefix"], ".prefix", big_k), json_int(e["advice"], ".advice")),
                json_int(e["value"], ".value"))

    def functional_index(value: object) -> int:
        if json_int(value, "") not in functionals:
            raise ScenarioError(f" must be the index of a functional, got {value!r}")
        return value

    tests = _field(raw, "tests", [], _each, test)
    if not tests:
        raise ScenarioError("tests must be a non-empty list, got []")
    functionals = _field(raw, "functionals", {}, _each_key, True, _unique, " (prefix, advice)",
                         functional_entry)
    streams = _field(raw, "streams", [], _unique, ".name", _stream)
    return Scenario(
        budgets=budgets,
        tests=tuple(tests),
        partial_functions=_field(raw, "partial_functions", {}, _each_key, True, _unique, ".arg",
                                 partial_entry),
        functionals=functionals,
        halting=_field(raw, "halting", [], _unique, ".e", lambda e: (
            json_int(e["e"], ".e"), json_int(e["stage"], ".stage", 0, big_s))),
        streams={name: x for name, (x, _) in streams.items()},
        random_streams=tuple(name for name, (_, random) in streams.items() if random),
        inert_functionals=frozenset(_field(raw, "inert_functionals", [], _each,
                                           functional_index)),
        opens={name: tuple(family) for name, family in _field(
            raw, "opens", {}, _each_key, False, _each, schedule).items()},
        trees=_field(raw, "trees", {}, _each_key, False, schedule),
        parallel_family=tuple(_field(raw, "parallel_family", [], _each,
                                     partial(_typed, kind=str))),
        parallel_bound=_field(raw, "parallel_bound", 0, json_int, ""),
        raw=raw,
    )


def _field(raw: dict, key: str, default: object, read: Callable, *args: object) -> Any:
    """``read(raw[key], *args)``, ``default`` standing in for a missing key."""
    try:
        return read(raw.get(key, default), *args)
    except ScenarioError as exc:
        raise ScenarioError(f"{key}{exc}") from None


def _each(values: object, read: Callable, records: bool = False) -> list:
    """``read(value)`` of each value of a JSON list, of objects if ``records``."""
    out = []
    for k, value in enumerate(_typed(values, list)):
        try:
            if records and type(value) is not dict:
                raise ScenarioError(f" must be an object, got {value!r}")
            out.append(read(value))
        except KeyError as exc:
            raise ScenarioError(f"[{k}].{exc.args[0]} is missing") from None
        except ScenarioError as exc:
            raise ScenarioError(f"[{k}]{exc}") from None
    return out


def _each_key(table: object, indexed: bool, read: Callable, *args: object) -> dict:
    """``{key: read(value, *args)}`` of a JSON object by key; ``indexed``: decimal int keys."""
    out = {}
    for key, value in sorted(_typed(table, dict).items()):
        if indexed and not (key.isdecimal() and str(int(key)) == key):
            raise ScenarioError(f" keys must be indices in plain decimal, got {key!r}")
        try:
            out[int(key) if indexed else key] = read(value, *args)
        except ScenarioError as exc:
            raise ScenarioError(f".{key}{exc}") from None
    return dict(sorted(out.items())) if indexed else out


def _unique(values: object, what: str, read: Callable) -> dict:
    """The dict of the (key, value) pairs ``read`` makes of a list's objects."""
    out: dict = {}
    for k, (key, value) in enumerate(_each(values, read, True)):
        if key in out:
            raise ScenarioError(f"[{k}]{what} {key!r} appears twice")
        out[key] = value
    return out


def _typed(value: object, kind: type, name: str = "") -> Any:
    """``value`` if its type is ``kind``; otherwise ScenarioError naming ``name``."""
    if type(value) is kind:
        return value
    noun = {list: "a list", dict: "an object", str: "a string", bool: "a boolean"}[kind]
    raise ScenarioError(f"{name} must be {noun}, got {value!r}")


def _stream(e: dict) -> tuple[str, tuple[Stream, bool]]:
    """A stream declaration's name, then its stream and ``random`` flag."""
    if not json_bits(e["period"], ".period"):
        raise ScenarioError(".period must be a non-empty binary string, got ''")
    return _typed(e["name"], str, ".name"), (Stream(e["name"], json_bits(
        e.get("pad", ""), ".pad"), e["period"]), _typed(e.get("random", False), bool, ".random"))


def validate_scenario(sc: Scenario) -> None:
    """Check what the universal test decides: SearchExhaustedError if the
    padding reservoir, a cylinder inside every contentful component's
    stage-0 view, is missing; ScenarioError for a captured random stream or
    a parallel family member that is no random stream within the bound."""
    b = sc.budgets
    surrogate = sc.universal
    top = effective_top(surrogate)

    # Padding reservoir: some cylinder inside every contentful component at
    # stage 0.  Components above the effective top are structurally empty
    # (their source indices fall outside the index budget) and no pad ever
    # targets them.
    for i in range(top + 1):
        if not surrogate.meet_view(i, 0):
            raise SearchExhaustedError(
                f"padding reservoir missing: intersection of components 0..{i} "
                "is empty at stage 0")

    rds = {name: rd_at_stage(sc.stream(name), surrogate, b.max_stage)
           for name in sc.random_streams}  # each read once
    for name, d in rds.items():
        if d > top:
            raise ScenarioError(
                f"stream {name!r} declared random but captured by every "
                f"contentful component at stage {b.max_stage}")

    for name in sc.parallel_family:
        if name not in rds:
            raise ScenarioError(
                f"parallel family member {name!r} is not a declared random stream")
        if rds[name] > sc.parallel_bound:
            raise ScenarioError(
                f"parallel family member {name!r} has deficiency {rds[name]} "
                f"above the declared bound {sc.parallel_bound}")


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def universal_sum(sc: Scenario) -> MLTest:
    """Componentwise union U_n of the registered tests' components n+e+1.

    The n-th component collects component ``n+e+1`` of every registered test
    ``e``; the geometric index shift keeps the budget.  Terms whose index
    would exceed the index budget are dropped and recorded in the notes; a
    test that would contribute to no component at all is an error.  A
    component with one term is that registered component itself.
    """
    if not sc.tests:
        raise ValueError("universal_sum needs at least one registered test")
    big_i = sc.budgets.max_index
    for e in range(len(sc.tests)):
        if e + 1 > big_i:
            raise BudgetError(
                f"budget I={big_i} too small for requested component {e + 1} "
                f"of registered test {e}")
    comps = []
    truncated: list[list[int]] = []
    for n in range(big_i + 1):
        terms: list[Enumeration] = []
        for e, t in enumerate(sc.tests):
            j = n + e + 1
            if j <= big_i and j <= t.max_index:
                terms.append(t.component(j))
            else:
                truncated.append([n, e])
        comps.append(terms[0] if len(terms) == 1 else Enumeration._of_items(
            {(s, len(c), c) for term in terms for s, c in term.schedule}))
    return MLTest(comps, notes={"truncated_terms": truncated})


def descending_chain(u: MLTest) -> MLTest:
    """The stagewise intersections V_n of components 0..n; nested by design.
    V_n = V_{n-1} ∩ U_n is computed only at the stages where V_{n-1} or U_n
    changes, both views being constant between them, and as V_n(s) is
    ``u.meet_view(n, s)``, it is read from or stored in ``u``'s meet memo."""
    changes, meets = u.change_stages(), u._meets
    comps: list[Enumeration] = []
    for n in range(u.max_index + 1):
        un, prev = u.component(n), comps[-1] if comps else None
        at = (un.change_stages() if prev is None  # an empty V_{n-1} leaves V_n empty
              else sorted({*prev.change_stages(), *un.change_stages()}) if prev._views else ())
        stages: list[int] = []
        views: list[Clopen] = []
        for s in at:
            key = n, bisect_right(changes, s)
            view = meets.get(key)
            if view is None:
                view = un.stage_view(s)
                view = meets[key] = view if prev is None else prev.stage_view(s).intersect(view)
            if view and (not views or view != views[-1]):
                stages.append(s)
                views.append(view)
        comps.append(Enumeration._of_views(stages, views))
    return MLTest(comps, nested=True)


def even_shift(v: MLTest) -> MLTest:
    """Re-index to W_n = V_{2n+1}."""
    comps = [v.component(2 * n + 1)
             for n in range((v.max_index + 1) // 2)]
    if not comps:
        raise BudgetError(f"even shift needs component 1; test ends at {v.max_index}")
    return MLTest(comps)


def shift_union(v: MLTest) -> MLTest:
    """Tail unions: component i collects every component strictly above i.

    The union is truncated at the test's own top index; the truncation point
    is recorded in the notes so traces carry it.
    """
    items: set[tuple[int, int, str]] = set()  # top-down: components above i
    comps = [Enumeration._of_items(items)]
    for j in range(v.max_index, 0, -1):
        items.update([(s, len(c), c) for s, c in v.component(j).schedule])
        comps.append(Enumeration._of_items(items))
    return MLTest(comps[::-1], notes={"union_truncated_at": v.max_index})


def stratify(u: MLTest, budgets: Budgets) -> MLTest:
    """Unary-prefixed rebuild: component i holds the cone of 1**(i+3) plus
    every component-(i+1) cylinder re-rooted below 1**l 0 for l <= L.

    Re-rooted cylinders that would exceed the depth budget are skipped and
    counted in the notes: ``c`` fits below the layers ``l <= K - 1 - len(c)``.
    No triple repeats, since a re-rooted cylinder's first 0 marks its layer.
    """
    depth, layers = budgets.max_depth, budgets.max_layers
    comps: list[Enumeration] = []
    skipped = 0
    for i in range(u.max_index):
        head = "1" * (i + 3)
        if len(head) > depth:
            raise DepthExceededError(
                f"stratification head 1^{i + 3} exceeds depth K={depth}")
        items = [(0, i + 3, head)]
        for s, c in u.component(i + 1).schedule:
            top = max(min(layers, depth - 1 - len(c)), -1)
            skipped += layers - top
            items += [(s, layer + 1 + len(c), "1" * layer + "0" + c) for layer in range(top + 1)]
        comps.append(Enumeration._of_items(items))
    if not comps:
        raise BudgetError("stratification needs a test with at least two components")
    return MLTest(comps, notes={"depth_skipped": skipped})


def replace_component(u: MLTest, i: int, w: Enumeration) -> MLTest:
    """The same test with component ``i`` swapped for ``w``; the new test
    checks its budget."""
    if not 0 <= i <= u.max_index:
        raise BudgetError(f"component index {i} out of range 0..{u.max_index}")
    comps = list(u.components)
    comps[i] = w
    return MLTest(comps, nested=False, notes=dict(u.notes))


def index_shift(u: MLTest, c: int) -> MLTest:
    """Drop the first ``c`` components: component i becomes old i+c."""
    if c < 0 or c > u.max_index:
        raise BudgetError(f"shift {c} out of range for test ending at {u.max_index}")
    return MLTest([u.component(i + c) for i in range(u.max_index + 1 - c)],
                  nested=u.nested)
