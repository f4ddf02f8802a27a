"""Stage-scheduled enumerations, measure-budgeted test families, combinators,
and the scenario world they are instantiated over.

An enumeration is a finite schedule of (stage, cylinder) pairs; its view at a
stage is the canonical union of everything scheduled so far, so views only
grow, and they change only at the stages that schedule something.  The
views are built together when a stage before the last is first read: one
walk of the schedule merges each cylinder's leaf span, at the depth of the
longest cylinder, into one list of span boundaries, and each change stage
makes one clopen of the list; the final measure is one sorted pass over
those spans.  A test is an indexed family of enumerations where component
``i`` must stay within measure ``2**-i``, checked exactly on final measures.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_right
from functools import cached_property
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
    json_int,
)
from .deficiency import CoTree, Stream, rd_at_stage


class Enumeration:
    """A monotone stage-scheduled clopen: cylinders tagged with entry stages.

    The view and its measure are constant between consecutive
    ``change_stages()``, so anything derived from views at one stage holds
    until the next change stage.
    """

    __slots__ = ("schedule", "_stages", "_views", "_final")

    def __init__(self, schedule: Iterable[tuple[int, str]] = ()) -> None:
        items = set()  # (stage, len, cylinder) sorts as stage, then length-lex
        for st, c in schedule:
            if type(st) is not int or st < 0:
                raise ValueError(f"schedule stage must be a non-negative integer, got {st!r}")
            items.add((st, len(check_bits(c)), c))
        self._set(items)

    @classmethod
    def _copied(cls, schedule: Iterable[tuple[int, str]]) -> "Enumeration":
        """The enumeration of pairs taken from checked enumerations, each
        cylinder kept or re-rooted below a binary string: none is checked again."""
        e = cls.__new__(cls)
        e._set({(st, len(c), c) for st, c in schedule})
        return e

    def _set(self, items: set[tuple[int, int, str]]) -> None:
        self.schedule: tuple[tuple[int, str], ...] = tuple(
            [(st, c) for st, _, c in sorted(items)])
        self._stages = self._views = self._final = None

    @classmethod
    def _of_views(cls, stages: list[int], views: list[Clopen]) -> "Enumeration":
        """The enumeration whose view becomes ``views[k]`` at ``stages[k]``
        (increasing stages, growing nonempty views): it schedules each
        view's canonical cylinders, already length-lex, at its stage."""
        e = cls._copied((s, c) for s, v in zip(stages, views) for c in v.cylinders)
        e._stages, e._views = stages, views
        return e

    def _ensure(self) -> None:
        """Build the views: merge each stage's leaf spans, at the longest
        cylinder's depth, into the boundaries so far, and make one clopen
        of them per change stage."""
        d = self.max_length()
        stages: list[int] = []
        views: list[Clopen] = []
        out: list[int] = []
        for s, entries in groupby(self.schedule, key=itemgetter(0)):
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
        return self.stage_view(s).measure() if s >= 0 else Dyadic.zero()

    def change_stages(self) -> tuple[int, ...]:
        if self._stages is None:
            self._ensure()
        return tuple(self._stages)

    def final_measure(self) -> Dyadic:
        """The last view's measure, from one sorted pass over the leaf spans
        of the cylinders at the deepest one's depth: no view is built."""
        if self._final is None:
            d, leaves, reach = self.max_length(), 0, 0
            for lo, hi in sorted([_leaf_span(c, d) for _, c in self.schedule]):
                if hi > reach:
                    leaves += hi - max(lo, reach)
                    reach = hi
            self._final = Dyadic(leaves, d)
        return self._final

    def last_stage(self) -> int:
        return self.schedule[-1][0] if self.schedule else 0

    def max_length(self) -> int:
        return max((len(c) for _, c in self.schedule), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Enumeration):
            return NotImplemented
        return self.schedule == other.schedule

    def __hash__(self) -> int:
        return hash(self.schedule)

    def __repr__(self) -> str:
        return f"Enumeration({list(self.schedule)!r})"


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
        clopen is immutable.  A new key extends the largest memoized k < n
        by one ``intersect`` per index.
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
        for i, comp in enumerate(self.components):
            m = comp.final_measure()
            if m > Dyadic.exp2(-i):
                raise BudgetError(
                    f"component {i} has measure {m} exceeding 2^-{i}")

    def check_nested_stagewise(self) -> bool:
        stages = self.change_stages() or (0,)
        for i in range(self.max_index):
            for s in stages:
                if not self.stage_view(i + 1, s).is_subset_of(self.stage_view(i, s)):
                    return False
        return True


def effective_top(t: MLTest) -> int:
    """Largest component index with any scheduled content.

    Components above it are structurally empty (their defining indices fall
    outside the index budget), so intersections and pad targets stop here.
    """
    for i in range(t.max_index, -1, -1):
        if t.component(i).schedule:
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
    def from_json(cls, obj: Mapping) -> "Budgets":
        try:
            depth = json_int(obj["K"], "budget K")
            return cls(
                max_index=json_int(obj["I"], "budget I"),
                max_stage=json_int(obj["S"], "budget S"),
                max_depth=depth,
                max_layers=json_int(obj.get("L", depth // 2), "budget L"),
            )
        except KeyError as exc:
            raise ScenarioError(f"budgets missing field {exc}") from exc
        except (TypeError, AttributeError) as exc:
            raise ScenarioError(f"malformed budgets: {exc}") from exc

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


def _parse_schedule(entries: Iterable[Mapping]) -> list[tuple[int, str]]:
    """The (stage, cylinder) pairs; ``Enumeration`` checks the cylinders."""
    return [(json_int(e["stage"], "stage"), e["cylinder"]) for e in entries]


def load_scenario(source: str | PathLike | Mapping) -> Scenario:
    """Parse a scenario from a JSON file path or an already-loaded mapping.

    An unreadable file raises OSError or JSONDecodeError; content with a
    missing field, a wrong type or an invalid value raises ScenarioError.
    """
    if isinstance(source, (str, PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = source
    if not isinstance(raw, Mapping):
        raise ScenarioError("scenario must be a JSON object")
    raw = dict(raw)
    _check_nesting(raw)
    fields: list[str] = []  # the fields read so far; a parse error is in the last
    try:
        return _parse_scenario(raw, fields)
    except KeyError as exc:
        raise ScenarioError(f"scenario missing field {exc} in {fields[-1]}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ScenarioError(f"malformed scenario: {fields[-1]}: {exc}") from exc


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


def _indexed(table: Mapping, what: str) -> list[tuple[int, object]]:
    """The items of a table keyed by indices in plain decimal, in index order."""
    for key in table:
        if not (type(key) is str and key.isdecimal() and str(int(key)) == key):
            raise ScenarioError(f"{what} key {key!r} is not a canonical index")
    return sorted((int(key), value) for key, value in table.items())


def _unique(pairs: Iterable[tuple], what: str) -> dict:
    """The dict of ``pairs``; a key that appears twice raises ScenarioError."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ScenarioError(f"{what} {key!r} appears twice")
        out[key] = value
    return out


def _parse_scenario(raw: dict, fields: list[str]) -> Scenario:
    def read(key: str, default: Any) -> Any:
        fields.append(key)
        return raw.get(key, default)

    budgets = Budgets.from_json(read("budgets", {}))
    budgets.validate()  # before any test: I sizes every test built below
    big_i = budgets.max_index

    tests: list[MLTest] = []
    for ti, test_entries in enumerate(read("tests", [])):
        triples = [(json_int(e["component"], "component"), json_int(e["stage"], "stage"),
                    e["cylinder"]) for e in test_entries]
        outside = [comp for comp, _, _ in triples if not 0 <= comp <= big_i]
        if outside:
            raise ScenarioError(
                f"test {ti} schedules component {outside[0]} outside 0..I={big_i}")
        comps = [Enumeration([(s, c) for comp, s, c in triples if comp == i])
                 for i in range(big_i + 1)]
        tests.append(MLTest(comps))

    partial = {key: _unique(((json_int(e["arg"], "arg"),
                              (json_int(e["stage"], "stage"), json_int(e["value"], "value")))
                             for e in entries), f"partial function {key}: arg")
               for key, entries in _indexed(read("partial_functions", {}), "partial function")}

    functionals = {key: _unique((((check_bits(e["prefix"]), json_int(e["advice"], "advice")),
                                  json_int(e["value"], "value")) for e in entries),
                                f"functional {key}: (prefix, advice)")
                   for key, entries in _indexed(read("functionals", {}), "functional")}

    halting = _unique(((json_int(e["e"], "e"), json_int(e["stage"], "stage"))
                       for e in read("halting", [])), "halting entry e")

    declared = read("streams", [])
    for k, e in enumerate(declared):
        if type(e["name"]) is not str:
            raise ScenarioError(f"streams[{k}].name must be a string, got {e['name']!r}")
        if type(e.get("random", False)) is not bool:
            raise ScenarioError(f"streams[{k}].random must be a boolean, got {e['random']!r}")
    streams = _unique(((e["name"], Stream(name=e["name"], pad=e.get("pad", ""),
                                          period=e["period"])) for e in declared), "stream")
    randoms = [e["name"] for e in declared if e.get("random")]

    opens: dict[str, tuple[Enumeration, ...]] = {}
    for name, family in sorted(read("opens", {}).items()):
        opens[name] = tuple(Enumeration(_parse_schedule(entries)) for entries in family)

    trees: dict[str, Enumeration] = {}
    for name, entries in sorted(read("trees", {}).items()):
        trees[name] = Enumeration(_parse_schedule(entries))

    family = read("parallel_family", [])
    if type(family) is not list or any(type(name) is not str for name in family):
        raise ScenarioError(f"parallel_family must be a list of strings, got {family!r}")

    return Scenario(
        budgets=budgets,
        tests=tuple(tests),
        partial_functions=partial,
        functionals=functionals,
        halting=halting,
        streams=streams,
        random_streams=tuple(randoms),
        inert_functionals=frozenset(json_int(e, "inert functional")
                                    for e in read("inert_functionals", [])),
        opens=opens,
        trees=trees,
        parallel_family=tuple(family),
        parallel_bound=json_int(read("parallel_bound", 0), "parallel_bound"),
        raw=raw,
    )


def validate_scenario(sc: Scenario) -> None:
    """Check budgets, schedules, stream declarations, and the padding reservoir.

    Raises ScenarioError on structural violations and SearchExhaustedError if
    the padding reservoir (a cylinder inside every universal component's
    stage-0 view) is missing.
    """
    b = sc.budgets
    b.validate()
    if not sc.tests:
        raise ScenarioError("scenario registers no tests")
    for ti, t in enumerate(sc.tests):
        for i, comp in enumerate(t.components):
            for s, c in comp.schedule:
                if s > b.max_stage:
                    raise ScenarioError(
                        f"test {ti} component {i}: stage {s} exceeds S={b.max_stage}")
                if len(c) > b.max_depth:
                    raise ScenarioError(
                        f"test {ti} component {i}: cylinder {c!r} deeper than K={b.max_depth}")
        t.ensure_budget()
    for e, table in sc.partial_functions.items():
        for arg, (stage, _value) in table.items():
            if stage > b.max_stage:
                raise ScenarioError(
                    f"partial function {e} arg {arg}: stage {stage} exceeds S")
    for e, table in sc.functionals.items():
        for (prefix, _advice) in table:
            if len(prefix) > b.max_depth:
                raise ScenarioError(f"functional {e}: prefix {prefix!r} deeper than K")
    for e, stage in sc.halting.items():
        if stage > b.max_stage:
            raise ScenarioError(f"halting entry {e}: stage {stage} exceeds S")
    unknown_inert = sc.inert_functionals - set(sc.functionals)
    if unknown_inert:
        raise ScenarioError(f"inert declaration for unknown functionals {sorted(unknown_inert)}")
    for name, fam in sc.opens.items():
        for enum in fam:
            if enum.max_length() > b.max_depth:
                raise ScenarioError(f"open family {name!r} deeper than K")
    for name, enum in sc.trees.items():
        if enum.max_length() > b.max_depth:
            raise ScenarioError(f"tree {name!r} deeper than K")

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

    for name in sc.random_streams:
        x = sc.stream(name)
        if rd_at_stage(x, surrogate, b.max_stage) > top:
            raise ScenarioError(
                f"stream {name!r} declared random but captured by every "
                f"contentful component at stage {b.max_stage}")

    for name in sc.parallel_family:
        if name not in sc.random_streams:
            raise ScenarioError(
                f"parallel family member {name!r} is not a declared random stream")
        d = rd_at_stage(sc.stream(name), surrogate, b.max_stage)
        if d > sc.parallel_bound:
            raise ScenarioError(
                f"parallel family member {name!r} has deficiency {d} "
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
        comps.append(terms[0] if len(terms) == 1 else
                     Enumeration._copied(p for c in terms for p in c.schedule))
    return MLTest(comps, notes={"truncated_terms": truncated})


def descending_chain(u: MLTest) -> MLTest:
    """The stagewise intersections V_n of components 0..n; nested by design.
    V_n = V_{n-1} ∩ U_n is computed only at the stages where V_{n-1} or U_n
    changes: both views are constant between them."""
    comps: list[Enumeration] = []
    for n in range(u.max_index + 1):
        un, prev = u.component(n), comps[-1] if comps else None
        at = (un.change_stages() if prev is None  # an empty V_{n-1} leaves V_n empty
              else sorted({*prev.change_stages(), *un.change_stages()}) if prev.schedule else ())
        stages: list[int] = []
        views: list[Clopen] = []
        for s in at:
            view = un.stage_view(s)
            view = view if prev is None else prev.stage_view(s).intersect(view)
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
    comps = []
    for i in range(v.max_index + 1):
        sched: list[tuple[int, str]] = []
        for j in range(i + 1, v.max_index + 1):
            sched.extend(v.component(j).schedule)
        comps.append(Enumeration._copied(sched))
    return MLTest(comps, notes={"union_truncated_at": v.max_index})


def stratify(u: MLTest, budgets: Budgets) -> MLTest:
    """Unary-prefixed rebuild: component i holds the cone of 1**(i+3) plus
    every component-(i+1) cylinder re-rooted below 1**l 0 for l <= L.

    Re-rooted cylinders that would exceed the depth budget are skipped and
    counted in the notes.
    """
    depth, layers = budgets.max_depth, budgets.max_layers
    comps: list[Enumeration] = []
    skipped = 0
    for i in range(u.max_index):
        head = "1" * (i + 3)
        if len(head) > depth:
            raise DepthExceededError(
                f"stratification head 1^{i + 3} exceeds depth K={depth}")
        sched: list[tuple[int, str]] = [(0, head)]
        for s, c in u.component(i + 1).schedule:
            for layer in range(layers + 1):
                moved = "1" * layer + "0" + c
                if len(moved) <= depth:
                    sched.append((s, moved))
                else:
                    skipped += 1
        comps.append(Enumeration._copied(sched))
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
