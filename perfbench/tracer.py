"""Outside-in tracing of cantorlab: wrap each layer's public callables and
record spans in memory, aggregated into a call tree.

A span has a name, a start, an end and a parent.  Keeping every span of a
deep-sweep pass would mean tens of millions of records, so spans that share
a parent node and a name are merged into one call-tree node holding the call
count, first start, last end, inclusive time and self time.  Self time is a
span's duration minus the time its child spans cover.

The layers are the modules ``core``, ``enumeration``, ``deficiency``,
``constructions``, ``realizers`` and ``cli``.  Most public callables become
timed spans.  Some are count-only hooks (see ``COUNT_ONLY``), as are
generators; their time stays with the calling span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

LAYERS = ("core", "enumeration", "deficiency", "constructions", "realizers", "cli")

# Per-element string helpers: wrapping them would multiply the cost of every
# Clopen construction, so their time is charged to the caller.
UNWRAPPED = frozenset({
    "core.check_bits", "core.is_prefix", "core.str_order_key", "core.str_order",
})

# Count-only hooks: callables run millions of times per deep-sweep pass whose
# time can stay with the calling span, mostly of the same layer.  The named
# dunders are the only dunders hooked.
COUNT_ONLY = frozenset({
    "core.Clopen.__init__", "core.Dyadic.__lt__", "core.Dyadic.__le__",
    "deficiency.Stream.bit", "deficiency.Stream.prefix", "deficiency.Stream.starts_with",
    "enumeration.MLTest.component", "realizers.Emitter.record",
    "realizers.Emitter.step_emit", "constructions.to_jsonable",
})


@dataclass
class Span:
    """One finished span, as a record for :func:`self_times`.  ``parent`` is
    the index of the enclosing span or -1."""

    name: str
    start: float
    end: float
    parent: int = -1


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the union of the intervals
    its direct children cover, clipped to the span.  This is the reference
    the call tree's running self times are tested against."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        reach = sp.start
        for ch in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(ch.start, reach), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((sp.end - sp.start) - covered)
    return out


@dataclass(eq=False, slots=True)
class Node:
    """All spans with one name under one parent node, merged.

    A node's path from the root is fixed, so it is open at most once at a
    time.  Self time is kept by adding each span's duration to its node and
    subtracting it from the parent's.
    """

    id: int
    name: str
    parent: int
    layer: str
    calls: int = 0
    first_start: float = 0.0
    last_end: float = 0.0
    total: float = 0.0
    self_time: float = 0.0
    kids: dict[str, int] = field(default_factory=dict)


class Tracer:
    """In-memory call tree of spans, built by wrappers from :meth:`install`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.nodes: list[Node] = [Node(0, "root", -1, "root")]
        self._stack: list[Node] = [self.nodes[0]]
        self._counters: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []
        # realizer trace object -> distinct stages it carried an event at
        self._realizer_stages: dict[int, set[int]] = {}
        self._realizer_traces: list[object] = []

    # -- spans and counters ----------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call records one span named ``name``."""
        stack, clock = self._stack, self.clock
        push, pop = stack.append, stack.pop
        node_under: dict[Node, Node] = {}  # parent node -> this span's node

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            n = node_under.get(parent)
            if n is None:
                n = node_under[parent] = self._node(name, parent)
            push(n)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                dur = end - start
                n.self_time += dur
                parent.self_time -= dur
                if not n.calls:
                    n.first_start = start
                n.calls += 1
                n.total += dur
                n.last_end = end

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _node(self, name: str, parent: Node) -> Node:
        if name not in parent.kids:
            parent.kids[name] = len(self.nodes)
            self.nodes.append(Node(len(self.nodes), name, parent.id, name.split(".", 1)[0]))
        return self.nodes[parent.kids[name]]

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call bumps the counter ``name``."""
        cell = self._counters.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counts(self) -> dict[str, int]:
        """Calls so far of every count-only hook."""
        return {name: cell[0] for name, cell in self._counters.items()}

    # -- realizer useful-work probe -------------------------------------------

    def _trace_add_probe(self, fn: Callable) -> Callable:
        """Note the stage of each trace event a realizer emits."""
        nodes, stack = self.nodes, self._stack

        def probe(trace, stage, *args, **kwargs):
            # stack[-1] is this add() span; its parent is the caller
            if nodes[stack[-1].parent].layer == "realizers":
                key = id(trace)
                seen = self._realizer_stages.get(key)
                if seen is None:
                    seen = self._realizer_stages[key] = set()
                    self._realizer_traces.append(trace)  # keep id() unique
                seen.add(stage)
            return fn(trace, stage, *args, **kwargs)

        return probe

    def take_active_stages(self) -> int:
        """Distinct (realizer trace, stage) pairs seen since the last call."""
        n = sum(len(s) for s in self._realizer_stages.values())
        self._realizer_stages.clear()
        self._realizer_traces.clear()
        return n

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of each layer module.

        A function imported by name into another module has a binding there
        too; every binding of it in the package is patched, or calls through
        it would go unrecorded.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"cantorlab.{layer}") for layer in LAYERS}
        pkg_mods = [m for name, m in sorted(sys.modules.items())
                    if m is not None and (name == "cantorlab" or name.startswith("cantorlab."))]
        for layer, mod in mods.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and name not in UNWRAPPED:
                    wrapped = self._wrap(name, obj)
                    for m in pkg_mods:
                        for key, val in list(vars(m).items()):
                            if val is obj:
                                self._patch(m, key, wrapped)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in sorted(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if not inspect.isfunction(obj) or (attr.startswith("_") and name not in COUNT_ONLY):
                continue
            if name == "constructions.ConstructionTrace.add":
                obj = self._trace_add_probe(obj)
            self._patch(cls, attr, self._wrap(name, obj))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            return self.counter(name, fn)
        return self.span(name, fn)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched binding, in reverse order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def subtree(self, root: int) -> Iterable[int]:
        todo = [root]
        while todo:
            node = todo.pop()
            yield node
            todo.extend(self.nodes[node].kids.values())

    def dump(self) -> list[dict]:
        """The call tree as plain records, for writing out after the run."""
        return [{"id": n.id, "name": n.name, "parent": n.parent, "calls": n.calls,
                 "start": n.first_start, "end": n.last_end, "total_s": n.total,
                 "self_s": n.self_time} for n in self.nodes[1:]]

