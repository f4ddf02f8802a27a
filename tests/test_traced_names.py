"""Every callable that perfbench's tracer and layer metrics name exists.

The tracer wraps each layer module's public callables, and the layer
metrics select spans and counters by name (``layer.attr`` or
``layer.Class.attr``).  A name that no longer resolves is not an error
there: its metric silently reads 0.  This test parses ``perfbench/layers.py``
and ``perfbench/tracer.py`` and resolves every name they use in a callable
position, so a refactor that moves a traced callable fails here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the name sets whose members are callables; metric keys are not
NAME_SETS = {"SEARCH", "VIEWS", "DERIVE", "COUNT_ONLY", "UNWRAPPED"}
LAYERS = ("core", "enumeration", "deficiency", "constructions", "realizers", "cli")

# Names that resolve to nothing today, each with what became of it.
KNOWN_STALE = {
    "core.is_prefix": "no longer a function of core",
    "core.str_order": "only core.str_order_key remains",
    "constructions.to_jsonable": "replaced by the encoder hook constructions._default",
    "realizers.Emitter.step_emit": "the emission is recorded by Emitter.record",
    "enumeration.Enumeration.final_view": "no longer a method of Enumeration",
    "enumeration.stage_view": "views are methods of Enumeration and MLTest",
    "core.leftmost_uncovered": "lemma63 finds its init from integer spans; the "
                               "function is the tests' oracle in conftest",
    "deficiency.Stream.bit": "only the tests read a stream by bit; stream_bit in conftest",
    "deficiency.Stream.starts_with": "only the tests asked it; starts_with in conftest",
}


def _traced_names() -> set[str]:
    """The names in callable positions: the arguments of ``t.calls(...)``
    and ``_in({...})``, the members of the name sets, and the names the
    tracer compares a wrapped method's name with (the ``ConstructionTrace.add``
    probe)."""
    names: set[str] = set()
    for path in (PERFBENCH / "layers.py", PERFBENCH / "tracer.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in NAME_SETS for t in node.targets):
                code = compile(ast.Expression(node.value), str(path), "eval")
                names |= eval(code, {"__builtins__": {"frozenset": frozenset}})
            elif isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Attribute) and node.func.attr == "calls"
                    or isinstance(node.func, ast.Name) and node.func.id == "_in"):
                for arg in node.args:
                    elts = arg.elts if isinstance(arg, ast.Set) else [arg]
                    names |= {e.value for e in elts if isinstance(e, ast.Constant)}
            elif isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) \
                    and node.left.id == "name":
                names |= {c.value for c in node.comparators
                          if isinstance(c, ast.Constant) and isinstance(c.value, str)
                          and c.value.split(".")[0] in LAYERS}
    return names


def _resolves(name: str) -> bool:
    """Whether ``layer.attr[.attr]`` is a callable defined in that layer."""
    layer, *path = name.split(".")
    obj = importlib.import_module(f"cantorlab.{layer}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return callable(obj) and getattr(obj, "__module__", None) == f"cantorlab.{layer}"


def test_layers_match_the_tracer():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)]
    assert ast.literal_eval(value) == LAYERS


def test_names_found():
    names = _traced_names()
    assert {"realizers.Emitter.record", "realizers.Emitter.pad", "cli.execute",
            "cli.trace_lines", "constructions.ConstructionTrace.add",
            "enumeration.universal_sum", "core.first_extension_into"} <= names
    assert "core.clopen_built" not in names  # a metric key


def test_traced_names_resolve():
    stale = {name for name in _traced_names() if not _resolves(name)}
    assert stale == set(KNOWN_STALE)
