"""Every public name and every record field of ``src/cantorlab`` is read
somewhere in the package.

A public top-level function, class or assignment, or a public method, that
no module of the package reads by name outside its own definition is dead
code, unless ``ALLOWED`` says why it stays.  Names are matched as plain
names and as attributes, so a method counts as read when any ``.name`` is.
A field of a record (a ``NamedTuple``, or a class that lists its fields in
``__slots__``) that no module of the package reads as an attribute is dead
too, unless ``ALLOWED`` says why: state that only the tests read is kept
for them, and says so.  A field read is matched by its owning class where
the reading code names that class: ``self`` in the class's own methods, or
a name annotated with the class or assigned one of its instances in the
same function.  So another class's attribute of the same name, read that
way, does not count; only a read of an object of unknown class is matched
by the name alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cantorlab"

# Public names the package itself never reads, each with the reason it stays.
ALLOWED = {
    "bundled_scenario": "the path to a bundled scenario, for the tests and users",
    "__version__": "the package version, for users",
    "sigma_plus": "the tests' every-stage lemma63 reference steps right with it",
    "eval_table": "the oracle the thm41 tests check table votes against",
    "intersect_all": "the meet_view oracle; perfbench's tracer test patches it",
    "Stream.bit": "the reference emitter of the realizer tests reads streams by bit",
    "Stream.starts_with": "the naive membership oracle of the tests",
}


def _parse(paths) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(paths)}


TREES = _parse(SRC.glob("*.py"))


def _top_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _definitions() -> dict[str, list[tuple[str, int, int]]]:
    """Each public top-level name and ``Class.method``, with the (module,
    first line, last line) of every statement defining it.  A dunder at top
    level (``__version__``) is public; a dunder method is protocol."""
    defs: dict[str, list[tuple[str, int, int]]] = {}
    for mod, tree in TREES.items():
        for node in tree.body:
            span = (mod, node.lineno, node.end_lineno)
            for name in _top_names(node):
                if not name.startswith("_") or name.endswith("__"):
                    defs.setdefault(name, []).append(span)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs.setdefault(f"{node.name}.{item.name}", []).append(
                            (mod, item.lineno, item.end_lineno))
    return defs


def _reads() -> dict[str, list[tuple[str, int]]]:
    """Where each name is read: a loaded plain name or any attribute."""
    reads: dict[str, list[tuple[str, int]]] = {}
    for mod, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((mod, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((mod, node.lineno))
    return reads


def _record_fields(node: ast.ClassDef) -> list[str]:
    """The fields of a record class: a ``NamedTuple`` subclass's annotated
    names, or the names a class lists in ``__slots__`` (but ``__dict__``);
    none for any other class."""
    if any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases):
        return [item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return [elt.value for item in node.body
            if isinstance(item, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)
            for elt in item.value.elts if elt.value != "__dict__"]


def _fields() -> set[str]:
    """Each ``Class.field`` of a record class of the package."""
    return {f"{node.name}.{name}"
            for tree in TREES.values() for node in tree.body
            if isinstance(node, ast.ClassDef)
            for name in _record_fields(node)}


def _class_of(node: ast.expr | None, classes: set[str]) -> str | None:
    """The package class an annotation or a value names: ``C``, ``"C"``,
    ``C | None`` or a call ``C(...)``; None for anything else."""
    if isinstance(node, ast.Call):
        node = node.func
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = {_class_of(node.left, classes), _class_of(node.right, classes)} - {None}
        return sides.pop() if len(sides) == 1 else None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in classes else None
    return node.id if isinstance(node, ast.Name) and node.id in classes else None


class _AttributeReads(ast.NodeVisitor):
    """Each loaded attribute as ``(class, name)``, the class being the one
    the object read is known to be an instance of, or None."""

    def __init__(self, classes: set[str]) -> None:
        self.classes, self.reads = classes, set()
        self.cls: str | None = None
        self.known: dict[str, str] = {}  # names of the current function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, cls = self.known, self.cls
        known = dict(outer)  # a nested function sees its enclosing names
        args = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        if cls is not None and args and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list):
            known[args[0].arg] = cls
        for a in args:
            if (c := _class_of(a.annotation, self.classes)) is not None:
                known[a.arg] = c
        for sub in ast.walk(node):
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                value = sub.annotation
            elif (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                  and isinstance(sub.targets[0], ast.Name)):
                value = sub.value
            else:
                continue
            if (c := _class_of(value, self.classes)) is not None:
                known[(sub.target if isinstance(sub, ast.AnnAssign) else sub.targets[0]).id] = c
        self.known, self.cls = known, None
        self.generic_visit(node)
        self.known, self.cls = outer, cls

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            owner = self.known.get(node.value.id) if isinstance(node.value, ast.Name) else None
            self.reads.add((owner, node.attr))
        self.generic_visit(node)


def _attribute_reads(trees: dict[str, ast.Module]) -> set[tuple[str | None, str]]:
    """Every attribute loaded in ``trees``, as ``(class, name)``."""
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    visitor = _AttributeReads(classes)
    for tree in trees.values():
        visitor.visit(tree)
    return visitor.reads


DEFS, READS = _definitions(), _reads()
FIELDS, ATTRIBUTE_READS = _fields(), _attribute_reads(TREES)


def _read_elsewhere(key: str) -> bool:
    spans = DEFS[key]
    return any(not any(mod == m and lo <= line <= hi for m, lo, hi in spans)
               for mod, line in READS.get(key.rpartition(".")[2], []))


def test_every_public_name_is_read_by_the_package():
    unused = sorted(k for k in DEFS if k not in ALLOWED and not _read_elsewhere(k))
    assert unused == [], f"public names nothing in src/cantorlab reads: {unused}"


def _field_read(key: str, reads=ATTRIBUTE_READS) -> bool:
    """Whether ``Class.field`` is read on an object of that class, or on
    one of unknown class."""
    cls, _, name = key.rpartition(".")
    return (cls, name) in reads or (None, name) in reads


def test_every_record_field_is_read():
    unread = sorted(k for k in FIELDS if k not in ALLOWED and not _field_read(k))
    assert unread == [], f"record fields nothing in src/ reads: {unread}"


def test_allowlist_names_only_defined_unread_names():
    stale = sorted(k for k in ALLOWED
                   if (_field_read(k) if k in FIELDS else k not in DEFS or _read_elsewhere(k)))
    assert stale == [], f"allowlisted names that are read or gone: {stale}"


def test_field_read_by_another_class_of_the_same_name_is_not_a_read():
    """``A.size`` is read by no code that holds an ``A``: ``B`` reads its own
    ``size``, through ``self`` and through annotated and constructed names."""
    tree = ast.parse(
        "class A:\n"
        "    __slots__ = ('size', 'kind')\n"
        "class B:\n"
        "    __slots__ = ('size',)\n"
        "    def grow(self):\n"
        "        return self.size + 1\n"
        "def total(b: B, a: A):\n"
        "    c = B()\n"
        "    return b.size + c.size + a.kind\n")
    reads = _attribute_reads({"m": tree})
    assert not _field_read("A.size", reads)
    assert _field_read("B.size", reads)
    assert _field_read("A.kind", reads)
    # a read of an object of unknown class still counts for every class
    assert _field_read("A.size", reads | {(None, "size")})
