"""Static checks on the package source."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "srgkit").glob("*.py"))
SOURCES = [path for path in PACKAGE if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads
    (a name listed in ``__all__`` counts as read: it is re-exported)."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Sequence, Mapping as M\n"
        "__all__ = ['M']\n"
        "def f(x: Sequence) -> None:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants (one leading
    underscore) that no module of ``sources`` reads.  A read is a load of
    the name, an attribute of that name, or an import of it."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            found += [
                f"{name} line {node.lineno}: {target}"
                for target in targets
                if target[:1] == "_" and target[:2] != "__" and target not in read
            ]
    return found


def test_the_scan_finds_an_unused_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_cache: dict = {}\n"
            "__all__ = []\n"
            "def _used():\n"
            "    return _LIMIT\n"
            "def _left(): pass\n"
            "class _Old: pass\n"
        ),
        "b.py": "import a\nfrom a import _used\nsize = len(a._cache)\n",
    }
    assert unused_private_names(sources) == ["a.py line 6: _left", "a.py line 7: _Old"]


def test_no_unused_private_names():
    assert unused_private_names({path.name: path.read_text() for path in PACKAGE}) == []


def top_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level by a definition, an assignment or
    an import."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return bound


def top_level_literal(tree: ast.Module, name: str, default):
    """The literal value assigned to ``name`` at top level, else ``default``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return default


def undefined_exports(source: str, siblings: dict[str, str] | None = None) -> list[str]:
    """Names listed in ``__all__`` that the module does not bind at top
    level, then stale entries of its lazy export table.

    A package may leave an exported name unbound and list it in
    ``_EXPORTS`` (name -> submodule), which its ``__getattr__`` imports on
    first access.  Such a name passes only if that submodule, whose source
    ``siblings`` maps by name, binds it at top level; every other entry of
    the table must pass the same test."""
    tree = ast.parse(source)
    bound = top_level_names(tree)
    exported = top_level_literal(tree, "__all__", [])
    table = top_level_literal(tree, "_EXPORTS", {})
    siblings = siblings or {}
    found = []
    for name in [*exported, *(name for name in table if name not in exported)]:
        if name in table:
            module = siblings.get(table[name], "")
            defined = name in top_level_names(ast.parse(module))
        else:
            defined = name in bound
        if not defined:
            found.append(name)
    return found


def test_the_scan_finds_a_stale_export():
    source = (
        "from .a import kept\n"
        "__all__ = ['kept', 'gone', 'f', 'C', 'LIMIT']\n"
        "LIMIT = 3\n"
        "def f(): pass\n"
        "class C: pass\n"
    )
    assert undefined_exports(source) == ["gone"]


def test_the_scan_finds_a_stale_lazy_export():
    package = (
        "_EXPORTS = {\n"
        "    'kept': 'a', 'moved': 'a', 'lost': 'c', 'extra': 'b', 'old': 'b',\n"
        "}\n"
        "__all__ = ['kept', 'moved', 'lost', 'unlisted', '__version__']\n"
        "__version__ = '1'\n"
    )
    siblings = {
        "a": "from .b import extra\ndef kept(): pass\n",
        "b": "def extra(): pass\ndef moved(): pass\n",
    }
    assert undefined_exports(package, siblings) == ["moved", "lost", "unlisted", "old"]


SIBLINGS = {path.stem: path.read_text() for path in PACKAGE}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_export_is_defined(path):
    assert undefined_exports(path.read_text(), SIBLINGS) == []


def clock_and_chance_imports(source: str) -> list[str]:
    """Imports of ``time`` or ``random`` that run when the module loads:
    at top level or in a top-level block, not inside a function."""
    found, nodes = [], list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            nodes.extend(ast.iter_child_nodes(node))
            continue
        for name in names:
            if name.partition(".")[0] in ("time", "random"):
                found.append((node.lineno, f"line {node.lineno}: {name}"))
    return [text for _, text in sorted(found)]


def test_the_scan_finds_a_clock_or_chance_import():
    source = (
        "import os, time as clock\n"
        "from random import shuffle\n"
        "from .random import local\n"
        "import timeit\n"
        "if clock:\n"
        "    import random.seed\n"
        "def f():\n"
        "    import time\n"
    )
    assert clock_and_chance_imports(source) == [
        "line 1: time",
        "line 2: random",
        "line 6: random.seed",
    ]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "cli.py"], ids=lambda path: path.name
)
def test_only_the_cli_imports_the_clock_or_chance(path):
    """Payloads come from the library, so they stay byte-identical from
    run to run; the CLI alone reads the clock, to report timings."""
    assert clock_and_chance_imports(path.read_text()) == []


def dataclasses_imports(source: str) -> list[str]:
    """Imports of ``dataclasses`` anywhere in the module, function bodies
    included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name == "dataclasses"]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_the_scan_finds_a_dataclasses_import():
    source = (
        "import os, dataclasses as dc\n"
        "from .dataclasses import local\n"
        "def f():\n"
        "    from dataclasses import dataclass\n"
    )
    assert dataclasses_imports(source) == [
        "line 1: dataclasses",
        "line 4: dataclasses",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    """Records are built by ``base._record``: ``dataclasses`` imports
    ``inspect`` and compiles every method of every record at each start."""
    assert dataclasses_imports(path.read_text()) == []


def package_imports(source: str) -> list[str]:
    """Imports of srgkit modules anywhere in the module, function bodies
    and ``TYPE_CHECKING`` blocks included: relative imports, and absolute
    ones of ``srgkit`` or a submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if name[:1] == "." or name.partition(".")[0] == "srgkit"
        ]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_the_scan_finds_a_package_import():
    source = (
        "import re, srgkit.gf\n"
        "from operator import attrgetter\n"
        "from . import schemes\n"
        "def f():\n"
        "    from .graphcore import Graph\n"
        "    from srgkit_extra import g\n"
    )
    assert package_imports(source) == [
        "line 1: srgkit.gf",
        "line 3: .",
        "line 5: .graphcore",
    ]


def test_the_base_layer_imports_no_other_layer():
    """Every layer and the command line stand on ``srgkit.base``, so a
    scheme job and ``import srgkit.cli`` compile neither ``gf`` nor
    ``graphcore``; that holds only while it imports no srgkit module."""
    base = next(path for path in PACKAGE if path.name == "base.py")
    assert package_imports(base.read_text()) == []


def layer_order() -> list[str]:
    """The layers as ``srgkit/__init__``'s docstring lists them, bottom up."""
    init = next(path for path in PACKAGE if path.name == "__init__.py")
    doc = ast.get_docstring(ast.parse(init.read_text()))
    return re.findall(r":mod:`srgkit\.(\w+)`", doc)


def upward_imports(source: str, layer: str, order: list[str]) -> list[str]:
    """Module-level relative imports (``TYPE_CHECKING`` blocks included;
    function bodies exempt) of a layer not listed before ``layer`` in
    ``order``.  A module not in ``order`` stands above every layer."""
    rank = order.index(layer) if layer in order else len(order)
    found, nodes = [], list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            found += [(node.lineno, n) for n in names if n not in order[:rank]]
    return [f"line {line}: .{name}" for line, name in sorted(found)]


def test_the_scan_finds_an_upward_import():
    order = ["base", "gf", "geometry", "graphcore", "orbitals"]
    source = (
        "from typing import TYPE_CHECKING\n"
        "from .base import _record\n"
        "from .orbitals import PermGroupAction\n"
        "from . import graphcore, gf\n"
        "if TYPE_CHECKING:\n"
        "    from .geometry import FormedSpace\n"
        "def f():\n"
        "    from .orbitals import compute_orbitals\n"
    )
    assert upward_imports(source, "geometry", order) == [
        "line 3: .orbitals",
        "line 4: .graphcore",
        "line 6: .geometry",
    ]
    assert upward_imports(source, "__main__", order) == []


def test_the_layer_order_lists_every_module():
    order = layer_order()
    assert order[:2] == ["base", "gf"] and order[-1] == "cli"
    layers = [path.stem for path in SOURCES if path.stem != "__main__"]
    assert sorted(order) == sorted(layers)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_level_import_is_of_a_lower_layer(path):
    """A module imports, at module level, only layers listed before it in
    ``srgkit/__init__``; an import of a higher layer waits in the
    function that needs it, so importing a layer compiles none above it."""
    assert upward_imports(path.read_text(), path.stem, layer_order()) == []


# the owners of the ``"group-orbitals"`` certificate: who may write it, and
# who may read it
CERTIFICATE_WRITERS = {"compute_orbitals", "orbital_graph"}
CERTIFICATE_READERS = {"orbital_graph", "check_srg", "intersection_number_direct"}


def owned_statements(tree: ast.Module):
    """(owner, statement) for each module-level statement, and for each
    statement of a class body, whose owner is ``Class.method``."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                name = getattr(item, "name", None)
                yield (f"{top.name}.{name}" if name else top.name), item
        else:
            yield getattr(top, "name", "module level"), top


def certificate_write(node: ast.AST) -> ast.AST | None:
    """The value that ``node`` writes to a certificate: a ``certificate``
    keyword, or a call ``object.__setattr__(graph, "certificate", value)``
    (``setattr`` alike); else None."""
    if isinstance(node, ast.keyword) and node.arg == "certificate":
        return node.value
    if isinstance(node, ast.Call) and len(node.args) == 3:
        name = node.args[1]
        if isinstance(name, ast.Constant) and name.value == "certificate":
            return node.args[2]
    return None


def certificate_misuses(source: str) -> list[str]:
    """Uses of the ``"group-orbitals"`` certificate outside its owners.
    It may be written only in ``compute_orbitals``, which earns it for a
    partition, and in ``orbital_graph``, which carries it onto a graph of
    certified classes; a value copied into such a write is part of it, and
    writing None anywhere withdraws nothing.  It may be read (compared, or through the
    ``certificate`` attribute) only in ``orbital_graph``, ``check_srg``
    and ``intersection_number_direct``, which act on it.  Any other use of
    the literal, a named copy of it for one, is flagged too.  So a count
    of one pair per orbit cannot run on pairs that no group certifies."""
    found = []

    def flag(node, use, owner, allowed):
        if owner not in allowed:
            found.append((node.lineno, f"line {node.lineno}: {use} in {owner}"))

    for owner, top in owned_statements(ast.parse(source)):
        copied = set()
        for node in ast.walk(top):
            value = certificate_write(node)
            no_write = isinstance(value, ast.Constant) and value.value is None
            if value is None or no_write:
                continue
            flag(node, "written", owner, CERTIFICATE_WRITERS)
            copied.update(map(id, ast.walk(value)))
        for node in ast.walk(top):
            for child in ast.iter_child_nodes(node):
                if id(child) in copied:
                    continue
                if isinstance(child, ast.Constant) and child.value == "group-orbitals":
                    if isinstance(node, ast.Compare):
                        flag(child, "compared", owner, CERTIFICATE_READERS)
                    else:
                        flag(child, "used", owner, ())
                elif (
                    isinstance(child, ast.Attribute)
                    and child.attr == "certificate"
                    and isinstance(child.ctx, ast.Load)
                ):
                    flag(child, "read", owner, CERTIFICATE_READERS)
    return [text for _, text in sorted(found)]


def test_the_scan_finds_a_misused_certificate():
    source = (
        "def compute_orbitals(action):\n"
        "    return _partition(n, table, certificate='group-orbitals')\n"
        "def check_srg(g):\n"
        "    return g.certificate == 'group-orbitals'\n"
        "def classify(points):\n"
        "    return _partition(n, table, certificate='group-orbitals')\n"
        "def sampled(partition):\n"
        "    if 'group-orbitals' in {partition.certificate}:\n"
        "        return 1\n"
        "_GROUP = 'group-orbitals'\n"
        "class Graph:\n"
        "    __slots__ = ('rows', 'certificate')\n"
        "    def __init__(self, rows):\n"
        "        object.__setattr__(self, 'certificate', None)\n"
        "    def is_certified(self):\n"
        "        return self.certificate is not None\n"
        "def complement(g):\n"
        "    h = Graph(g.rows)\n"
        "    object.__setattr__(h, 'certificate', g.certificate)\n"
        "def forge(g):\n"
        "    setattr(g, 'certificate', 'group-orbitals')\n"
    )
    assert certificate_misuses(source) == [
        "line 6: written in classify",
        "line 8: compared in sampled",
        "line 8: read in sampled",
        "line 10: used in module level",
        "line 16: read in Graph.is_certified",
        "line 19: written in complement",
        "line 21: written in forge",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_only_the_orbit_count_reads_the_group_certificate(path):
    """A sampled count must never pass for an exhaustive one: the
    base-row count of strong regularity and the one-representative count
    of intersection numbers run only on certified orbits."""
    assert certificate_misuses(path.read_text()) == []


def pair_table_allocations(source: str) -> list[str]:
    """Reads of ``_pair_bytes`` (a call, or a name bound to it) outside
    ``compute_orbitals``.  Every pair table in the package is the one that
    :func:`compute_orbitals` fills and certifies; a graph built from byte
    rows goes through ``_class_rows`` and holds no n² table."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "module level")
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if (
                name == "_pair_bytes"
                and isinstance(node.ctx, ast.Load)
                and owner != "compute_orbitals"
            ):
                found.append(f"line {node.lineno}: in {owner}")
    return found


def test_the_scan_finds_a_stray_pair_table():
    source = (
        "def _pair_bytes(n, fill=0):\n"
        "    return bytearray([fill]) * (n * n)\n"
        "def compute_orbitals(action):\n"
        "    table = _pair_bytes(action.degree)\n"
        "def build_graph(vertices, adjacent):\n"
        "    table = orbitals._pair_bytes(len(vertices))\n"
        "_ALLOCATE = _pair_bytes\n"
    )
    assert pair_table_allocations(source) == [
        "line 6: in build_graph",
        "line 7: in module level",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_only_compute_orbitals_allocates_a_pair_table(path):
    assert pair_table_allocations(path.read_text()) == []


SEARCHES = {"next", "all", "any"}
POWERS = {"pow_index"}


def order_searches(source: str) -> list[str]:
    """Calls of ``pow_index`` inside the argument of ``next``, ``all`` or
    ``any``: a search for an element of some multiplicative order or
    character by powering it, which the field's ``log_table`` answers by
    one lookup.  Each call is named once, with the outermost search around
    it."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in SEARCHES
        ):
            continue
        for arg in node.args:
            for call in ast.walk(arg):
                callee = getattr(call, "func", None)
                name = getattr(callee, "attr", getattr(callee, "id", None))
                if isinstance(call, ast.Call) and name in POWERS:
                    text = f"line {call.lineno}: {name} in {node.func.id}"
                    found.setdefault(id(call), (call.lineno, text))
    return [text for _, text in sorted(found.values())]


def test_the_scan_finds_an_order_search():
    source = (
        "from .gf import make_field\n"
        "def primitive(field, q):\n"
        "    return next(\n"
        "        s for s in range(2, q)\n"
        "        if all(field.pow_index(s, e) != 1 for e in range(1, q - 1))\n"
        "    )\n"
        "def nonsquare(field):\n"
        "    return min(s for s in range(2, field.q) if field.log_table[s] % 2)\n"
        "def squares(field, xs):\n"
        "    return [x for x in xs if field.pow_index(x, field.q // 2) == 1]\n"
        "def has_nonsquare(field, xs):\n"
        "    return any(pow_index(x, (field.q - 1) // 2) != 1 for x in xs)\n"
    )
    assert order_searches(source) == [
        "line 5: pow_index in next",
        "line 12: pow_index in any",
    ]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "gf.py"], ids=lambda path: path.name
)
def test_no_order_search_outside_the_field(path):
    """Primitive elements, non-squares and elements of a given order are
    read from the logs of one walk of the field's least primitive
    element, not found by powering candidates."""
    assert order_searches(path.read_text()) == []


LOOPS = {
    ast.For: "for",
    ast.While: "while",
    ast.ListComp: "comprehension",
    ast.SetComp: "comprehension",
    ast.DictComp: "comprehension",
    ast.GeneratorExp: "comprehension",
}


def name_uses(node: ast.AST):
    """(use, name) for each ``name`` or ``owner.name`` in ``node`` and its
    descendants."""
    for use in ast.walk(node):
        if isinstance(use, (ast.Name, ast.Attribute)):
            yield use, getattr(use, "attr", getattr(use, "id", None))


def per_point_normalising(source: str) -> list[str]:
    """Uses of ``lead_one``, or of a function of the module (nested ones
    too) whose body uses it, inside a loop or a comprehension, or handed
    to ``map``: scaling points to their lead-one representatives one at a
    time, where the column kernel of ``geometry`` reads every image by one
    gather through a code index.  Each use is named once, with the
    outermost loop around it."""
    tree = ast.parse(source)
    normalising = {"lead_one"} | {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(name == "lead_one" for _, name in name_uses(node))
    }
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map":
            kind, scope = "map", node.args
        elif type(node) in LOOPS:
            kind, scope = LOOPS[type(node)], [node]
        else:
            continue
        for part in scope:
            for use, name in name_uses(part):
                if name in normalising:
                    text = f"line {use.lineno}: {name} in {kind}"
                    found.setdefault((use.lineno, use.col_offset), text)
    return [text for _, text in sorted(found.items())]


def test_the_scan_finds_per_point_normalising():
    source = (
        "from .geometry import lead_one\n"
        "def index(field, points):\n"
        "    return {lead_one(field, p): i for i, p in enumerate(points)}\n"
        "def images(field, vectors):\n"
        "    out = []\n"
        "    for v in vectors:\n"
        "        out.append(geometry.lead_one(field, v))\n"
        "    return out\n"
        "def reps(field, vectors):\n"
        "    return list(map(partial(lead_one, field), vectors))\n"
        "def one(field, v):\n"
        "    return lead_one(field, v)\n"
        "def action(field, flags, pairs, flag_of):\n"
        "    def image(vec, a):\n"
        "        return lead_one(field, tuple(_dot(field, vec, c) for c in zip(*a)))\n"
        "    generators = []\n"
        "    for a, b in pairs:\n"
        "        perm = tuple(flag_of[image(p, a), image(l, b)] for p, l in flags)\n"
        "        generators.append(perm)\n"
        "    return generators, [one(field, v) for v in flag_of]\n"
    )
    assert per_point_normalising(source) == [
        "line 3: lead_one in comprehension",
        "line 7: lead_one in for",
        "line 10: lead_one in map",
        "line 18: image in for",
        "line 18: image in for",
        "line 20: one in comprehension",
    ]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "geometry.py"], ids=lambda path: path.name
)
def test_no_per_point_normalising_outside_geometry(path):
    """Permutations of a point set are gathers through the column kernel's
    code index, not a lead-one representative looked up per point."""
    assert per_point_normalising(path.read_text()) == []


PLAIN_DATA_LAYERS = ("gf.py", "geometry.py")


def wrapper_classes(source: str) -> list[str]:
    """Classes that wrap plain data in a record: a ``NamedTuple``
    subclass, a class decorated with ``_record``, or a class that declares
    ``__slots__``, each named with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
        decorators = {
            getattr(d, "id", getattr(d, "attr", None)) for d in node.decorator_list
        }
        slots = any(
            getattr(target, "id", None) == "__slots__"
            for statement in node.body
            if isinstance(statement, ast.Assign)
            for target in statement.targets
        )
        kinds = {
            "NamedTuple": "NamedTuple" in bases,
            "_record": "_record" in decorators,
            "__slots__": slots,
        }
        found += [
            f"line {node.lineno}: {node.name} ({kind})"
            for kind, present in kinds.items()
            if present
        ]
    return found


def test_the_scan_finds_a_wrapper_class():
    source = (
        "import typing\n"
        "from .base import _record\n"
        "class Flag(typing.NamedTuple):\n"
        "    point: tuple\n"
        "@_record\n"
        "class Pair:\n"
        "    a: int\n"
        "    b: int\n"
        "class Element:\n"
        "    __slots__ = ('field', 'index')\n"
        "class Field:\n"
        "    slots = ()\n"
        "    def __init__(self, q):\n"
        "        self.q = q\n"
    )
    assert wrapper_classes(source) == [
        "line 3: Flag (NamedTuple)",
        "line 6: Pair (_record)",
        "line 9: Element (__slots__)",
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in PACKAGE if p.name in PLAIN_DATA_LAYERS],
    ids=lambda path: path.name,
)
def test_the_bottom_layers_hold_plain_data(path):
    """A field element is its index, a point its tuple and a flag its
    (point, line) pair: the field and geometry layers define no record
    around them."""
    assert wrapper_classes(path.read_text()) == []
