"""Static checks on the package source."""

import ast
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
