"""Static checks: every private top-level function and class of rank2go is
read somewhere in the package beyond its own definition, and every name a
module imports is read in that module.

A private name counts as read where it appears as a name or an attribute
outside the body of the definition that binds it, in any module of the
package.  An imported name counts as read where it is loaded as a name in
its module.  __init__.py is exempt from the import check, since its imports
are the package's re-exports, and so are __future__ imports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rank2go"
MODULES = sorted(SRC.glob("*.py"))


def private_definitions(tree: ast.Module) -> list[ast.AST]:
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def names_read(tree: ast.AST) -> Counter:
    """How often each name or attribute name appears under tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unread_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((names_read(t) for t in trees.values()), Counter())
    return sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in private_definitions(tree)
        if everywhere[node.name] == names_read(node)[node.name]
    )


def test_checker_finds_unread_helpers():
    sources = {
        "a.py": (
            "def _used():\n    return 1\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
            "class _Orphan:\n    pass\n"
            "def _by_attribute():\n    pass\n"
            "def public():\n    return _used()\n"
        ),
        "b.py": "from . import a\nclass _Read:\n    pass\nx = _Read, a._by_attribute\n",
    }
    assert unread_private_names(sources) == ["a.py:_Orphan", "a.py:_recursive"]


def test_every_private_helper_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_private_names(sources) == []


def unread_imports(source: str) -> list[str]:
    """The names bound by the imports of source that it never loads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(set(imported) - loaded)


def test_checker_finds_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as _json\n"
        "from math import gcd, lcm as least\n"
        "from .field import Ring\n"
        "from . import liealg\n"
        "def f(v: Ring) -> str:\n"
        "    return os.path.join(_json.dumps(v), liealg.x, str(least(2, 3)))\n"
    )
    assert unread_imports(source) == ["gcd"]


def test_every_import_is_read():
    unread = {
        p.name: unread_imports(p.read_text(encoding="utf-8"))
        for p in MODULES
        if p.name != "__init__.py"
    }
    assert {name: names for name, names in unread.items() if names} == {}
