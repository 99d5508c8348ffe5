"""Static check: every private top-level function and class of rank2go is
read somewhere in the package beyond its own definition.

A name counts as read where it appears as a name or an attribute outside
the body of the definition that binds it, in any module of the package.
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
