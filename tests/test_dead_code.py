"""Static checks: every private top-level function and class of rank2go is
read somewhere in the package beyond its own definition, every undecorated
public one is read somewhere in the package, its tests or perfbench, and
every name a module imports is read in that module.

A defined name counts as read where it appears as a name or an attribute
outside the body of the definition that binds it; an import of it is not a
read.  A decorated public definition (a click command) is exempt, since its
decorator registers it.  An imported name counts as read where it is loaded
as a name in its module.  __init__.py is exempt from the import check,
since its imports are the package's re-exports, and so are __future__
imports.
"""

import ast
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rank2go"
MODULES = sorted(SRC.glob("*.py"))
READERS = sorted(
    chain((ROOT / "tests").glob("*.py"), (ROOT / "perfbench").rglob("*.py"))
)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def private_definitions(tree: ast.Module) -> list[ast.AST]:
    return [
        node for node in tree.body
        if isinstance(node, DEFINITIONS)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def public_definitions(tree: ast.Module) -> list[ast.AST]:
    return [
        node for node in tree.body
        if isinstance(node, DEFINITIONS)
        and not node.name.startswith("_")
        and not node.decorator_list
    ]


def names_read(tree: ast.AST) -> Counter:
    """How often each name or attribute name appears under tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unread_definitions(
    sources: dict[str, str], select, readers: tuple[str, ...] = ()
) -> list[str]:
    """module:name for each definition select(tree) picks out of sources
    that no name or attribute reads outside its own body, in sources or in
    the reader sources."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    every_tree = chain(trees.values(), map(ast.parse, readers))
    everywhere = sum(map(names_read, every_tree), Counter())
    return sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in select(tree)
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
    assert unread_definitions(sources, private_definitions) == [
        "a.py:_Orphan", "a.py:_recursive",
    ]


def test_every_private_helper_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_definitions(sources, private_definitions) == []


def test_checker_finds_unread_public_names():
    sources = {
        "a.py": (
            "import click\n"
            "def used():\n    return 1\n"
            "def imported_only():\n    return used()\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
            "class Orphan:\n    pass\n"
            "def by_attribute():\n    pass\n"
            "@click.command()\ndef command():\n    pass\n"
            "def _private():\n    pass\n"
        ),
    }
    readers = (
        "from a import imported_only, used\n"
        "from rank2go import a\n"
        "def test_a():\n    assert used() and a.by_attribute\n",
    )
    assert unread_definitions(sources, public_definitions, readers) == [
        "a.py:Orphan", "a.py:imported_only", "a.py:recursive",
    ]


def test_every_public_definition_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    readers = tuple(p.read_text(encoding="utf-8") for p in READERS)
    assert unread_definitions(sources, public_definitions, readers) == []


SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def own_nodes(nodes):
    """The nodes under nodes that belong to their scope: a nested scope or
    class is listed, and what it holds is not."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def split_scope(node):
    """(the parts of a scope evaluated inside it, the parts evaluated in
    the enclosing scope): a function's decorators, defaults and annotations
    and a comprehension's first iterable are read outside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        inside = node.body if isinstance(node.body, list) else [node.body]
        return inside, [c for c in ast.iter_child_nodes(node) if c not in inside]
    first = node.generators[0]
    inside = [c for c in ast.iter_child_nodes(node) if c is not first]
    return inside + [first.target] + first.ifs, [first.iter]


def local_names(node) -> set[str]:
    """The names a scope binds for itself: its parameters, and the names
    stored, defined or imported among its own nodes, less those declared
    global or nonlocal."""
    names, declared = set(), set()
    if not isinstance(node, SCOPES[3:]):
        a = node.args
        names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        names |= {p.arg for p in (a.vararg, a.kwarg) if p}
    for sub in own_nodes(split_scope(node)[0]):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(sub.name)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in sub.names}
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            names.add(sub.name)
        elif isinstance(sub, (ast.Global, ast.Nonlocal)):
            declared |= set(sub.names)
    return names - declared


def module_loads(tree: ast.Module) -> set[str]:
    """The names loaded where they resolve to a module-level binding: a
    load inside a function, lambda or comprehension that binds the name
    itself is the local's, not the module's."""
    loaded = set()

    def visit(node, hidden):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in hidden:
                loaded.add(node.id)
        if isinstance(node, SCOPES):
            inside, outside = split_scope(node)
            for child in outside:
                visit(child, hidden)
            inner = hidden | local_names(node)
            for child in inside:
                visit(child, inner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, hidden)

    visit(tree, frozenset())
    return loaded


def unread_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of source that it never
    loads as module names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    return sorted(set(imported) - module_loads(tree))


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


def test_checker_ignores_loads_of_a_shadowing_local():
    """A parameter or local binding that shares an import's name is read in
    its own scope, not the import; defaults, decorators, annotations and a
    comprehension's first iterable are read in the enclosing scope, and a
    global declaration reads the module's name."""
    assert unread_imports("from math import gcd\ndef f(gcd):\n    return gcd\n") == ["gcd"]
    shadowed = (
        "from math import gcd, lcm, isqrt, floor, ceil\n"
        "def f(*gcd):\n    lcm = 2\n    return gcd, lcm, lambda isqrt: isqrt\n"
        "def g():\n    def floor():\n        pass\n    return floor\n"
        "h = [ceil for ceil in range(3)]\n"
    )
    assert unread_imports(shadowed) == ["ceil", "floor", "gcd", "isqrt", "lcm"]
    enclosing = (
        "from math import gcd, lcm, isqrt, floor, ceil, comb\n"
        "@gcd\n"
        "def f(lcm=lcm, *, x: isqrt = 0) -> floor:\n    lcm = 1\n    return lcm\n"
        "h = [ceil for ceil in ceil]\n"
        "def g():\n    global comb\n    comb = 1\n    return comb\n"
        "def k(gcd):\n    return lambda: gcd\n"
    )
    assert unread_imports(enclosing) == []


def test_every_import_is_read():
    unread = {
        p.name: unread_imports(p.read_text(encoding="utf-8"))
        for p in MODULES
        if p.name != "__init__.py"
    }
    assert {name: names for name, names in unread.items() if names} == {}
