"""Static check: no float enters a rank2go decision path.

No module may call `float(` or hold a float literal.  The one exception is
`Scalar.__float__`, which renders a value for reports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rank2go"
MODULES = sorted(SRC.glob("*.py"))

ALLOWED = ("Scalar", "__float__")


def float_uses(source: str) -> list[str]:
    tree = ast.parse(source)
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == ALLOWED[0]:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == ALLOWED[1]:
                    allowed.update(id(node) for node in ast.walk(fn))
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"line {node.lineno}: float(")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: literal {node.value!r}")
    return sorted(found)


def test_checker_flags_planted_floats():
    source = (
        "class Scalar:\n"
        "    def __float__(self):\n"
        "        return float(self.approx(1.5))\n"
        "def f(x) -> float:\n"
        "    return float(x) < 1e-9\n"
        "class Other:\n"
        "    def __float__(self):\n"
        "        return float(0)\n"
    )
    assert float_uses(source) == [
        "line 5: float(",
        "line 5: literal 1e-09",
        "line 8: float(",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_float(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []
