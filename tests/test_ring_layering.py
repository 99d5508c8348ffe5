"""Static check: ring arithmetic stays in the field and the solvers.

The ring elements of field.Ring are multiplied, negated and combined only
in `field.py`, which defines them, and in `liealg.py`, whose eliminations
and fraction-free solvers run on them and check their own solutions.  Any
other module hands its ring rows to those functions: a module that
multiplied ring elements itself would hold a second copy of the arithmetic,
or of a check that belongs next to the solve it checks.

Likewise only `field.py` builds a Scalar past its checked `__init__`, by
`object.__new__`, the slot setters or its private constructors: it builds
there only results whose canonical form holds by construction.  Any other
module that built one could skip the sign check or the gcd.
"""

from pathlib import Path

from name_uses import name_uses

SRC = Path(__file__).resolve().parents[1] / "src" / "rank2go"

RING_ARITHMETIC = {"ring_mac", "ring_neg", "ring_combine"}
RING_MODULES = {"field.py", "liealg.py"}

#: The ways to build a Scalar past Scalar.__init__.
SCALAR_BUILDERS = {
    "__new__", "__set__", "_new", "_rational", "_reduced",
    "_set_nums", "_set_den", "_set_rat",
}


def test_checker_flags_planted_ring_arithmetic():
    source = (
        '"""Names ring_mac in its docstring only."""\n'
        "from .field import ring_lift, ring_neg as neg\n"
        "from . import field\n"
        "def f(acc, a, b):\n"
        "    field.ring_mac(acc, a, b)\n"
        "    return ring_neg(a), ring_pack(acc), 'ring_combine'\n"
        "combine = ring_combine\n"
    )
    assert name_uses(source, RING_ARITHMETIC) == [
        (2, "ring_neg"), (5, "ring_mac"), (6, "ring_neg"), (7, "ring_combine"),
    ]


def test_only_the_field_and_the_solvers_do_ring_arithmetic():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name not in RING_MODULES
        and (hits := name_uses(path.read_text("utf-8"), RING_ARITHMETIC))
    }
    assert found == {}


def test_checker_flags_planted_scalar_builds():
    source = (
        '"""Calls _reduced in its docstring only."""\n'
        "from .field import Scalar, _rational as rat\n"
        "from . import field\n"
        "def f(nums, den):\n"
        "    x = object.__new__(Scalar)\n"
        "    Scalar.den.__set__(x, den)\n"
        "    return field._reduced(nums, den), rat(1, den), '_rational'\n"
    )
    assert name_uses(source, SCALAR_BUILDERS) == [
        (2, "_rational"), (5, "__new__"), (6, "__set__"), (7, "_reduced"),
    ]


def test_only_the_field_builds_scalars_past_init():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "field.py"
        and (hits := name_uses(path.read_text("utf-8"), SCALAR_BUILDERS))
    }
    assert found == {}
