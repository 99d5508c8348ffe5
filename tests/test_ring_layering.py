"""Static check: ring arithmetic stays in the field and the solvers.

The ring elements of field.Ring are multiplied, negated and combined only
in `field.py`, which defines them, and in `liealg.py`, whose eliminations
and fraction-free solvers run on them and check their own solutions.  Any
other module hands its ring rows to those functions: a module that
multiplied ring elements itself would hold a second copy of the arithmetic,
or of a check that belongs next to the solve it checks.
"""

from pathlib import Path

from name_uses import name_uses

SRC = Path(__file__).resolve().parents[1] / "src" / "rank2go"

RING_ARITHMETIC = {"ring_mac", "ring_neg", "ring_combine"}
RING_MODULES = {"field.py", "liealg.py"}


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
