"""Static checks: the catalogue ids and the verdict names are written only
in embed.

Each space's id, description, family, h and the paper's verdict on it live
in one row of `embed._CATALOG`.  Any other module of the package that
spells out a space id (a second verdict table, a per-space branch) holds a
second copy of a catalogue fact that nothing keeps in step with the row.
The four verdict names are embed's constants, which the rows and classify
share; a literal elsewhere is a second spelling that may drift from them.
So no `src/rank2go` module other than `embed.py` may hold a catalogue id or
a verdict name as a string constant; docstrings, which only describe, are
exempt.
"""

import ast
from pathlib import Path

from rank2go import cli, embed
from rank2go.embed import CATALOG_IDS

SRC = Path(__file__).resolve().parents[1] / "src" / "rank2go"


def docstring_nodes(tree: ast.Module) -> set[int]:
    """The ids of the docstring constants of the module, classes and functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


VERDICT_NAMES = (
    embed.LIE_GROUP_CASE,
    embed.ISOTROPY_IRREDUCIBLE,
    embed.ALL_METRICS_NORMAL,
    embed.NONNORMAL_GO_FAMILY,
)


def strings_written(source: str, names=CATALOG_IDS) -> list[tuple[int, str]]:
    """Every string constant of source that is one of names (by default
    the catalogue ids), as (line, name), docstrings excepted."""
    tree = ast.parse(source)
    skip = docstring_nodes(tree)
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and node.value in names
        and id(node) not in skip
    )


def test_checker_flags_planted_ids():
    source = (
        '"""cp3"""\n'
        "VERDICTS = {'a2.1': 'nonnormal_go_family'}\n"
        "def f(space_id):\n"
        '    """berger"""\n'
        "    if space_id == 'g2.4':\n"
        "        return f'{space_id} is not cp3'\n"
        "    return ('a2.1x', 'c2', 2.1)\n"
        "class K:\n"
        "    'berger'\n"
        "    x = 'berger'\n"
        "    y = ('lie_group_case', 'isotropy_irreducible.', LIE_GROUP_CASE)\n"
        "def g():\n"
        "    'all_metrics_normal'\n"
        "    return 'all_metrics_normal'\n"
    )
    assert strings_written(source) == [(2, "a2.1"), (5, "g2.4"), (10, "berger")]
    assert strings_written(source, VERDICT_NAMES) == [
        (2, "nonnormal_go_family"), (11, "lie_group_case"), (14, "all_metrics_normal"),
    ]


def test_only_embed_writes_catalogue_ids():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "embed.py"
        and (hits := strings_written(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_only_embed_writes_verdict_names():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "embed.py"
        and (hits := strings_written(path.read_text(encoding="utf-8"), VERDICT_NAMES))
    }
    assert found == {}


def test_cli_reads_the_verdicts_of_the_catalogue_rows():
    assert cli.EXPECTED_VERDICTS is embed.EXPECTED_VERDICTS


def test_catalogue_rows_hold_a_verdict_and_nothing_beside_it():
    # A row's verdict is one of the four constants, not a value carrying
    # side data (the Hopf fiber is read off the decomposition), and classify
    # expects exactly the rows' verdicts.
    assert embed._Row._fields == ("description", "family", "h", "verdict")
    rows = embed._CATALOG.items()
    for space_id, row in rows:
        assert type(row.verdict) is str and row.verdict in VERDICT_NAMES, space_id
    assert embed.EXPECTED_VERDICTS == {i: row.verdict for i, row in rows}
