"""Static check: the catalogue ids are written only in embed's table.

Each space's id, description, family, h and the paper's verdict on it live
in one row of `embed._CATALOG`.  Any other module of the package that
spells out a space id (a second verdict table, a per-space branch) holds a
second copy of a catalogue fact that nothing keeps in step with the row.
So no `src/rank2go` module other than `embed.py` may hold a catalogue id as
a string constant; docstrings, which only describe, are exempt.
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


def catalogue_ids_written(source: str) -> list[tuple[int, str]]:
    """Every string constant of source that equals a catalogue id, as
    (line, id), docstrings excepted."""
    tree = ast.parse(source)
    skip = docstring_nodes(tree)
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and node.value in CATALOG_IDS
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
    )
    assert catalogue_ids_written(source) == [(2, "a2.1"), (5, "g2.4"), (10, "berger")]


def test_only_embed_writes_catalogue_ids():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "embed.py"
        and (hits := catalogue_ids_written(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_cli_reads_the_verdicts_of_the_catalogue_rows():
    assert cli.EXPECTED_VERDICTS is embed.EXPECTED_VERDICTS
