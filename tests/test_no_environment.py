"""Static check: no module of the package reads the environment.

Every setting of a run is a command-line option with its default written
next to it (the seed is `--seed`, default 42), so a report is decided by its
command line alone.  A module that read `os.environ` or `os.getenv` would
give a setting a second, invisible source.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rank2go"

ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[tuple[int, str]]:
    """Every use of an environment name in source, as (line, name): an
    attribute (os.environ), a bare name (environ) or an import of one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in ENVIRONMENT_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found.extend(
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name in ENVIRONMENT_NAMES
            )
    return sorted(found)


def test_checker_flags_planted_reads():
    source = (
        '"""Reads os.environ in its docstring only."""\n'
        "import os\n"
        "from os import getenv as g, path\n"
        "SEED = os.environ.get('SEED', '42')\n"
        "def f():\n"
        "    return os.getenv('X'), environ['Y'], os.path.join('environ')\n"
        "class K:\n"
        "    environment = 'environ'\n"
    )
    assert environment_reads(source) == [
        (3, "getenv"), (4, "environ"), (6, "environ"), (6, "getenv"),
    ]


def test_no_module_reads_the_environment():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := environment_reads(path.read_text(encoding="utf-8")))
    }
    assert found == {}
