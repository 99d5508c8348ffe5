"""Static check: no module of the package reads the environment.

Every setting of a run is a command-line option with its default written
next to it (the seed is `--seed`, default 42), so a report is decided by its
command line alone.  A module that read `os.environ` or `os.getenv` would
give a setting a second, invisible source.
"""

from pathlib import Path

from name_uses import name_uses

SRC = Path(__file__).resolve().parents[1] / "src" / "rank2go"

ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


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
    assert name_uses(source, ENVIRONMENT_NAMES) == [
        (3, "getenv"), (4, "environ"), (6, "environ"), (6, "getenv"),
    ]


def test_no_module_reads_the_environment():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := name_uses(path.read_text("utf-8"), ENVIRONMENT_NAMES))
    }
    assert found == {}
