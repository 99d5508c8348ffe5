"""Static check: the span oracle in catalog_spans.py stays independent.

`tests/catalog_spans.py` writes out every catalogue h and m by hand, and
`test_catalog_matches_independently_written_spans` is the only check of the
coefficients in the catalogue table.  The check would be circular if the
oracle read that table, so catalog_spans may take nothing from
`rank2go.embed` but `berger_algebra`, which builds the algebra u(2) and
says nothing about any h.
"""

import ast
from pathlib import Path

ORACLE = Path(__file__).resolve().parent / "catalog_spans.py"

ALLOWED = {"berger_algebra"}


def embed_uses(source: str) -> list[str]:
    """Every name taken from rank2go.embed, and every other way of reaching
    the module itself (importing it whole, or `rank2go.embed` as an
    attribute)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "rank2go.embed":
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "rank2go":
            found += [
                f"rank2go.{alias.name}"
                for alias in node.names
                if alias.name in ("embed", "*")
            ]
        elif isinstance(node, ast.Import):
            found += [
                alias.name
                for alias in node.names
                if alias.name.startswith("rank2go.embed")
            ]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "embed"
            and isinstance(node.value, ast.Name)
            and node.value.id == "rank2go"
        ):
            found.append(f"line {node.lineno}: rank2go.embed")
    return sorted(found)


def test_checker_flags_planted_reads():
    source = (
        "import rank2go\n"
        "import rank2go.embed as E\n"
        "from rank2go import embed, field\n"
        "from rank2go.embed import berger_algebra, _CATALOG\n"
        "from rank2go.field import scalar\n"
        "rows = rank2go.embed.CATALOG_IDS\n"
    )
    assert embed_uses(source) == [
        "_CATALOG",
        "berger_algebra",
        "line 6: rank2go.embed",
        "rank2go.embed",
        "rank2go.embed",
    ]


def test_oracle_reads_only_berger_algebra_from_embed():
    uses = embed_uses(ORACLE.read_text(encoding="utf-8"))
    assert set(uses) <= ALLOWED, uses
