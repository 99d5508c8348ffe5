"""A shared AST helper for the static checks that keep a set of names out
of the package's modules (the environment reads, the ring arithmetic)."""

import ast


def name_uses(source: str, names: set[str]) -> list[tuple[int, str]]:
    """Every use of one of names in source, as (line, name): an attribute
    (os.environ), a bare name (environ) or an import of one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found.extend(
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name in names
            )
    return sorted(found)
