"""Every name a package module imports is used in that module.

Package __init__ modules re-export, and an import line marked
`# noqa: F401` is kept on purpose, so both are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anarchy"


def _imported(tree, lines):
    """(bound name, line) for every import not marked noqa: F401."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if "noqa: F401" in lines[alias.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            if name != "*":
                yield name, alias.lineno


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        tree = ast.parse(source)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name, line in _imported(tree, source.splitlines()):
            if name not in used:
                unused.append(f"{path.relative_to(PACKAGE)}:{line} {name}")
    assert unused == []
