"""Static checks on the package source."""

import ast
from pathlib import Path

import qpolar

SRC = Path(qpolar.__file__).parent


def unused_imports(path):
    """Names a module imports but never reads, in source order."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for _, name in sorted(imported) if name not in used]


def test_no_unused_imports():
    dead = {path.name: unused_imports(path) for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"}
    assert {name: names for name, names in dead.items() if names} == {}
