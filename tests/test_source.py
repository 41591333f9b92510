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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# names the package keeps without a caller, each with its reason
CALLERLESS = {
    # criterion 7's statistic, which the tests compute; it is meant to move
    # into BerReport.summary()
    "chi2_homogeneity",
}


def public_names():
    """Names exported by __init__.py, and public methods of public classes."""
    init = ast.parse((SRC / "__init__.py").read_text())
    names = {alias.asname or alias.name for node in init.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names.update(f.name for f in node.body
                             if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))
    return names


def referenced_names(paths):
    """Every name read as an ast.Name or an ast.Attribute in these files."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def test_no_callerless_public_names():
    # a public name that neither the package nor the benchmark reads is kept
    # for the tests alone: it belongs in tests/reference.py, or nowhere
    bench = sorted(PERFBENCH.rglob("*.py"))
    assert bench, f"no benchmark sources under {PERFBENCH}"
    callers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"] + bench
    assert sorted(public_names() - referenced_names(callers) - CALLERLESS) == []
