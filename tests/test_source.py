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


def private_definitions(path):
    """Module-level private names a file binds: functions, classes, assignments."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read_outside_own_definition(paths):
    """Names loaded or read as attributes in these files, except where a
    top-level definition reads its own name (a recursion is no caller)."""
    found = set()
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            here = {node.id for node in ast.walk(top)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            here |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
            found |= here - {getattr(top, "name", None)}
    return found


def test_no_private_name_kept_for_the_tests():
    # a private helper that nothing in the package reads is a test helper
    # left behind: it belongs in tests/reference.py, or nowhere
    paths = sorted(SRC.glob("*.py"))
    read = names_read_outside_own_definition(paths)
    unread = {path.name: [n for n in private_definitions(path) if n not in read]
              for path in paths}
    assert {name: names for name, names in unread.items() if names} == {}
