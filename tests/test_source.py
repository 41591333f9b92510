"""Static checks on the package source."""

import argparse
import ast
import re
from pathlib import Path

import qpolar
from qpolar import cli
from qpolar.cli import build_parser

SRC = Path(qpolar.__file__).parent


def bound_names(nodes):
    """(line, name) for every name the import statements among these nodes bind."""
    return [(node.lineno, alias.asname or alias.name.split(".")[0]) for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]


def unused_imports(path):
    """Names a module imports but never reads, in source order."""
    tree = ast.parse(path.read_text())
    imported = [(line, name) for line, name in bound_names(ast.walk(tree))
                if name != "annotations"]
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


def exported_names():
    """Names exported by __init__.py."""
    init = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def public_classes():
    """Every public class definition of the package."""
    return [node for path in SRC.glob("*.py") for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]


def public_methods():
    """Public methods of public classes."""
    return {f.name for cls in public_classes() for f in cls.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}


def referenced_names(paths):
    """Names read as an ast.Name, and names read as an attribute (x.name), in
    these files."""
    bare, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return bare, attributes


def caller_paths():
    """The package's modules and the benchmark's sources."""
    bench = sorted(PERFBENCH.rglob("*.py"))
    assert bench, f"no benchmark sources under {PERFBENCH}"
    return [p for p in SRC.glob("*.py") if p.name != "__init__.py"] + bench


def test_no_callerless_public_names():
    # a public name that neither the package nor the benchmark reads is kept
    # for the tests alone: it belongs in tests/reference.py, or nowhere.  A
    # method is only ever called as x.name; a bare name of the same spelling
    # is a local or another function
    bare, attributes = referenced_names(caller_paths())
    unread = (exported_names() - bare - attributes) | (public_methods() - attributes)
    assert sorted(unread - CALLERLESS) == []


# defaulted parameters that no call in the package or the benchmark passes,
# each with its reason
UNPASSED = {
    ("main", "argv"): "the console entry point: the interpreter calls main() "
                      "and argparse reads sys.argv; the tests pass argv",
}


def public_functions():
    """(definition, leading arguments a call does not pass) for every public
    module function and every public method of a public class."""
    found = [(node, 0) for path in SRC.glob("*.py") for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef)]
    for cls in public_classes():
        for f in cls.body:
            if isinstance(f, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
                found.append((f, 0 if static else 1))  # self or cls
    return [(f, skip) for f, skip in found if not f.name.startswith("_")]


def defaulted_parameters():
    """(function, parameter, position) for every defaulted parameter of a
    public function.  The position counts the positional arguments a call
    passes before the parameter; it is None for a keyword-only one."""
    found = []
    for f, skip in public_functions():
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        found += [(f.name, p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
        found += [(f.name, p.arg, None)
                  for p, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
    return found


def passed_arguments(paths):
    """Calls in these files, matched by the called name (``f(...)`` or
    ``x.f(...)``): the most positional arguments a call passes, the
    (name, keyword) pairs passed, and the names some call passes *args or
    **kwargs to."""
    positional, keywords, unpacked = {}, set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                unpacked.add(name)
            positional[name] = max(positional.get(name, 0), len(node.args))
            keywords.update((name, k.arg) for k in node.keywords)
    return positional, keywords, unpacked


def test_every_defaulted_parameter_is_passed_by_a_caller():
    # a default that every caller keeps is a setting nobody sets: it doubles
    # the configurations to test and belongs in the body as a constant
    positional, keywords, unpacked = passed_arguments(caller_paths())
    unpassed = {(f, p) for f, p, at in defaulted_parameters()
                if f not in unpacked and (f, p) not in keywords
                and (at is None or positional.get(f, 0) <= at)}
    assert sorted(unpassed - UNPASSED.keys()) == []


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


TESTS = Path(__file__).resolve().parent


def cli_options():
    """The long options of every subcommand of the command line parser."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
            - {"--help"} for name, p in sub.choices.items()}


def options_passed_by_tests(commands):
    """The options that argv lists in the test files pass to each subcommand.

    A list that starts with a subcommand passes the options among its string
    constants.  A list that starts with an option is one a helper appends to
    that file's argv lists (the golden tests' ``--out``), so its options
    count for every subcommand the file's lists start with.
    """
    passed = {command: set() for command in commands}
    for path in sorted(TESTS.glob("*.py")):
        named, appended = set(), set()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.List) or not node.elts:
                continue
            strings = [e.value for e in node.elts
                       if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            options = {v for v in strings if v.startswith("--")}
            head = getattr(node.elts[0], "value", None)
            if head in commands:
                named.add(head)
                passed[head] |= options
            elif isinstance(head, str) and head.startswith("--"):
                appended |= options
        for command in named:
            passed[command] |= appended
    return passed


def test_every_cli_option_is_passed_by_a_test():
    # an option no test passes is an input nobody checks: test it, or drop it
    # if another input already gives the same value
    options = cli_options()
    passed = options_passed_by_tests(options)
    assert sorted((c, o) for c, opts in options.items() for o in opts - passed[c]) == []


def test_cli_docstring_names_exactly_the_subcommands():
    # the module docstring lists the subcommands by hand; a list kept by hand
    # drifts from the parser unless a test compares them
    listed = re.search(r"Subcommands:([^.]*)\.", cli.__doc__).group(1)
    assert sorted(name.strip() for name in listed.split(",")) == sorted(cli_options())


def test_reference_imports_no_private_name_from_the_package():
    # a referee that runs the package's own helpers cannot catch their faults:
    # tests/reference.py takes only public names from qpolar
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse((TESTS / "reference.py").read_text()))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qpolar")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# a hand-written type test outside gf: a bool check, an exact int check or
# an abstract number type
TYPE_TEST = re.compile(r"isinstance\([^)]*\bbool\b|type\([^)]*\) is not int\b"
                       r"|numbers\.(Integral|Real)\b")
# the one place outside gf that may write one: the probability parser, which
# reads Fractions, strings and floats as well as ints
OWN_TYPE_TESTS = {("channel.py", "_as_fraction")}


def test_integers_and_reals_are_read_by_the_rule_in_gf():
    # copies of the rule drift: once they let sc_decode_distribution read
    # (True, False) as the block (1, 0), and ExperimentConfig refuse the
    # np.int64 that PolarCode takes
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "gf.py":
            continue
        text = path.read_text()
        for node in ast.parse(text).body:
            if (path.name, getattr(node, "name", None)) not in OWN_TYPE_TESTS:
                found += [f"{path.name}:{node.lineno}: {m.group()}"
                          for m in TYPE_TEST.finditer(ast.get_source_segment(text, node))]
    assert found == []


def test_no_local_import_binds_a_name_the_module_imports():
    # channel_from_json once imported Field and default_field a second time; a
    # local import stays only where it breaks an import cycle
    found = []
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text()).body
        top = {name for _, name in bound_names(body)}
        local = [node for stmt in body for node in ast.walk(stmt)
                 if not isinstance(stmt, (ast.Import, ast.ImportFrom))]
        found += [f"{path.name}:{line}: {name}" for line, name in bound_names(local)
                  if name in top]
    assert found == []


RANDOM_SOURCES = {"random", "np.random", "numpy.random"}


def test_the_counter_streams_are_the_one_random_source():
    # the command line once drew from numpy's Philox, so one seed gave it other
    # draws than the harness.  os.urandom stays: it only picks a seed
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name in RANDOM_SOURCES]
    assert found == []
