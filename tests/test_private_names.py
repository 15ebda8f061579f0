"""The package's names: each private module-level one is read somewhere in
the package, each public one, and each public method of a public class,
has a caller outside the tests, and README's module table names only what
its modules define."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sncresolve"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted(SRC.glob("*.py"))}
DEMOS = [ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted((ROOT / "demos").glob("*.py"))]

# The public names and methods that neither the package nor the demos read,
# each with the reason it stays public.  The check fails on any other such
# name, and on an entry here that has gained a caller.
PUBLIC_WITHOUT_CALLER = {
    ("resolution_engine.py", "select_center"):
        "the README's entry point for center selection, and a tracer target",
    ("dual_complex.py", "boundary_matrix"):
        "benchmarks/tracer.py wraps it until ROADMAP item 4 changes the benchmark",
    ("chart_calculus.py", "snc_certificate"):
        "it waits for the trace checker of ROADMAP item 2",
    ("poly_oracle.py", "VerificationReport.to_json"):
        "benchmarks/test_benchmark.py calls it until ROADMAP item 4 changes the benchmark",
}


def definitions(tree, imports=True):
    """(name, node) for each name that a module-level statement binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            yield name, node


def private_definitions(tree):
    """(name, node) for each module-level name with one leading underscore."""
    return [(name, node) for name, node in definitions(tree)
            if name.startswith("_") and not name.startswith("__")]


def public_definitions(tree):
    """(name, node) for each module-level name without a leading underscore,
    and ("Class.name", node) for each such method or property of a public
    class.  An import binds a name that another module defines, so it is none."""
    named = [(name, node) for name, node in definitions(tree, imports=False)
             if not name.startswith("_")]
    return named + [(f"{cls.name}.{node.name}", node) for name, cls in named
                    if isinstance(cls, ast.ClassDef) for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def reads(node, skip):
    """The names and attributes that ``node`` reads, outside the subtree ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from reads(child, skip)


def unread(named, trees):
    """The names of the (name, node) pairs ``named`` that no tree of
    ``trees`` reads outside the name's own definition; "Class.name" is
    read as any attribute ``name``."""
    return [name for name, node in named
            if not any(name.rpartition(".")[2] in reads(other, node) for other in trees)]


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_read_outside_its_definition(module):
    assert unread(private_definitions(TREES[module]), TREES.values()) == []


def test_a_private_name_read_only_by_itself_is_reported():
    tree = ast.parse("_A = 1\n_B = _A\n\ndef _f(n):\n    return _f(n - 1)\n")
    assert unread(private_definitions(tree), [tree]) == ["_B", "_f"]


def test_every_public_name_has_a_caller_in_the_package_or_the_demos():
    callers = [*TREES.values(), *DEMOS]
    found = {(module, name) for module, tree in TREES.items()
             for name in unread(public_definitions(tree), callers)}
    assert found == set(PUBLIC_WITHOUT_CALLER)


def test_a_public_name_read_only_by_itself_is_reported():
    tree = ast.parse("from os import path\nA = 1\nB = A\n\n"
                     "def f(n):\n    return f(n - 1)\n\n"
                     "class C:\n    def used(self):\n        return 0\n\n"
                     "    def own(self):\n        return self.own()\n\n"
                     "    def _hidden(self):\n        return 0\n\n"
                     "class _D:\n    def g(self):\n        return 0\n\n"
                     "C().used()\n")
    assert unread(public_definitions(tree), [tree]) == ["B", "f", "C.own"]


def module_table(text):
    """{module: the backticked names in its row} of README's module table;
    a span that is not a name, such as ``sncresolve gen``, is left out."""
    return {module: {span for span in re.findall(r"`([^`]*)`", contents) if span.isidentifier()}
            for module, contents in re.findall(r"^\| `sncresolve\.(\w+)` \| (.*) \|$",
                                               text, re.MULTILINE)}


def test_every_name_in_the_readme_module_table_is_defined_in_its_module():
    table = module_table((ROOT / "README.md").read_text(encoding="utf-8"))
    assert set(table) == {name[:-3] for name in TREES} - {"__init__", "__main__"}
    missing = {module: sorted(names - {name for name, _ in definitions(TREES[module + ".py"])})
               for module, names in table.items()}
    assert missing == {module: [] for module in table}
