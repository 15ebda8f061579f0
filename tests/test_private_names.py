"""Every private module-level name of the package is read somewhere in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sncresolve"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted(SRC.glob("*.py"))}


def private_definitions(tree):
    """(name, node) for each module-level name with one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


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


def unread(tree, trees):
    """The private module-level names of ``tree`` that no tree of ``trees``
    reads outside the name's own definition."""
    return [name for name, node in private_definitions(tree)
            if not any(name in reads(other, node) for other in trees)]


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_read_outside_its_definition(module):
    assert unread(TREES[module], TREES.values()) == []


def test_a_private_name_read_only_by_itself_is_reported():
    tree = ast.parse("_A = 1\n_B = _A\n\ndef _f(n):\n    return _f(n - 1)\n")
    assert unread(tree, [tree]) == ["_B", "_f"]
