"""The static half of the exit-code contract: every ``raise`` in the package
raises a class that ``cli.main`` maps to an exit code, or is listed here
with the reason it never reaches ``main``."""

import ast
import importlib
import typing
from pathlib import Path

import pytest

from sncresolve import cli
from sncresolve import poly_oracle as po
from sncresolve import resolution_engine as re_

SRC = Path(cli.__file__).resolve().parent

# The classes that ``main`` maps, with their exit codes.  ScaleError is a
# ValueError, so its clause in ``main`` comes before ValueError's.
EXIT_CODES = {ValueError: 2, KeyError: 2, OSError: 2, re_.InvariantBreach: 3,
              po.ScaleError: 4, re_.CeilingExceeded: 4}

SENTINEL = "a sentinel that the same function catches and turns into a ValueError"

# (module, enclosing definition, class) of each raise whose class ``main``
# does not map, with the reason.  The check fails on any other such raise,
# and on an entry here that no raise matches any more.
UNMAPPED = {
    ("dual_complex.py", "_refuse", "AttributeError"):
        "an immutable object refuses a write, which only code, never an input, attempts",
    ("dual_complex.py", "Cell.of", "TypeError"): SENTINEL,
    ("snc_model.py", "Stratum.of", "TypeError"): SENTINEL,
    ("snc_model.py", "SncVariety.of", "TypeError"): SENTINEL,
    ("resolution_engine.py", "step", "NoApplicableRule"):
        "run checks is_finished before each step, so only a direct caller of step meets it",
    ("cli.py", "<module>", "SystemExit"): "it hands main's exit code to the interpreter",
    ("__main__.py", "<module>", "SystemExit"): "it hands main's exit code to the interpreter",
}


def raises(tree):
    """(scope, expression) of each raise statement in ``tree``; the scope is
    the dotted name of the enclosing classes and functions, or <module>."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Raise):
                yield ".".join(scope) or "<module>", child.exc
            yield from visit(child, scope)
    return visit(tree, ())


def alternatives(exc):
    """What a raise may raise: each arm of a conditional, and of a call the
    callee."""
    if isinstance(exc, ast.IfExp):
        yield from alternatives(exc.body)
        yield from alternatives(exc.orelse)
    else:
        yield exc.func if isinstance(exc, ast.Call) else exc


def resolve(expr, namespace):
    """The class that a name or an attribute names in ``namespace``; a
    function names the class that its return annotation names.  None for
    anything else, a local name or a bare re-raise among them."""
    if not isinstance(expr, (ast.Name, ast.Attribute)):
        return None
    try:
        obj = eval(ast.unparse(expr), dict(namespace))
    except NameError:
        return None
    if callable(obj) and not isinstance(obj, type):
        obj = typing.get_type_hints(obj).get("return")
    return obj if isinstance(obj, type) else None


def unmapped(tree, namespace):
    """(scope, class name) of each raise in ``tree`` whose class ``main``
    does not map; an unresolved expression stands under its source text."""
    for scope, exc in raises(tree):
        for expr in alternatives(exc):
            cls = resolve(expr, namespace)
            if cls is None:
                yield scope, ast.unparse(expr) if expr else "raise"
            elif not issubclass(cls, tuple(EXIT_CODES)):
                yield scope, cls.__name__


def namespace_of(module):
    # Importing __main__ would run the command line; its one raise names
    # a builtin, which an empty namespace resolves.
    if module == "__main__":
        return {}
    return vars(importlib.import_module(f"sncresolve.{module}"))


def test_every_raise_in_the_package_is_mapped_or_listed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found |= {(path.name, scope, name)
                  for scope, name in unmapped(tree, namespace_of(path.stem))}
    assert found == set(UNMAPPED)


def test_an_unmapped_raise_is_reported():
    source = ("class Gate(RuntimeError):\n    pass\n\n"
              "def made() -> ValueError:\n    return ValueError('made')\n\n"
              "def mapped(x):\n    if x:\n        raise made()\n"
              "    raise KeyError(x) if x else OSError(x)\n\n"
              "class Shell:\n    def open(self, error):\n"
              "        try:\n            raise Gate(error)\n"
              "        except Gate:\n            raise\n"
              "        raise error('?')\n")
    namespace = {}
    exec(source, namespace)
    assert list(unmapped(ast.parse(source), namespace)) == [
        ("Shell.open", "Gate"), ("Shell.open", "raise"), ("Shell.open", "error")]


@pytest.mark.parametrize("cls", EXIT_CODES, ids=lambda cls: cls.__name__)
def test_main_maps_each_class_to_its_exit_code(monkeypatch, capsys, cls):
    def fail(*args):
        raise cls("refused")

    monkeypatch.setattr(re_, "state_to_obj", fail)
    assert cli.main(["gen"]) == EXIT_CODES[cls]
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "refused" in captured.err
