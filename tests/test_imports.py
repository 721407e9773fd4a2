"""Every name a frobtool module imports is read somewhere in that module,
and every parameter of a function or lambda is read in its body.

`__init__.py` re-exports what it imports, and `from __future__ import
annotations` binds nothing that is read, so both are exempt from the import
check.  `self` and `cls` are exempt from the parameter check.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "frobtool"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name != "annotations")


def unused_parameters(source: str) -> list:
    """(line, function, parameter) for each parameter its body never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, name, a.arg) for a in params
                  if a.arg not in read and a.arg not in ("self", "cls")]
    return found


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom operator import add, sub\nsub(1, 2)\n") == [
        (1, "os"), (2, "add")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_finds_an_unused_parameter():
    source = ("def f(a, b, *rest, c=1, **kw):\n    return a + kw['x']\n"
              "class K:\n    def m(self, order=None):\n        pass\n"
              "g = lambda x, y: (lambda: x)()\n")
    assert unused_parameters(source) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "rest"), (4, "m", "order"), (6, "<lambda>", "y")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_parameters(module):
    assert unused_parameters((SRC / module).read_text(encoding="utf-8")) == []
