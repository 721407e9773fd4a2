"""Every name a frobtool module imports is read somewhere in that module,
and every parameter of a function or lambda is read in its body; and what
`import frobtool` and the CLI load.

`from __future__ import annotations` binds nothing that is read, so it is
exempt from the import check.  `self` and `cls` are exempt from the
parameter check.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "frobtool"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


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


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_parameters(module):
    assert unused_parameters((SRC / module).read_text(encoding="utf-8")) == []


# --------------------------------------------------------------------------
# import footprint: what `import frobtool` and each CLI command load

ROOT = SRC.parents[1]
DEFERRED = ("dataclasses", "inspect", "frobtool.gallery", "frobtool.frobenius",
            "frobtool.monomials")
PUBLIC = {  # module -> the names the package exports from it
    "polyring": "GREVLEX LEX Order Polynomial PrimeField RingMismatch RingSpec is_prime",
    "parsing": "ParseError UnknownVariableError parse_polynomial",
    "groebner": "DEFAULT_DEGREE_GUARD DegreeGuardExceeded Ideal LiftVerificationError "
                "NoLiftExists colon frobenius_power groebner_basis ideal_equal ideal_power "
                "intersect lift_by_nzd minimal_generators_mod",
    "monomials": "FracMonomialModule MonomialIdeal SemigroupSpec mono_colon "
                 "mono_frobenius_power mono_intersect poly_twisted_component "
                 "segre_component_2x3 veronese_component",
    "frobenius": "FinGenReport FrobeniusComponent component degree_growth fingen_probe "
                 "qgor_expected_bound",
}


def loaded_modules(code: str) -> set:
    """The modules a fresh interpreter holds after running `code`, read
    from the last line of its standard output."""
    script = code + "\nimport sys\nprint(' '.join(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_cli_import_defers_unused_layers():
    loaded = loaded_modules("import frobtool.cli")
    assert "frobtool.groebner" in loaded
    assert [m for m in DEFERRED if m in loaded] == []


def test_colon_command_defers_unused_layers():
    loaded = loaded_modules(
        "from frobtool import cli\n"
        "assert cli.main(['colon', '--input', 'inputs/veronese.frob', '--lhs', 'I',"
        " '--rhs', 'I', '--json', '--no-cache']) == 0")
    assert [m for m in DEFERRED if m in loaded] == []


def test_package_import_loads_no_submodule():
    loaded = loaded_modules(
        "import frobtool, sys\n"
        "assert [m for m in sys.modules if m.startswith('frobtool.')] == []\n"
        "frobtool.Ideal")
    assert "frobtool.groebner" in loaded and "frobtool.frobenius" not in loaded


def test_package_exports():
    import frobtool

    assert sorted(frobtool.__all__) == sorted(n for names in PUBLIC.values()
                                              for n in names.split())
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"frobtool.{module}")
        for name in names.split():
            assert getattr(frobtool, name) is getattr(defining, name), name
    assert "__all__" in dir(frobtool) and set(frobtool.__all__) <= set(dir(frobtool))
    with pytest.raises(AttributeError):
        frobtool.no_such_name


@pytest.mark.parametrize("module", MODULES)
def test_no_dataclasses(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in imported
