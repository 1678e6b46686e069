"""The package surface: ``import coneext`` is lazy, every public name still
resolves, no module of the package imports ``dataclasses`` or ``inspect``,
and a CLI call loads only the modules its subcommand uses and neither of
those two."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coneext
from coneext.fixtures import fixture_path

SRC = Path(coneext.__file__).resolve().parent.parent


def test_every_public_name_resolves_in_its_home_module():
    for name in coneext.__all__:
        home = importlib.import_module(f"coneext.{coneext._HOME[name]}")
        assert getattr(coneext, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from coneext import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(coneext.__all__)
    assert namespace["QuadScalar"] is coneext.QuadScalar


def test_dir_lists_every_public_name():
    listed = dir(coneext)
    assert set(coneext.__all__) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coneext.no_such_name
    assert not hasattr(coneext, "ext_k_rows")
    for name in ("vertex_facet_tensor", "max_tensor_halfspaces", "Rational"):
        with pytest.raises(AttributeError, match=name):
            getattr(coneext, name)
    with pytest.raises(ImportError):
        exec("from coneext import no_such_name", {})


def test_a_submodule_still_imports_from_the_package():
    from coneext import lp
    assert lp is sys.modules["coneext.lp"] and lp.__name__ == "coneext.lp"


# The probe runs a statement, then writes the names of the modules it left
# in sys.modules to the file named by argv[1] on the way out.
_PROBE = """\
import atexit, json, sys
out, code = sys.argv[1], sys.argv[2]
atexit.register(lambda: open(out, "w").write(json.dumps(sorted(sys.modules))))
sys.argv = ["coneext"] + sys.argv[3:]
exec(code)
"""

_RUN_CLI = "import runpy; runpy.run_module('coneext.cli', run_name='__main__')"


def _modules(tmp_path, code, *argv):
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(out), code, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    return set(json.loads(out.read_text()))


def _package(modules):
    """The coneext modules among ``modules``, without the package prefix."""
    return {m.removeprefix("coneext.") for m in modules
            if m == "coneext" or m.startswith("coneext.")}


_SQUARE, _SKEW = fixture_path("square.cone"), fixture_path("square-skew.cone")

_NO_DECIDERS = {"hierarchy", "lp", "tensors", "quantum"}

# subcommand -> (argv, modules the call loads, modules it must not load)
_FOOTPRINTS = {
    "dualize": (["dualize", "--cone-a", _SQUARE], {"cones"}, _NO_DECIDERS | {"polytopes"}),
    "factor-polytope": (["factor", "--polytope", fixture_path("prism.poly")],
                        {"polytopes"}, _NO_DECIDERS),
    "factor-cone": (["factor", "--cone-b", _SQUARE], {"polytopes"}, _NO_DECIDERS),
    "hull-check-polytope": (["hull-check", "--polytope", fixture_path("pentagon.poly")],
                            {"polytopes"}, _NO_DECIDERS),
    "hull-check-cone": (["hull-check", "--cone-b", fixture_path("cube.cone")],
                        {"polytopes"}, _NO_DECIDERS),
    "quantum-demo": (["quantum-demo"], {"quantum"}, {"hierarchy", "lp", "polytopes"}),
    "ext-check": (["ext-check", "--cone-a", _SQUARE, "--cone-b", _SKEW, "--k", "2",
                   "--point", fixture_path("gap-k3.pt")], {"hierarchy"}, {"quantum"}),
    "eb-check": (["eb-check", "--k", "2", "--cone-b", _SQUARE, "--report", "json-lines"],
                 {"hierarchy"}, {"quantum"}),
    "min-check": (["min-check", "--cone-a", _SQUARE, "--cone-b", _SKEW,
                   "--point", fixture_path("gap-k2.pt")], {"lp"},
                  {"hierarchy", "polytopes", "tensors", "quantum"}),
}


# standard modules no call needs, each costly to import: dataclasses loads
# inspect, and inspect loads ast, dis and tokenize
_HEAVY = {"dataclasses", "inspect"}


@pytest.fixture(scope="module")
def preloaded(tmp_path_factory):
    """The heavy modules a probe running ``pass`` already holds, such as
    any a site hook loads; a call is not blamed for those."""
    return _modules(tmp_path_factory.mktemp("bare"), "pass") & _HEAVY


def test_import_coneext_loads_no_submodule(tmp_path):
    assert _package(_modules(tmp_path, "import coneext")) == {"coneext"}


@pytest.mark.parametrize("command", list(_FOOTPRINTS))
def test_a_cli_call_loads_only_its_subcommands_modules(tmp_path, command, preloaded):
    argv, used, unused = _FOOTPRINTS[command]
    modules = _modules(tmp_path, _RUN_CLI, *argv)
    loaded = _package(modules)
    assert used <= loaded and loaded & unused == set()
    assert modules & _HEAVY <= preloaded


def package_imports():
    """(top-level module, file name) for each absolute import in the
    package: the one walk behind both import checks, this file's heavy-module
    test and test_runtime's standard-library test."""
    imported = set()
    for path in sorted((SRC / "coneext").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update((a.name.split(".")[0], path.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((node.module.split(".")[0], path.name))
    assert ("fractions", "scalars.py") in imported
    return imported


def test_no_module_of_the_package_imports_a_heavy_module():
    assert [pair for pair in package_imports() if pair[0] in _HEAVY] == []


def test_every_private_helper_is_referenced_outside_its_own_body():
    """Each private top-level function or class of the package is read by
    name somewhere in ``src/coneext`` outside its own definition, or imported
    by name, so a helper whose last caller goes does not stay behind; a
    recursive call does not count as a caller, and neither does an assignment
    to the name or an attribute spelled the same."""
    trees = [ast.parse(p.read_text()) for p in sorted((SRC / "coneext").glob("*.py"))]

    def names(node):
        out = []
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.append(n.id)
            elif isinstance(n, ast.ImportFrom):
                out.extend(a.name for a in n.names)
        return out

    everywhere = [name for tree in trees for name in names(tree)]
    helpers = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert helpers
    unreferenced = [h.name for h in helpers
                    if everywhere.count(h.name) == names(h).count(h.name)]
    assert unreferenced == []


def test_every_name_is_imported_from_its_home():
    """Each ``from .X import n`` in the package, and each ``from coneext.X
    import n`` in the tests and tools, names a top-level def, class or
    assignment of X, not a name X itself imports, so every name has one
    import home."""
    def defined(tree):
        out = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.update(n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
        return out

    package = SRC / "coneext"
    homes = {p.stem: defined(ast.parse(p.read_text())) for p in package.glob("*.py")}
    sources = [(p, 1, "") for p in package.glob("*.py")] + [
        (p, 0, "coneext.") for d in ("tests", "tools")
        for p in (SRC.parent / d).glob("*.py")]
    imports = [(path.name, node.module.removeprefix(prefix), alias.name)
               for path, level, prefix in sources
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level == level
               and node.module and node.module.startswith(prefix)
               for alias in node.names]
    assert ("cli.py", "scalars", "parse_rational") in imports
    assert ("test_lp.py", "lp", "solve") in imports
    assert [i for i in imports if i[2] not in homes[i[1]]] == []
