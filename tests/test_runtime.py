"""The runtime promise of the README: the package imports only the standard
library, computes with no floating point and checks the same under
``python -O``."""

import ast
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coneext
from coneext.cones import dualize, interior_point, make_based, make_cone, min_columns
from coneext.fixtures import (EB_LEVELS, based_cone, cone_names, point, polytope,
                              polytope_names)
from coneext.formats import serialize_cone_file, serialize_point_file, serialize_polytope_file
from coneext.hierarchy import (dual_hierarchy_k, ext_k_membership,
                               is_entanglement_breaking, omega_interior_test,
                               point_tensor)
from coneext.lp import LpProblem, conic_membership
from coneext.polytopes import SimplexFactorization, polytope_from_vertices
from coneext.scalars import format_rational
from test_package import package_imports

SRC = Path(coneext.__file__).resolve().parent


def _float_uses(tree):
    """(line, what) for each float literal and each ``float(`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float("


def test_every_import_is_relative_or_stdlib():
    assert [pair for pair in package_imports()
            if pair[0] not in sys.stdlib_module_names] == []


_STRIPPED_WORDS = re.compile(r"\bassert\b|\b__debug__\b|\bsys\.flags\b")


def _python_O_dependence(tree):
    """(line, what) for each construct whose behaviour ``python -O`` changes:
    an ``assert``, a read of ``__debug__`` or of ``sys.flags``, and any of
    these words in a string that ``exec`` compiles."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node.lineno, "__debug__"
        elif (isinstance(node, ast.Attribute) and node.attr == "flags"
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            yield node.lineno, "sys.flags"
        elif (isinstance(node, ast.ImportFrom) and node.module == "sys"
              and any(alias.name == "flags" for alias in node.names)):
            yield node.lineno, "sys.flags"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "exec"):
            for part in ast.walk(node):
                if (isinstance(part, ast.Constant) and isinstance(part.value, str)
                        and _STRIPPED_WORDS.search(part.value)):
                    yield part.lineno, f"exec template {part.value.strip()!r}"


def _exec_calls(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "exec"]


def test_python_O_dependence_scan_sees_each_construct():
    for source, want in (("assert x", "assert"),
                         ("if __debug__: pass", "__debug__"),
                         ("import sys; sys.flags.optimize", "sys.flags"),
                         ("from sys import flags", "sys.flags"),
                         ("exec('def f(x):\\n    assert x')",
                          "exec template 'def f(x):\\n    assert x'")):
        assert [what for _, what in _python_O_dependence(ast.parse(source))] == [want]
    assert list(_python_O_dependence(ast.parse("raise AssertionError('x')"))) == []


def test_no_check_depends_on_python_O():
    """``python -O`` strips ``assert`` statements and the code under
    ``if __debug__:``, and nothing else, so a package without either, and
    without a read of ``sys.flags``, checks the same under ``-O``.  The one
    ``exec``, in ``records.record``, compiles templates scanned here too."""
    found, execs = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, line, what) for line, what in _python_O_dependence(tree)]
        execs += [(path.name, line) for line in _exec_calls(tree)]
    assert found == []
    assert [name for name, _ in execs] == ["records.py"]


def test_no_floating_point_outside_quad_scalar_float():
    """No float literal and no ``float(`` call anywhere in the package.  The
    name dates from when ``QuadScalar.__float__`` was exempt."""
    assert [what for _, what in _float_uses(ast.parse("float(x) + 2.0"))] == ["float(", "2.0"]
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, line, what) for line, what in _float_uses(tree)]
    assert found == []


_SQUARE = based_cone("square").cone

# each public entry point that takes numbers, with one entry ``bad`` among ints
_ENTRY_CALLS = {
    "make_cone": lambda bad: make_cone([(bad, 1), (1, 0)]),
    "make_based": lambda bad: make_based(_SQUARE, (1, bad, 0)),
    "point_tensor": lambda bad: point_tensor(_SQUARE, _SQUARE, [1] * 8 + [bad]),
    "conic_membership target": lambda bad: conic_membership((bad, 1), [(1, 0), (0, 1)]),
    "conic_membership generator": lambda bad: conic_membership((1, 1), [(1, 0), (bad, 1)]),
    "polytope_from_vertices": lambda bad: polytope_from_vertices([(0, 0), (1, bad)]),
    "LpProblem.build row": lambda bad: LpProblem.build(1, ge_rows=[((bad,), 1)]),
    "LpProblem.build rhs": lambda bad: LpProblem.build(1, eq_rows=[((1,), bad)]),
    "format_rational": format_rational,
    "serialize_cone_file": lambda bad: serialize_cone_file("c", [(1, 0), (bad, 1)]),
    "serialize_polytope_file": lambda bad: serialize_polytope_file("p", [(0, 0), (1, bad)]),
    "serialize_point_file": lambda bad: serialize_point_file("x", (1, 2), [1, bad]),
}


@pytest.mark.parametrize("bad", [0.5, "1/2"])
@pytest.mark.parametrize("entry", list(_ENTRY_CALLS))
def test_entry_points_refuse_float_and_str_entries(entry, bad):
    """A float would be read as its binary value and a str parsed, so both
    are refused with TypeError."""
    with pytest.raises(TypeError, match="is not an int or a Fraction"):
        _ENTRY_CALLS[entry](bad)


def test_decisions_return_only_ints_and_fractions():
    """The scan above cannot see an ``int / int``, which makes a float at run
    time; so the corpus decisions run, and every number they return must be
    an int or a Fraction: EB terms, the entries of Ext_k extensions and dual
    hierarchy weights.  EB refutations and Ext_k witnesses are primitive
    integer vectors, so they must be ints."""
    seen, wrong = {}, []

    def scan(kind, values):
        values = list(values)
        seen[kind] = seen.get(kind, 0) + len(values)
        types = (int,) if kind in ("eb refutation", "witness") else (int, Fraction)
        wrong.extend((kind, v) for v in values if type(v) not in types)

    for name in EB_LEVELS:
        for k in (1, 2, 3):
            out = is_entanglement_breaking(based_cone(name), k)
            if out.breaking:
                scan("eb terms", [n for t in out.terms
                                  for n in (*t.facet_indices, t.vertex_index, t.weight)])
            else:
                scan("eb refutation", out.refutation)
    sq, skew = based_cone("square"), based_cone("square-skew")
    for name, based, levels in (("gap-k2", skew, (1, 2, 3)), ("gap-k3", skew, (1, 2, 3)),
                                ("box", sq, (1, 2))):
        x = point(name, sq.cone, based.cone)
        for k in levels:
            out = ext_k_membership(x, sq.cone, based, k)
            if out.member:
                scan("extension", out.extension.entries)
            else:
                scan("witness", out.witness.entries)
    res = dual_hierarchy_k(point("box-interior", sq.cone, sq.cone), sq.cone, sq)
    scan("dual weights", res.weights)
    assert wrong == []
    assert set(seen) == {"eb terms", "eb refutation", "extension", "witness",
                         "dual weights"} and min(seen.values()) > 0


def test_cone_data_are_ints_and_no_float_is_made():
    """Over every shipped cone and polytope: rays, facets, interior points,
    polytope functionals and conic separators are tuples of ints, and the
    vectors computed from them by a division (base vertices, normalized
    functionals, facet centroids through the interior test, conic weights)
    hold ints or Fractions, never a float."""
    seen, wrong = {}, []

    def scan(kind, vectors, types=(int,)):
        vectors = list(vectors)
        seen[kind] = seen.get(kind, 0) + len(vectors)
        wrong.extend((kind, v) for v in vectors
                     if type(v) is not tuple or any(type(a) not in types for a in v))

    exact = (int, Fraction)
    bases = []
    for name in cone_names():
        based = based_cone(name)
        c, dual = based.cone, dualize(based.cone)
        scan("cone vectors", (*c.rays, *c.facets, *dual.rays, *dual.facets))
        scan("interior point", [interior_point(c)])
        bases.append(based.base)
        omega_interior_test(based, 1)  # divides the facet centroids
    for p in bases + [polytope(name) for name in polytope_names()]:
        scan("functionals", p.functionals)
        scan("vertices", p.vertices, exact)
        if isinstance(p.factorization, SimplexFactorization):
            scan("normalized", p.factorization.normalized, exact)
    sq = based_cone("square").cone
    gens = min_columns(sq, sq)
    member = conic_membership([a + b for a, b in zip(gens[0], gens[1])], gens)
    outside = conic_membership(point("gap-k2", sq, sq).entries, gens)
    assert member.member and not outside.member
    scan("conic weights", [member.weights], exact)
    scan("separator", [outside.separating])
    assert wrong == []
    assert set(seen) == {"cone vectors", "interior point", "functionals",
                         "vertices", "normalized", "conic weights",
                         "separator"} and min(seen.values()) > 0
