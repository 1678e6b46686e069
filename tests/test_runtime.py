"""The runtime promise of the README: the package imports only the standard
library and computes with no floating point."""

import ast
import sys
from pathlib import Path

import coneext

SRC = Path(coneext.__file__).resolve().parent


def _float_uses(tree):
    """(line, what) for each float literal and each ``float(`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float("


def _quad_float(tree):
    """The lines of ``QuadScalar.__float__``, the one place allowed floats:
    the numpy oracle and the scalar tests convert through it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "QuadScalar":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__float__":
                    return range(item.lineno, item.end_lineno + 1)
    return range(0)


def test_every_import_is_relative_or_stdlib():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, node.lineno, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_no_floating_point_outside_quad_scalar_float():
    found, allowed = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt = _quad_float(tree)
        for line, what in _float_uses(tree):
            (allowed if line in exempt else found).append((path.name, line, what))
    assert found == []
    # the scan does see the conversion it exempts
    assert {(name, what) for name, _, what in allowed} >= {
        ("scalars.py", "float("), ("scalars.py", "2.0")}
