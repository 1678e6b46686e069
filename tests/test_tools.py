"""The fixture tool rewrites the shipped point files byte for byte, and the
benchmark tracer's table names live functions."""

import importlib
import importlib.util
import sys
from pathlib import Path

from coneext.fixtures import fixture_path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
POINT_FILES = ("box.pt", "box-interior.pt", "gap-k2.pt", "gap-k3.pt")


def test_make_fixtures_reproduces_the_shipped_points(tmp_path, monkeypatch):
    """A run on an unchanged checkout leaves ``git status`` clean.  The gap
    points come from a cutting plane over ``ext_k_membership``: the largest
    step along a ray that stays in the level-k cone."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("make_fixtures", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT", tmp_path)
    tool.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(POINT_FILES)
    for name in POINT_FILES:
        assert (tmp_path / name).read_bytes() == Path(fixture_path(name)).read_bytes(), name


def test_every_traced_name_resolves():
    """The benchmark's tracer wraps each name of its ``TRACED`` table with
    ``getattr``; a helper removed from ``coneext`` breaks the traced run."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, names in tracer.TRACED.items():
        mod = importlib.import_module(f"coneext.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"coneext.{module}.{name}"
