"""The fixture tool rewrites the shipped point files byte for byte."""

import importlib.util
import sys
from pathlib import Path

from coneext.fixtures import fixture_path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
POINT_FILES = ("box.pt", "box-interior.pt", "gap-k2.pt", "gap-k3.pt")


def test_make_fixtures_reproduces_the_shipped_points(tmp_path, monkeypatch):
    """A run on an unchanged checkout leaves ``git status`` clean.  The gap
    points come from the level-k LP rows and phase 2 of the simplex, for
    which the tool is the only caller outside the tests."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("make_fixtures", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT", tmp_path)
    tool.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(POINT_FILES)
    for name in POINT_FILES:
        assert (tmp_path / name).read_bytes() == Path(fixture_path(name)).read_bytes(), name
