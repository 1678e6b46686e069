"""The fixture tool rewrites the shipped point files byte for byte, the
benchmark tracer's table names live functions, and the ladder tool runs."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

from coneext.fixtures import fixture_path

ROOT = Path(__file__).resolve().parent.parent
POINT_FILES = ("box.pt", "box-interior.pt", "gap-k2.pt", "gap-k3.pt")


def load(relpath):
    """The module at ``relpath`` of the checkout, loaded by path.  A tool puts
    its own src/ first on ``sys.path``; the path is left as it was."""
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


# tools/ladder.py, whose ``case`` also builds the Ext_k points of test_lp.py
# and test_hierarchy.py
ladder = load("tools/ladder.py")


def test_make_fixtures_reproduces_the_shipped_points(tmp_path, monkeypatch):
    """A run on an unchanged checkout leaves ``git status`` clean.  The gap
    points come from a cutting plane over ``ext_k_membership``: the largest
    step along a ray that stays in the level-k cone."""
    tool = load("tools/make_fixtures.py")
    monkeypatch.setattr(tool, "OUT", tmp_path)
    tool.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(POINT_FILES)
    for name in POINT_FILES:
        assert (tmp_path / name).read_bytes() == Path(fixture_path(name)).read_bytes(), name


def test_every_traced_name_resolves():
    """The benchmark's tracer wraps each name of its ``TRACED`` table with
    ``getattr``; a helper removed from ``coneext`` breaks the traced run."""
    tracer = load("perfbench/tracer.py")
    assert tracer.TRACED
    for module, names in tracer.TRACED.items():
        mod = importlib.import_module(f"coneext.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"coneext.{module}.{name}"


def test_ladder_tool_counts_pivots_without_changing_a_verdict(capsys, monkeypatch):
    """``tools/ladder.py`` prints one JSON line per rung, here only the
    pentagon diagonal at k=2, and leaves ``lp`` unwrapped; a gap rung
    measured directly counts its pivots, degenerate ones included."""
    from coneext import lp

    monkeypatch.setattr(ladder, "RUNGS", [("pentagon-diagonal", 2)])
    pivot, eliminate = lp._Tableau.pivot, lp._eliminate
    ladder.main()
    (line,) = capsys.readouterr().out.splitlines()
    rung = json.loads(line)
    assert (rung["point"], rung["k"], rung["verdict"]) == (
        "pentagon-diagonal", 2, "NON-MEMBER")
    assert 0 < rung["degenerate"] <= rung["pivots"] < rung["eliminate_calls"]
    assert (lp._Tableau.pivot, lp._eliminate) == (pivot, eliminate)
    gap = ladder.measure("gap-k2", 2)
    assert gap["verdict"] == "member"
    assert 0 < gap["degenerate"] <= gap["pivots"]
