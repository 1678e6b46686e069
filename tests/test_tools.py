"""The fixture tool rewrites the shipped point files byte for byte, the
benchmark tracer's table names live functions, and the ladder tool runs."""

import importlib
import importlib.util
import json
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


def test_ladder_tool_counts_pivots_without_changing_a_verdict(capsys, monkeypatch):
    """``tools/ladder.py`` prints one JSON line per rung, here only the
    pentagon diagonal at k=2, and leaves ``lp`` unwrapped; a gap rung
    measured directly counts its pivots, degenerate ones included."""
    from coneext import lp

    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"
    spec = importlib.util.spec_from_file_location("ladder", path)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
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
