"""File formats round-trip bit-exactly; the command surface honors the
exit-code contract (0 yes, 1 no, 2 usage or parse, 3 semantic)."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import coneext
from coneext.cli import main
from coneext.fixtures import fixture_path, fixture_text, list_fixtures
from coneext.formats import (ParseError, parse_cone_file, parse_point_file,
                             parse_polytope_file, serialize_cone_file,
                             serialize_point_file, serialize_polytope_file)


def test_every_shipped_fixture_round_trips():
    names = list_fixtures()
    assert len(names) >= 20
    for fn in names:
        text = fixture_text(fn)
        if fn.endswith(".cone"):
            name, dim, gens, phi = parse_cone_file(text)
            assert serialize_cone_file(name, gens, phi) == text
        elif fn.endswith(".poly"):
            name, ambient, verts = parse_polytope_file(text)
            assert serialize_polytope_file(name, verts) == text
        else:
            assert fn.endswith(".pt")
            name, dims, entries = parse_point_file(text)
            assert serialize_point_file(name, dims, entries) == text


def test_cone_parse_reports_line_numbers():
    bad = "cone demo\ndim 2\nray 1 1//2\n"
    with pytest.raises(ParseError) as e:
        parse_cone_file(bad)
    assert e.value.line == 3
    assert "1//2" in str(e.value)


def test_cone_parse_structural_errors():
    with pytest.raises(ParseError):
        parse_cone_file("cone x\ndim 2\n")  # no rays
    with pytest.raises(ParseError):
        parse_cone_file("cone x\ndim 2\nray 1 0\nray 1\n")  # arity
    with pytest.raises(ParseError):
        parse_cone_file("dim 2\nray 1 0\n")  # missing header
    with pytest.raises(ParseError):
        parse_cone_file("cone x\ndim 2\nphi 1 1\nray 1 0\nray 0 1\n")  # ray after phi
    with pytest.raises(ParseError):
        parse_cone_file("cone x\ndim 2\nray 1 0\nphi 1 1\nphi 1 2\n")  # two phis
    with pytest.raises(ParseError):
        parse_cone_file("cone bad name\ndim 2\nray 1 0\nray 0 1\n")


def test_comments_and_blank_lines_are_ignored():
    text = "# header comment\ncone c\n\ndim 2\nray 1 0  # inline\nray 0 1\n"
    name, dim, gens, phi = parse_cone_file(text)
    assert name == "c" and dim == 2 and phi is None
    assert gens == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_point_file_shape_checks():
    with pytest.raises(ParseError):
        parse_point_file("point p\ndims 2 2\nrow 1 0\n")  # missing row
    with pytest.raises(ParseError):
        parse_point_file("point p\ndims 2 2\nrow 1 0 3\nrow 0 1\n")


def _run(argv):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_dualize_square_emits_dual_file():
    code, out, _ = _run(["dualize", "--cone-a", fixture_path("square.cone")])
    assert code == 0
    name, dim, gens, phi = parse_cone_file(out)
    assert set(gens) == {(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)}


def test_dualize_twice_returns_original_rays():
    import tempfile

    code, out, _ = _run(["dualize", "--cone-a", fixture_path("square.cone")])
    with tempfile.NamedTemporaryFile("w", suffix=".cone", delete=False) as f:
        f.write(out)
        path = f.name
    code, out2, _ = _run(["dualize", "--cone-a", path])
    assert code == 0
    _, _, gens, _ = parse_cone_file(out2)
    orig = parse_cone_file(fixture_text("square.cone"))[2]
    assert gens == orig


def test_ext_check_gap_point_member_but_not_min():
    argv = ["--cone-a", fixture_path("square.cone"),
            "--cone-b", fixture_path("square-skew.cone"),
            "--point", fixture_path("gap-k2.pt")]
    code, out, _ = _run(["ext-check", "--k", "2"] + argv)
    assert code == 0
    assert "verdict: MEMBER" in out
    code, out, _ = _run(["min-check"] + argv)
    assert code == 1
    assert "verdict: NON-MEMBER" in out
    assert "separating:" in out


def test_ext_check_rejects_k_zero():
    code, _, err = _run(["ext-check", "--k", "0",
                         "--cone-a", fixture_path("square.cone"),
                         "--cone-b", fixture_path("square.cone"),
                         "--point", fixture_path("box.pt")])
    assert code == 2


def test_parse_failure_exit_and_message():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".cone", delete=False) as f:
        f.write("cone bad\ndim 3\nray 1 1//2 0\n")
        path = f.name
    code, _, err = _run(["dualize", "--cone-a", path])
    assert code == 2
    assert "line 3" in err


def test_non_ascii_digit_is_a_parse_error():
    import tempfile

    # "²" (superscript two) passes str.isdigit but not int()
    with tempfile.NamedTemporaryFile("w", suffix=".cone", delete=False,
                                     encoding="utf-8") as f:
        f.write("cone sq\ndim ²\nray 1 0\nray 0 1\n")
        path = f.name
    code, _, err = _run(["dualize", "--cone-a", path])
    assert code == 2
    assert "line 2" in err


def test_semantic_failures_exit_three():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".cone", delete=False) as f:
        f.write("cone line\ndim 2\nray 1 0\nray -1 0\nray 0 1\n")
        path = f.name
    code, _, err = _run(["dualize", "--cone-a", path])
    assert code == 3
    assert "line" in err

    # phi outside the dual interior
    code, _, err = _run(["eb-check", "--k", "1",
                         "--cone-b", fixture_path("square.cone"),
                         "--phi", "0 1 0"])
    assert code == 3

    # point file with the wrong dimensions for the pair
    code, _, err = _run(["min-check",
                         "--cone-a", fixture_path("orthant2.cone"),
                         "--cone-b", fixture_path("square.cone"),
                         "--point", fixture_path("box.pt")])
    assert code == 3


def test_eb_check_square_decomposition_output():
    code, out, _ = _run(["eb-check", "--k", "2",
                         "--cone-b", fixture_path("square.cone")])
    assert code == 0
    assert "verdict: BREAKING" in out
    assert out.count("term:") == 4
    code, out, _ = _run(["eb-check", "--k", "2",
                         "--cone-b", fixture_path("square-skew.cone")])
    assert code == 1
    assert "verdict: NOT-BREAKING" in out
    assert "refutation:" in out


def test_factor_prism_reports_dims():
    code, out, _ = _run(["factor", "--polytope", fixture_path("prism.poly")])
    assert code == 0
    assert "factors: [1, 2]" in out
    code, out, _ = _run(["factor", "--polytope", fixture_path("pentagon.poly")])
    assert code == 1
    assert "NOT-FACTORABLE" in out


def test_factor_accepts_based_cone_input():
    code, out, _ = _run(["factor", "--cone-b", fixture_path("cube.cone")])
    assert code == 0
    assert "factors: [1, 1, 1]" in out


def test_hull_check_witness():
    code, out, _ = _run(["hull-check", "--polytope", fixture_path("pentagon.poly")])
    assert code == 1
    assert "verdict: VIOLATED" in out
    assert "violated: facets {" in out
    code, out, _ = _run(["hull-check", "--polytope", fixture_path("cube.poly")])
    assert code == 0
    assert "verdict: COMMUTES" in out


def test_quantum_demo_passes():
    code, out, _ = _run(["quantum-demo"])
    assert code == 0
    assert "verdict: ALL-PASS" in out
    for label in ("decomposition", "gram-extension", "transpose-extension", "obstruction"):
        assert label in out


def test_json_lines_mode_is_valid_json():
    code, out, _ = _run(["eb-check", "--k", "2", "--report", "json-lines",
                         "--cone-b", fixture_path("square.cone")])
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines
    for line in lines:
        json.loads(line)


def test_console_script_is_deterministic():
    args = ["min-check",
            "--cone-a", fixture_path("square.cone"),
            "--cone-b", fixture_path("square.cone"),
            "--point", fixture_path("box.pt")]
    # The console script exists only once the package is installed; without
    # it, run the same coneext.cli:main as a module.
    script = shutil.which("coneext")
    argv = ([script] if script else [sys.executable, "-m", "coneext.cli"]) + args
    # The child imports the package these tests import, whatever PYTHONPATH
    # pytest itself was started with.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coneext.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    runs = [subprocess.run(argv, capture_output=True, env=env, timeout=60)
            for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 1
    assert runs[0].stdout == runs[1].stdout
    assert b"verdict: NON-MEMBER" in runs[0].stdout
    code, out, _ = _run(args)
    assert code == 1
    assert runs[0].stdout == out.encode()


def test_missing_subcommand_is_usage_error():
    assert _run([])[0] == 2
    assert _run(["no-such-command"])[0] == 2
