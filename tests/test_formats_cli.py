"""File formats round-trip bit-exactly; the command surface honors the
exit-code contract (0 yes, 1 no, 2 usage or parse, 3 semantic, 4 internal)."""

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import coneext
from coneext.cli import main
from coneext.fixtures import (EB_LEVELS, FACTORABLE, UNFACTORABLE, based_cone, cone,
                              cone_names, fixture_path, fixture_text, list_fixtures,
                              point, polytope_names)
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


def test_corpus_names_come_from_the_files():
    for name in cone_names():
        assert parse_cone_file(fixture_text(f"{name}.cone"))[0] == name
    for name in polytope_names():
        assert parse_polytope_file(fixture_text(f"{name}.poly"))[0] == name
    assert set(EB_LEVELS) == set(cone_names())
    assert sorted(FACTORABLE + UNFACTORABLE) == sorted(polytope_names())


# the B of each shipped point, whose A is the square
POINT_B = {"box": "square", "box-interior": "square", "gap-k2": "square-skew",
           "gap-k3": "square-skew"}


def test_every_shipped_point_loads_against_square_and_its_b():
    assert set(POINT_B) == {fn[:-3] for fn in list_fixtures() if fn.endswith(".pt")}
    sq = cone("square")
    for name, b_name in POINT_B.items():
        b = based_cone(b_name).cone
        x = point(name, sq, b)
        assert [s.dim for s in x.slots] == [sq.dim, b.dim]
        dims = (sq.dim, b.dim)
        assert serialize_point_file(name, dims, x.entries) == fixture_text(f"{name}.pt")


def test_point_refuses_wrong_dims_and_unknown_names():
    """A point is loaded only against cones of its file's dims, and the error
    names it; an unknown name is a FileNotFoundError, as for ``fixture_path``."""
    with pytest.raises(ValueError, match="point gap-k2 has dims"):
        point("gap-k2", cone("square"), cone("cube"))
    with pytest.raises(ValueError, match="point box has dims"):
        point("box", cone("orthant2"), cone("square"))
    with pytest.raises(FileNotFoundError):
        point("no-such-point", cone("square"), cone("square"))
    with pytest.raises(FileNotFoundError):
        fixture_path("no-such-point.pt")


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
    with pytest.raises(ValueError, match="entry count does not match dims"):
        serialize_point_file("p", (2, 2), (1, 2, 3))


@pytest.mark.parametrize("serialize,message", [
    (lambda: serialize_cone_file("a b", [(1, 0)]), "bad name 'a b'"),
    (lambda: serialize_cone_file("c\n", [(1, 0)]), "bad name 'c\\n'"),
    (lambda: serialize_cone_file("c", [(1, 0), (0, 1, 0)]), "cone file lines of unequal length"),
    (lambda: serialize_polytope_file("p", [(0, 0), (1,)]),
     "polytope file lines of unequal length"),
    (lambda: serialize_cone_file("c", [(1, 0)], phi=(1, 1, 1)),
     "cone file lines of unequal length"),
    (lambda: serialize_cone_file("c", []), "cone file has no ray lines"),
    (lambda: serialize_cone_file("c", [], phi=(1, 1)), "cone file has no ray lines"),
    (lambda: serialize_polytope_file("p", []), "polytope file has no vertex lines"),
    (lambda: serialize_cone_file("c", [()]), "dim must be positive"),
    (lambda: serialize_point_file("x", (2, 0), ()), "dims must be positive"),
    (lambda: serialize_point_file("x", (0, 2), ()), "point file has no row lines"),
], ids=["name-space", "name-newline", "ray-length", "vertex-length", "phi-length",
        "no-rays", "phi-only", "no-vertices", "empty-ray", "zero-dim", "zero-rows"])
def test_serializers_refuse_what_the_parsers_refuse(serialize, message):
    """Each of these would write a file that its own parser refuses, so
    ``formats._write`` raises ValueError instead."""
    with pytest.raises(ValueError) as e:
        serialize()
    assert str(e.value) == message


@pytest.mark.parametrize("parse,text,line,message", [
    (parse_cone_file, "", 1, "empty file, expected 'cone NAME'"),
    (parse_cone_file, "# a\n\n", 2, "empty file, expected 'cone NAME'"),
    (parse_cone_file, "# c\n# d\ncone x\n", 3, "expected 'dim'"),
    (parse_cone_file, "cone x\ndim 2\n# end\n", 3, "cone file has no rays"),
    (parse_polytope_file, "polytope p\nambient 2", 2, "polytope file has no vertices"),
    (parse_point_file, "point p\ndims 3 2\nrow 1 0\n\n", 4, "point has 1 rows, expected 3"),
    (parse_point_file, "point p\ndims 1 2\nrow 1 0\nrow 0 1\n", 4,
     "point has 2 rows, expected 1"),
    (parse_cone_file, "cone x\ndim 2\nphi 1 1\nray 1 x\n", 4, "bad rational 'x'"),
    (parse_cone_file, "cone -x\ndim 2\nray 1 0\n", 1, "bad name '-x'"),
    (parse_cone_file, "cone x\nsize 2\nray 1 0\n", 2, "expected 'dim' with 1 integer(s)"),
    (parse_cone_file, "cone x\ndim 2\nvertex 1 0\n", 3, "unexpected keyword 'vertex'"),
])
def test_parse_errors_name_the_offending_line(parse, text, line, message):
    """An error found at the end of the file names the file's last line (at
    least 1), and a surplus row names its own line.  A line with a bad
    vector and a ray/phi order fault reports the vector."""
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, str(e.value)) == (line, f"line {line}: {message}")


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


def test_dualize_twice_returns_original_rays(tmp_path):
    code, out, _ = _run(["dualize", "--cone-a", fixture_path("square.cone")])
    path = tmp_path / "dual.cone"
    path.write_text(out)
    code, out2, _ = _run(["dualize", "--cone-a", str(path)])
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


def test_parse_failure_exit_and_message(tmp_path):
    path = tmp_path / "bad.cone"
    path.write_text("cone bad\ndim 3\nray 1 1//2 0\n")
    code, _, err = _run(["dualize", "--cone-a", str(path)])
    assert code == 2
    assert "line 3" in err


def test_non_ascii_digit_is_a_parse_error(tmp_path):
    # "²" (superscript two) passes str.isdigit but not int()
    path = tmp_path / "sq.cone"
    path.write_text("cone sq\ndim ²\nray 1 0\nray 0 1\n", encoding="utf-8")
    code, _, err = _run(["dualize", "--cone-a", str(path)])
    assert code == 2
    assert "line 2" in err


def test_non_utf8_input_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.cone"
    path.write_bytes(b"cone bad\ndim 2\nray 1 0\nray 0 \xff1\n")
    code, out, err = _run(["dualize", "--cone-a", str(path)])
    assert (code, out, err) == (
        2, "", f"error: {path}: line 4: byte 0xff is not UTF-8\n")


_EXT_CHECK_FILES = {"--cone-a": "square.cone", "--cone-b": "square-skew.cone",
                    "--point": "gap-k2.pt"}


@pytest.mark.parametrize("flag", [*_EXT_CHECK_FILES, "--polytope"])
def test_parse_error_names_its_file(tmp_path, flag):
    """A parse error is prefixed with the path of the file it is in, so a
    bad --cone-b does not read like a bad --cone-a."""
    files = ({"--polytope": "square.poly"} if flag == "--polytope"
             else _EXT_CHECK_FILES)
    argv = ["factor"] if flag == "--polytope" else ["ext-check", "--k", "1"]
    for f, name in files.items():
        argv += [f, fixture_path(name)]
    lines = fixture_text(files[flag]).splitlines()
    word, _, *rest = lines[2].split()
    lines[2] = " ".join([word, "1//2", *rest])
    bad = tmp_path / files[flag]
    bad.write_text("\n".join(lines) + "\n")
    argv[argv.index(flag) + 1] = str(bad)
    assert _run(argv) == (2, "", f"error: {bad}: line 3: bad rational '1//2'\n")


def test_one_dimensional_based_cone_exits_three(tmp_path):
    one = tmp_path / "one.cone"
    one.write_text("cone one\ndim 1\nray 1\nphi 1\n")
    point = tmp_path / "p.pt"
    point.write_text("point p\ndims 1 2\nrow 1 1\n")
    for argv in (["eb-check", "--k", "1", "--cone-b", str(one)],
                 ["factor", "--cone-b", str(one)],
                 ["hull-check", "--cone-b", str(one)],
                 ["ext-check", "--k", "1", "--cone-a", str(one),
                  "--cone-b", str(one), "--point", str(point)]):
        code, out, err = _run(argv)
        assert code == 3, argv
        assert "dimension at least 2" in err and out == ""
    code, out, _ = _run(["ext-check", "--k", "2", "--cone-a", str(one),
                         "--cone-b", fixture_path("orthant2.cone"),
                         "--point", str(point)])
    assert code == 0
    assert "verdict: MEMBER" in out


def test_based_cone_errors_name_the_file(tmp_path):
    one = tmp_path / "one.cone"
    one.write_text("cone one\ndim 1\nray 1\nphi 1\n")
    point = tmp_path / "p.pt"
    point.write_text("point p\ndims 3 1\nrow 1\nrow 1\nrow 1\n")
    code, out, err = _run(["ext-check", "--k", "1",
                           "--cone-a", fixture_path("square.cone"),
                           "--cone-b", str(one), "--point", str(point)])
    assert code == 3 and out == ""
    assert f"{one}: a based cone needs dimension at least 2" in err
    code, out, err = _run(["eb-check", "--k", "1", "--phi", "1 0",
                           "--cone-b", fixture_path("square.cone")])
    assert code == 3 and out == ""
    assert f"{fixture_path('square.cone')}: phi has 2 entries" in err


def test_semantic_failures_exit_three(tmp_path):
    path = tmp_path / "line.cone"
    path.write_text("cone line\ndim 2\nray 1 0\nray -1 0\nray 0 1\n")
    code, _, err = _run(["dualize", "--cone-a", str(path)])
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


def test_factor_of_a_point_is_factorable(tmp_path):
    """A one-vertex polytope is the product of zero simplices: exit 0 with
    an empty factor list in text and in json-lines mode."""
    path = tmp_path / "pt.poly"
    path.write_text("polytope pt\nambient 2\nvertex 1 2\n")
    code, out, err = _run(["factor", "--polytope", str(path)])
    assert (code, err) == (0, "")
    assert "verdict: FACTORABLE\n" in out and "factors: []\n" in out
    code, out, err = _run(["factor", "--polytope", str(path),
                           "--report", "json-lines"])
    assert (code, err) == (0, "")
    lines = [json.loads(line) for line in out.splitlines()]
    assert {"verdict": "FACTORABLE"} in lines and {"factors": []} in lines


def test_factor_accepts_based_cone_input():
    code, out, _ = _run(["factor", "--cone-b", fixture_path("cube.cone")])
    assert code == 0
    assert "factors: [1, 1, 1]" in out


@pytest.mark.parametrize("phi,message", [
    ("1 x 0", "bad rational literal 'x'"),
    ("1 1/0 0", "zero denominator in '1/0'"),
])
def test_bad_phi_literal_is_a_usage_error(phi, message):
    """A bad --phi literal names the option, not a line of some file, and
    exits 2 with nothing on stdout."""
    code, out, err = _run(["eb-check", "--k", "1", "--phi", phi,
                           "--cone-b", fixture_path("square.cone")])
    assert (code, out, err) == (2, "", f"usage error: --phi: {message}\n")


@pytest.mark.parametrize("command", ["factor", "hull-check"])
def test_polytope_excludes_cone_b_and_phi(command):
    """--polytope with --cone-b or --phi is a usage error (exit 2, nothing
    on stdout), not an answer for the polytope alone; each option alone
    still answers."""
    poly, cone_b = fixture_path("cube.poly"), fixture_path("square.cone")
    for extra in (["--cone-b", cone_b], ["--phi", "1 0 0"],
                  ["--cone-b", cone_b, "--phi", "1 0 0"]):
        code, out, err = _run([command, "--polytope", poly] + extra)
        assert (code, out) == (2, ""), extra
        assert err == "usage error: --polytope cannot be combined with --cone-b or --phi\n"
    assert _run([command, "--polytope", poly])[0] == 0
    assert _run([command, "--cone-b", cone_b])[0] == 0
    code, out, err = _run([command])
    assert (code, out, err) == (2, "", "usage error: need --polytope or --cone-b\n")


def test_hull_check_witness():
    code, out, _ = _run(["hull-check", "--polytope", fixture_path("pentagon.poly")])
    assert code == 1
    assert "verdict: VIOLATED" in out
    assert "violated: facets {" in out
    code, out, _ = _run(["hull-check", "--polytope", fixture_path("cube.poly")])
    assert code == 0
    assert "verdict: COMMUTES" in out


def test_hull_check_refuses_more_facets_than_the_cap(tmp_path, monkeypatch):
    """The 21-gon through (i, i^2), i = 0..20, has one facet more than the
    subset-iteration cap: exit 3 with the cap named on stderr and nothing on
    stdout, before any of the 2^21 facet subsets is visited."""
    import coneext.polytopes as polytopes
    from coneext.polytopes import FACET_CAP

    monkeypatch.setattr(polytopes, "affine_hull_commutes",
                        lambda p: pytest.fail("the subset iteration started"))
    path = tmp_path / "parabola21.poly"
    path.write_text(serialize_polytope_file(
        "parabola21", [(Fraction(i), Fraction(i * i)) for i in range(21)]))
    code, out, err = _run(["hull-check", "--polytope", str(path)])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and f"cap of {FACET_CAP}" in err
    assert "21 facets" in err


def _missing_phi(tmp_path):
    path = tmp_path / "nophi.cone"
    path.write_text("".join(line for line in fixture_text("square.cone").splitlines(True)
                            if not line.startswith("phi ")))
    return ["eb-check", "--k", "1", "--cone-b", str(path)], path, "no phi in file"


def _parabola21(tmp_path):
    path = tmp_path / "parabola21.poly"
    path.write_text(serialize_polytope_file(
        "parabola21", [(Fraction(i), Fraction(i * i)) for i in range(21)]))
    return ["hull-check", "--polytope", str(path)], path, "21 facets exceed"


@pytest.mark.parametrize("case", [
    lambda tmp: (["dualize", "--cone-a", str(tmp / "absent.cone")],
                 tmp / "absent.cone", "cannot read"),
    lambda tmp: (["dualize", "--cone-a", str(tmp)], tmp, "cannot read"),
    _missing_phi,
    lambda tmp: (["min-check", "--cone-a", fixture_path("orthant2.cone"),
                  "--cone-b", fixture_path("square.cone"),
                  "--point", fixture_path("box.pt")],
                 fixture_path("box.pt"), "point dims (3, 3) do not match"),
    _parabola21,
], ids=["missing-file", "directory", "no-phi", "point-dims", "facet-cap"])
def test_semantic_errors_name_the_file(tmp_path, case):
    """Every semantic error is one ``error: PATH: message`` line on stderr,
    PATH being the input file at fault, with exit 3 and nothing on stdout."""
    argv, path, message = case(tmp_path)
    code, out, err = _run(argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert message in err


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


# sha256 of stdout and the exit code, captured before the LP data moved to
# symmetric-power coordinates; the change must leave every byte alone.
# gap-k3 and gap-k2 at k=2 were re-captured under guarded Dantzig pricing:
# the printed extension is read from another final basis.  gap-k3 at k=2
# and 3 and gap-k2 at k=3 were re-captured under the lexicographic ratio
# test and free columns first, each with its exit code unchanged.
EXT_CHECK_PINS = {
    ("gap-k3", "square-skew", 1): (0, "99acef8e5799b586db39cff44440297f9d06390901607b301a134a6022fd9358"),
    ("gap-k3", "square-skew", 2): (0, "766d3c69af362cb674e392dfbec5b85969b0f5ae63b9dbf47e2dd024ef4b0a85"),
    ("gap-k3", "square-skew", 3): (0, "20e23a9855d6053965224bf95e46858d0f6933409891e7231b30feea3bf8ca22"),
    ("gap-k2", "square-skew", 1): (0, "06779efe1e3f5bb844e61ac91bf9ffc53349c78d890be24659dec8afdfb9527f"),
    ("gap-k2", "square-skew", 2): (0, "7953aa70657329988ada3f749433a670f50ab33906633bd2bfcba73a71691571"),
    ("gap-k2", "square-skew", 3): (1, "c92eb05c3d233f6d0f32397b241c4caaacafa5dcaaa07e62b8ff6438dbf5f066"),
    ("box", "square", 1): (0, "30dc475ed39abde28165bafd3d7e3720003e76ab25c16d3a684f18c8fb04df8e"),
    ("box", "square", 2): (1, "45a6f91450dc78540856b3af0e4f71703dbe4fa02c3bde5ebd6c441a2b116047"),
}

# Of these, square-skew and quad at k=3 were re-captured when phase 1
# stopped letting a left artificial re-enter, and square, square-skew,
# prism, pentagon and quad at k=3 under guarded Dantzig pricing: the printed
# decomposition or refutation is read from another final basis.
EB_CHECK_PINS = {
    ("square", 1): (1, "8c3a1c39eb47d96636206fff7a0b8e4c2cf6121ed6f28d4255b3179b0930b839"),
    ("square", 2): (0, "9d0c57e37305826fb41e649448ee360eae4c6ec589874fcde7f6da8f8782b161"),
    ("square", 3): (0, "5ff2bb590765dfa2412d665a2c6991b3617158412b6a47ec2651a542b94ea1fb"),
    ("square-skew", 1): (1, "3d06f79eb9e8c698fb72f2a180ccb204535c206ff84786984ce5c51053870d72"),
    ("square-skew", 2): (1, "efeaa6f67865253b9af9979b3cd3c840e29051aa941a0ca74bdacf83bafbec79"),
    ("square-skew", 3): (1, "b1f91daf0e913c6933f45310c05926fcb5f8600e38d8a3020febbb5dbee40383"),
    ("triangle", 1): (0, "7664eedd854fff40e846a6aa85a49223fcc82aa30a7cfdda1c88a8ddfaedc667"),
    ("triangle", 2): (0, "3fac574ffb64647899c68cc3374d3d615b55dbe6238a7fc6ffa21e42c4be4fcf"),
    ("triangle", 3): (0, "db29c9d0c85abbf8f91709ebedbce62bcba12ddc025baf6943edbb5670750e57"),
    ("orthant2", 1): (0, "39f9961ce3b43ffc65c9c22ed8b9a73a368e2ba5fbab90d35747b44472b9ff84"),
    ("orthant2", 2): (0, "01c8cd594d38cd20fc35b185d48de9e5a90b9518d2b6ee51ed26dc19fae8ac43"),
    ("orthant2", 3): (0, "e07a02410453963faa97b41b94fa2d3f3882f2e3c4baab095c51776c81193de3"),
    ("orthant3", 1): (0, "bfe356b48108a96c1907030e27d173b0db5f07be13661cd30455e2a1659d6f4c"),
    ("orthant3", 2): (0, "fa30ef84654057d63c25b75a0c6c98ec9f064751d0c8c41a5a687a026b62ad9d"),
    ("orthant3", 3): (0, "c45c32bc4eec78bf75191b98eccd554f1348624cb629c6060efa824666a640e1"),
    ("cube", 1): (1, "8e82b241a9457ae3e4b64cc593bd9408d9e1811fe7f501a55e395bd3716ce817"),
    ("cube", 2): (1, "0ad9dabcfeea7244e31845e9bd3dc0c26afc1cb3b1def2246e55467cf81c960e"),
    ("cube", 3): (0, "17e86e7b5aeb19c70919c37a9c05f84d3f49e59d45795cbf248b9bb058606497"),
    ("prism", 1): (1, "7c80183dd3e63443be30246843b50d1e2c5c2092dbc6e330c3c1fd044777a572"),
    ("prism", 2): (0, "f47f640d0a29f7fc4d49b3e0ff445a5726cc386ffcb8fea2ddab6d9ed0558a82"),
    ("prism", 3): (0, "423802a805eee880e864231b8e4c7292d04cd83e664c5e3c3777441add39baa4"),
    ("pentagon", 1): (1, "5a1d857c861dd19e242bd76ed85054c295076f5d8186593451c71cf1d01d6265"),
    ("pentagon", 2): (1, "a55990854a878cad9d78df4709c1528405708f456c8a2c3b5556010312e28465"),
    ("pentagon", 3): (1, "86693cd6153e7d5f1dd715988c53c07c9b4c8f45e7481465ac4d31183b2e6a8d"),
    ("octahedron", 1): (1, "f1c8810aa5fb62cc6dc44f8b2e6cac59d4fdf2d2d94dbf95d3147e69a11639e2"),
    ("octahedron", 2): (1, "3a881e375c2317a68c7c27102a57e4c70992d4e0ab016e4542219077ebd726ef"),
    ("octahedron", 3): (1, "0407fc0fabe2d8e84b970e53583e570f5b7dc0373934f471f62a815bfe55cfe7"),
    ("quad", 1): (1, "17d2d18872b431898ae3e461fd904a24b9da588a65aafc13ab373491d5473d43"),
    ("quad", 2): (1, "5066ca33b3e2142a55695223534d4e4c13cc639a89cedcec1116b357a84869ec"),
    ("quad", 3): (1, "2911577a3dcd00583cd6ad6ab159df555ae5ae7fbeb30425286b8ff0544bebde"),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("point,cone_b,k", list(EXT_CHECK_PINS))
def test_ext_check_output_is_pinned(point, cone_b, k):
    code, out, _ = _run(["ext-check", "--k", str(k),
                         "--cone-a", fixture_path("square.cone"),
                         "--cone-b", fixture_path(f"{cone_b}.cone"),
                         "--point", fixture_path(f"{point}.pt")])
    assert (code, _sha256(out)) == EXT_CHECK_PINS[point, cone_b, k]


def test_ext_check_under_python_O_is_unchanged():
    """``python -O`` strips ``assert`` statements but no certificate check:
    the NON-MEMBER verdict, its witness and the exit code stay byte for
    byte those of the normal run."""
    args = ["ext-check", "--k", "3",
            "--cone-a", fixture_path("square.cone"),
            "--cone-b", fixture_path("square-skew.cone"),
            "--point", fixture_path("gap-k2.pt")]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coneext.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-O", "-m", "coneext.cli"] + args,
                         capture_output=True, env=env, timeout=60)
    code, out, _ = _run(args)
    assert (run.returncode, run.stdout) == (code, out.encode())
    assert (code, _sha256(out)) == EXT_CHECK_PINS["gap-k2", "square-skew", 3]


# sha256 of quantum-demo's stdout and its exit code, captured from the
# hand-indexed operator maps that preceded the tensor-slot versions.
QUANTUM_DEMO_PINS = {
    "text": (0, "1cb8dacf3afbf78f10018b7eb11e9cf232cc47450936eb47e7b259ba4d380602"),
    "json-lines": (0, "b443cbbb041bd7a4bbbb668d6bea4874ec76d8ba96ab3d97d78e14dd1a135a08"),
}


@pytest.mark.parametrize("report", list(QUANTUM_DEMO_PINS))
def test_quantum_demo_output_is_pinned(report):
    code, out, _ = _run(["quantum-demo", "--report", report])
    assert (code, _sha256(out)) == QUANTUM_DEMO_PINS[report]


def test_quantum_demo_under_python_O_is_unchanged():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coneext.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-O", "-m", "coneext.cli", "quantum-demo"],
                         capture_output=True, env=env, timeout=60)
    assert (run.returncode, _sha256(run.stdout.decode())) == QUANTUM_DEMO_PINS["text"]


@pytest.mark.parametrize("cone,k", list(EB_CHECK_PINS))
def test_eb_check_json_lines_output_is_pinned(cone, k):
    code, out, _ = _run(["eb-check", "--k", str(k), "--report", "json-lines",
                         "--cone-b", fixture_path(f"{cone}.cone")])
    assert (code, _sha256(out)) == EB_CHECK_PINS[cone, k]


_SQUARE, _SKEW = fixture_path("square.cone"), fixture_path("square-skew.cone")

# (home module of the core call, its name, argv of the subcommand that makes
# it); a command looks the call up in its home module when it runs
_CORE_CALLS = {
    "dualize": ("cones", "dualize", ["dualize", "--cone-a", _SQUARE]),
    "ext-check": ("hierarchy", "ext_k_membership",
                  ["ext-check", "--cone-a", _SQUARE, "--cone-b", _SKEW, "--k", "2",
                   "--point", fixture_path("gap-k3.pt")]),
    "eb-check": ("hierarchy", "is_entanglement_breaking",
                 ["eb-check", "--k", "2", "--cone-b", _SQUARE]),
    "factor": ("polytopes", "factor_as_simplices",
               ["factor", "--polytope", fixture_path("prism.poly")]),
    "hull-check": ("polytopes", "affine_hull_commutes",
                   ["hull-check", "--polytope", fixture_path("pentagon.poly")]),
    "min-check": ("lp", "conic_membership",
                  ["min-check", "--cone-a", _SQUARE, "--cone-b", _SKEW,
                   "--point", fixture_path("gap-k2.pt")]),
    "quantum-demo": ("quantum", "verify_appendix", ["quantum-demo"]),
}


@pytest.mark.parametrize("command", list(_CORE_CALLS))
def test_internal_error_exits_four(monkeypatch, command):
    """A failed internal check is exit 4 with nothing on stdout, never the
    negative verdict 1 and never a partial report."""
    import coneext.cli as cli
    from coneext.hierarchy import ConsistencyError
    from coneext.quantum import AppendixError

    module, name, argv = _CORE_CALLS[command]
    error = AppendixError if name == "verify_appendix" else ConsistencyError

    def broken(*args):
        raise error("injected failure")

    monkeypatch.setattr(importlib.import_module(f"coneext.{module}"), name, broken)
    code, out, err = _run(argv)
    assert (code, out) == (cli.EXIT_INTERNAL, "") == (4, "")
    assert f"internal error: {error.__name__}: injected failure" in err


# sha256 of stdout and the exit code in the report mode the pins above do
# not cover, and of the other subcommands in both modes, captured while each
# subcommand still wrote its report line by line.  gap-k3 at k=2 and 3 and
# gap-k2 at k=3 were re-captured as EXT_CHECK_PINS were.
EXT_CHECK_JSON_PINS = {
    ("gap-k3", "square-skew", 1): (0, "0591bd6da59fbca691d10477372062c05a5e8172e52c8850989fd823438c9bd3"),
    ("gap-k3", "square-skew", 2): (0, "5fd374ab6a2bed7c592320e6dffcd81edcb7bc8b94fa99b3098557d78f52119e"),
    ("gap-k3", "square-skew", 3): (0, "685a8e637b47532fa547a3b9cc6d5c8b0f06ee86702e324994a37cb98d5a0434"),
    ("gap-k2", "square-skew", 1): (0, "9f649da8259cdb154f9556b27b965128fc6e1aae02836c0c4ec3945fb3cea02b"),
    ("gap-k2", "square-skew", 2): (0, "4b55a080a10a456761324ca14b70b3957ebd11b9d86fb736c0392e3c41fcb8ac"),
    ("gap-k2", "square-skew", 3): (1, "b69a0c147e005d7ee9dca9098fd21bd3c0069a3d6e25a44ebf51ca737a52784f"),
    ("box", "square", 1): (0, "9d3ee6f38872322a44f0e4a2f3080084a0c230029cfae0e226b11c5e6d8206e4"),
    ("box", "square", 2): (1, "3d2fe22648d102c7904622433277807975d7ec9f5e6c95c4adff2c1f4df348d9"),
}

EB_CHECK_TEXT_PINS = {
    ("square", 1): (1, "6a444b7c3991e05a83b7b17358af891fdd2f31571ac392e5a40ee9c9d7dbb5b0"),
    ("square", 2): (0, "c452176f1e167439b12ece50d36756149a5512b7a8f04335dd66c9005f32e130"),
    ("square", 3): (0, "d3add9558bc6ee7d51277e60aa4a4dbf31280bd19201898ca975526b05753ffc"),
    ("square-skew", 1): (1, "495e9eb2dcd648545005f093e1a767bccd45f6e18c5b7fb37596da6dfa5dd59f"),
    ("square-skew", 2): (1, "68f6a38a1191f5ca2607f27659b878520a79c4fcec699b58cfce8305abb9b69c"),
    ("square-skew", 3): (1, "3f95476dbb6cf259b7d6a9235a946c407b6bea21aecd1a132473d33c7ff1fc15"),
    ("triangle", 1): (0, "cb2a5b90ed23229c163a9c12e9b67b682f61017afcea56ebd52497d69622f969"),
    ("triangle", 2): (0, "a9097cd59cf1d6e26592aec60dabd705347d7f11e027dbe7adf1c18443888588"),
    ("triangle", 3): (0, "bb97f6be5e8faf4d7660a01e0b3672d68c43068643f90361814d21a0ad10db8a"),
    ("orthant2", 1): (0, "969954ddcd54edf74cb320fd6077afaf1fa44d73a274b95d115a4fc79944f24f"),
    ("orthant2", 2): (0, "6a179c1eec66e35053de0332b145209774c0e6992b1092e22d4d1b7168ebe765"),
    ("orthant2", 3): (0, "e018fed2b595ebd972028ddce5ccfbd2a08fbda8d0910eea8edd8adf370d78e6"),
    ("orthant3", 1): (0, "38d38469c251da2f1bec38f58fb9a153ef150fecd6074d2b0e541df5ff61e07c"),
    ("orthant3", 2): (0, "dda2247ff12219dd778acf30cdee7e909a69bb626d29f8c8479d232bf716e22e"),
    ("orthant3", 3): (0, "0f642a3df77cd74dad96e368726c4d693b62e94385bd377ad6c02318fddaf4ef"),
    ("cube", 1): (1, "41fc2d21a16f7f58415f980330ab7e5b4c07c8b91901625f9619b7e0b98f2fdd"),
    ("cube", 2): (1, "9b5e1188ea00c7c1191c11567bf1edf9ded8c1cf0e45e0531e6625b21e567ded"),
    ("cube", 3): (0, "5cbbee73e7aedff0e16f8bb74ad3a1067d26b7170c0c40fc95ad3ab9e540b27a"),
    ("prism", 1): (1, "a858293a723007ec49f37349629e3014f2a258115e59409eb81b10ba01a16305"),
    ("prism", 2): (0, "2b961d104169e8ee6fc1ac76bd94e292d0a332b09595116a378a4c161f6ef317"),
    ("prism", 3): (0, "9b975a1cf31b8c34218f55b6acc1589c6665f795297861aa4928d1cfffd0a32f"),
    ("pentagon", 1): (1, "eb214711650c5053b88a1c1b902cf70a502d65c925fde873d454a6a775755465"),
    ("pentagon", 2): (1, "a26bb18345037143d5017d6c991a05d2c14a19be99f005cca3fe42c81c11323f"),
    ("pentagon", 3): (1, "c558c570cb816023ffc20b2fee3827057dea53279973605fd34c7f058ee7f9e1"),
    ("octahedron", 1): (1, "b76e645ff0034310fd6b199bdafb49fae05d39db780035b3300dd5efa130da01"),
    ("octahedron", 2): (1, "10029c21e5b6f13752a48828a305c11f894f35dc8b53addb081b6430f6982bd1"),
    ("octahedron", 3): (1, "e5e6976070faee17ec5ac3f59607709056067d513fe59e9ccef3da1e0a96806b"),
    ("quad", 1): (1, "d6bcedd90583510d5da41cf406d79160b5293fed088adc67dc3fbdbd5f668336"),
    ("quad", 2): (1, "d59ea258fb9b7a1e9749d650ee5852c49080ebe8b626ccb0ece363912c5858be"),
    ("quad", 3): (1, "f6e97ff3ad3c2d3c5ec43f1f6c001cba107dbbaf44c603b01eba3c4c7f9ad33d"),
}

CLI_PINS = {
    ("min-check --cone-a square.cone --cone-b square.cone --point box.pt", "text"):
        (1, "06bb5be9113c2993181db2bc5ae5fa28da81d2db89c786cf99dfa4524fb395e6"),
    ("min-check --cone-a square.cone --cone-b square.cone --point box.pt", "json-lines"):
        (1, "7162487ee1b04b523938f13e35d46e7141615bcdc2facea842c3671a91644852"),
    ("min-check --cone-a square.cone --cone-b square-skew.cone --point gap-k2.pt", "text"):
        (1, "9d08caef60140f3e32160e618cef6a28dc3a296a609cee29b51ecfc7028d700f"),
    ("min-check --cone-a square.cone --cone-b square-skew.cone --point gap-k2.pt", "json-lines"):
        (1, "8e1eff3110b5c1b2196b0ea4efb40d19eee6e7191a58bdadcf340a075885eb12"),
    ("min-check --cone-a square.cone --cone-b square.cone --point box-interior.pt", "text"):
        (1, "1eddae05199d96cee56512bd994950caca17d720117d2d24fe14d3be79cbb713"),
    ("min-check --cone-a square.cone --cone-b square.cone --point box-interior.pt", "json-lines"):
        (1, "c8fb2f719fbe751a4de5bdcba137353988e20aee3c475ac31e853cde467a7bd7"),
    ("factor --polytope cube.poly", "text"):
        (0, "f7fc4d2ca4f8135a5ddd2abca64fa5882e51fbf03bc46dbc2d3bfc6f6e95bb38"),
    ("factor --polytope cube.poly", "json-lines"):
        (0, "27d8b24880260b7b6c79673dfbccdd426a01d43334f19df826180e2370ced0ad"),
    ("factor --polytope pentagon.poly", "text"):
        (1, "ae3cbdee10f9ee4da3b4bb4a108cbe7501e008570468c4277891e16f47410c12"),
    ("factor --polytope pentagon.poly", "json-lines"):
        (1, "c337efd9f061204221449d1210d4461f92c9e14d92e1679970180ff784eb5248"),
    ("factor --polytope prism.poly", "text"):
        (0, "5c524c5d267e255c8b17fca7af861b01d0ad76bbd215114e8381342347e89420"),
    ("factor --polytope prism.poly", "json-lines"):
        (0, "1df2b0c54744afdc454ee68faac4d39fcefa6889f8f9e6078b654c7080d35b17"),
    ("factor --cone-b square-skew.cone", "text"):
        (1, "758356b7979054e6a1811c8906afbc29c41aac5bb0cc11b82a5ed56a16f7224a"),
    ("factor --cone-b square-skew.cone", "json-lines"):
        (1, "8cdda8470bf672c2baced66b4eeab6b5aa870320bbe604426427d9118c5cba33"),
    ("hull-check --polytope square.poly", "text"):
        (0, "e923d2775047550dd0fa5dd2df4a0618c1d58896ad3d1cbc1c14fc131d9e46b4"),
    ("hull-check --polytope square.poly", "json-lines"):
        (0, "9067f8eeba933619d4a961c03bbe9da18e04579cbdd5e9cc6a878cee6c90ee64"),
    ("hull-check --polytope octahedron.poly", "text"):
        (1, "cb1d03807b8a778efd467825e05ad9d431a03c7bf3fb8816ff1b4b4acb682b8e"),
    ("hull-check --polytope octahedron.poly", "json-lines"):
        (1, "0054b5ab7ee5cc24fbef99327dedaac2b398234f4987669763db77f0b74bc398"),
    ("hull-check --cone-b cube.cone", "text"):
        (0, "7d838da27dc84f33da0a89b3e288d9b984cb681c78cb5bc02f480aafe55eee1a"),
    ("hull-check --cone-b cube.cone", "json-lines"):
        (0, "6c4d5c48c726d7d7624ea65fd7236e61e9344f4b290dfe447a02dc8026dd30dd"),
    ("dualize --cone-a square.cone", "text"):
        (0, "2464c7ed9ce7c3527c4fc4b17238cea81d2e92ca99353b45d21b9996c5fdf7c9"),
    ("dualize --cone-a square.cone", "json-lines"):
        (0, "2464c7ed9ce7c3527c4fc4b17238cea81d2e92ca99353b45d21b9996c5fdf7c9"),
    ("dualize --cone-a orthant3.cone", "text"):
        (0, "61cdd53364d18ace93e9c378ec43f105c7f846ca3d06258a4386467afa6d050d"),
    ("dualize --cone-a orthant3.cone", "json-lines"):
        (0, "61cdd53364d18ace93e9c378ec43f105c7f846ca3d06258a4386467afa6d050d"),
}


@pytest.mark.parametrize("point,cone_b,k", list(EXT_CHECK_JSON_PINS))
def test_ext_check_json_lines_output_is_pinned(point, cone_b, k):
    code, out, _ = _run(["ext-check", "--k", str(k), "--report", "json-lines",
                         "--cone-a", fixture_path("square.cone"),
                         "--cone-b", fixture_path(f"{cone_b}.cone"),
                         "--point", fixture_path(f"{point}.pt")])
    assert (code, _sha256(out)) == EXT_CHECK_JSON_PINS[point, cone_b, k]


@pytest.mark.parametrize("cone,k", list(EB_CHECK_TEXT_PINS))
def test_eb_check_text_output_is_pinned(cone, k):
    code, out, _ = _run(["eb-check", "--k", str(k),
                         "--cone-b", fixture_path(f"{cone}.cone")])
    assert (code, _sha256(out)) == EB_CHECK_TEXT_PINS[cone, k]


@pytest.mark.parametrize("command,report", list(CLI_PINS))
def test_cli_output_is_pinned(command, report):
    """Each key is the command line with fixture file names in place of
    their paths."""
    argv = [fixture_path(t) if t.endswith((".cone", ".poly", ".pt")) else t
            for t in command.split()]
    code, out, err = _run(argv + ["--report", report])
    assert err == ""
    assert (code, _sha256(out)) == CLI_PINS[command, report]


# r1 ox r1 + 2 r2 ox r3 over the square's rays r1 = (1, -1, 0),
# r2 = (1, 0, -1), r3 = (1, 0, 1), row-major: a point of the minimal product
_MIN_MEMBER_ENTRIES = (3, -1, 2, -1, 1, 0, -2, 0, -2)

# sha256 of stdout and the exit code of min-check on that point, the one
# MEMBER report among the pins, captured while ``conic_membership`` still
# held the generators in a table by coordinate
MIN_CHECK_MEMBER_PINS = {
    "text": (0, "d136c3ca7ae95e0c48aecdc9c58003add7f9beb466ce59691c34345520d8c748"),
    "json-lines": (0, "1781b8a16c1fb861def5ba570f91c926aec7150ac0f1fdbf49fa42c737c31074"),
}


@pytest.mark.parametrize("report", list(MIN_CHECK_MEMBER_PINS))
def test_min_check_member_output_is_pinned(tmp_path, report):
    path = tmp_path / "min-member.pt"
    path.write_text(serialize_point_file("min-member", (3, 3), _MIN_MEMBER_ENTRIES))
    code, out, err = _run(["min-check", "--cone-a", fixture_path("square.cone"),
                           "--cone-b", fixture_path("square.cone"),
                           "--point", str(path), "--report", report])
    assert err == ""
    assert "MEMBER" in out and "NON-MEMBER" not in out
    assert (code, _sha256(out)) == MIN_CHECK_MEMBER_PINS[report]
