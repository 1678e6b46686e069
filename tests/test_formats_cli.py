"""File formats round-trip bit-exactly; the command surface honors the
exit-code contract (0 yes, 1 no, 2 usage or parse, 3 semantic, 4 internal)."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import coneext
from coneext.cli import main
from coneext.fixtures import (EB_LEVELS, FACTORABLE, UNFACTORABLE, cone_names,
                              fixture_path, fixture_text, list_fixtures,
                              polytope_names)
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
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert "line 4" in err and str(path) in err and "0xff" in err
    assert out == ""


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
    import coneext.cli as cli
    from coneext.polytopes import FACET_CAP

    monkeypatch.setattr(cli, "affine_hull_commutes",
                        lambda p: pytest.fail("the subset iteration started"))
    path = tmp_path / "parabola21.poly"
    path.write_text(serialize_polytope_file(
        "parabola21", [(Fraction(i), Fraction(i * i)) for i in range(21)]))
    code, out, err = _run(["hull-check", "--polytope", str(path)])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and f"cap of {FACET_CAP}" in err
    assert "21 facets" in err


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
# the printed extension is read from another final basis.
EXT_CHECK_PINS = {
    ("gap-k3", "square-skew", 1): (0, "99acef8e5799b586db39cff44440297f9d06390901607b301a134a6022fd9358"),
    ("gap-k3", "square-skew", 2): (0, "e21c81e2b4f101b81993d77ef7b08e450dc9c4bdaa3b85cf830700a28eac9906"),
    ("gap-k3", "square-skew", 3): (0, "7550f49d24ffdcb51172d6e7a0cfefecf391e9acb9e6f03871413c54fc8b5be5"),
    ("gap-k2", "square-skew", 1): (0, "06779efe1e3f5bb844e61ac91bf9ffc53349c78d890be24659dec8afdfb9527f"),
    ("gap-k2", "square-skew", 2): (0, "7953aa70657329988ada3f749433a670f50ab33906633bd2bfcba73a71691571"),
    ("gap-k2", "square-skew", 3): (1, "8e81f01f675c54235bdd6608411d24400a8537b750732b8da67f56e89b0f085a"),
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

# (core call as cli.py names it, argv of the subcommand that makes it)
_CORE_CALLS = {
    "dualize": ("dualize", ["dualize", "--cone-a", _SQUARE]),
    "ext-check": ("ext_k_membership",
                  ["ext-check", "--cone-a", _SQUARE, "--cone-b", _SKEW, "--k", "2",
                   "--point", fixture_path("gap-k3.pt")]),
    "eb-check": ("is_entanglement_breaking", ["eb-check", "--k", "2", "--cone-b", _SQUARE]),
    "factor": ("factor_as_simplices", ["factor", "--polytope", fixture_path("prism.poly")]),
    "hull-check": ("affine_hull_commutes",
                   ["hull-check", "--polytope", fixture_path("pentagon.poly")]),
    "min-check": ("conic_membership",
                  ["min-check", "--cone-a", _SQUARE, "--cone-b", _SKEW,
                   "--point", fixture_path("gap-k2.pt")]),
    "quantum-demo": ("verify_appendix", ["quantum-demo"]),
}


@pytest.mark.parametrize("command", list(_CORE_CALLS))
def test_internal_error_exits_four(monkeypatch, command):
    """A failed internal check is exit 4 with nothing on stdout, never the
    negative verdict 1 and never a partial report."""
    import coneext.cli as cli
    from coneext.hierarchy import ConsistencyError
    from coneext.quantum import AppendixError

    name, argv = _CORE_CALLS[command]
    error = AppendixError if name == "verify_appendix" else ConsistencyError

    def broken(*args):
        raise error("injected failure")

    monkeypatch.setattr(cli, name, broken)
    code, out, err = _run(argv)
    assert (code, out) == (cli.EXIT_INTERNAL, "") == (4, "")
    assert f"internal error: {error.__name__}: injected failure" in err
