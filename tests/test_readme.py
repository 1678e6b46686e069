"""The README's library example and command-line session run as written,
and every name the package exports resolves."""

import re
from pathlib import Path

import coneext
from coneext.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_shell_session_runs(monkeypatch, capsys):
    """Each ``$ coneext ...`` block, run from the repository root, prints the
    lines shown under it and exits with the code its ``echo $?`` shows."""
    blocks = re.findall(r"^```\n(\$ coneext .*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.chdir(README.parent)
    for block in blocks:
        session, code = block.split("$ echo $?\n")
        command, output = re.match(r"\$ (.*?[^\\])\n(.*)", session, re.DOTALL).groups()
        argv = command.replace("\\\n", " ").split()
        assert argv[0] == "coneext"
        assert main(argv[1:]) == int(code)
        assert capsys.readouterr().out == output


def test_every_exported_name_resolves():
    assert len(coneext.__all__) == len(set(coneext.__all__))
    missing = [name for name in coneext.__all__ if not hasattr(coneext, name)]
    assert missing == []
