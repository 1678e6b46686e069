"""The README's library example runs as written, and every name the package
exports resolves."""

import re
from pathlib import Path

import coneext

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    assert len(coneext.__all__) == len(set(coneext.__all__))
    missing = [name for name in coneext.__all__ if not hasattr(coneext, name)]
    assert missing == []
