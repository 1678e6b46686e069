"""The acceptance gate under ``python -O``, which strips ``assert``
statements from the package: every certificate check it relies on is an
explicit raise.  Pytest still rewrites the asserts of the test module."""

import os
import re
import subprocess
import sys

import coneext

ACCEPTANCE = os.path.join(os.path.dirname(__file__), "test_acceptance.py")


def test_acceptance_suite_passes_under_python_O():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coneext.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q",
                          "-p", "no:cacheprovider", ACCEPTANCE],
                         capture_output=True, text=True, env=env, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert re.search(r"\b9 passed\b", run.stdout), run.stdout
