"""Shared pytest plumbing for the test suite.

The acceptance gate in test_acceptance.py records one human-readable
pass/fail line per criterion; this hook replays those lines in the
terminal summary so they are visible in a plain ``pytest -v`` run
(stdout captured by pytest would otherwise hide them for passing
tests).  ``src_env`` is the environment for tests that start a fresh
interpreter.
"""

import os
import sys
from pathlib import Path

import pytest


@pytest.fixture
def src_env():
    """This process's environment with the directory holding the
    ``enfp`` under test first on PYTHONPATH, so a child interpreter
    imports the same package, installed or not."""
    import enfp

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(enfp.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(mod, "RESULTS", None) if mod is not None else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
