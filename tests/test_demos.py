"""Run each narrative demo end to end.

The demos are the main users of the ``enfp`` namespace (``from enfp
import ...``), so each runs in a fresh interpreter, from a scratch
working directory, and must exit 0 without writing to stderr.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path, src_env):
    env = src_env
    env["TMPDIR"] = str(tmp_path)  # demo output directories land here
    env.pop("ENFP_COLOR", None)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
