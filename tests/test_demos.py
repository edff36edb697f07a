"""Each demo runs to completion as a script."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, child_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
