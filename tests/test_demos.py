import os
import subprocess
import sys
from pathlib import Path

import pytest

import telegraph_market

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(demo):
    # each demo runs as a user would run it: its own process, the package on
    # PYTHONPATH; it prints its report and nothing to stderr
    src = str(Path(telegraph_market.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(demo)], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert done.stderr == ""
