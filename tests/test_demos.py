"""Each narrative demo runs to completion as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo, tmp_path):
    # from an empty directory, so files a demo writes land there
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr.decode()
    assert r.stderr == b""
