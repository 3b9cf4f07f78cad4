"""Smoke test: every demo runs to completion against the package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tcm2d as t

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, name):
    # run a copy, since a demo may write output/ beside itself
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    src = os.path.dirname(os.path.dirname(t.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
