import glob
import os
import subprocess
import sys

import pytest

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
_DEMOS = sorted(glob.glob(os.path.join(_ROOT, "demos", "*.py")))


def test_demos_found():
    assert _DEMOS


@pytest.mark.parametrize("path", _DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    result = subprocess.run(
        [sys.executable, path], cwd=_ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
