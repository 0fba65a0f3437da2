"""Each demo script runs to completion against the current API."""

import os
import subprocess
import sys

import pytest

import sci

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def test_all_three_demos_found():
    assert DEMOS == ["01_swap_training.py", "02_collapse_conditions.py",
                     "03_index_sweep.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sci.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout
