"""Each demo script, and the README's library tour, runs to completion
against the current API."""

import os
import subprocess
import sys

import pytest

import sci

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def _run(script, cwd):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sci.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_all_three_demos_found():
    assert DEMOS == ["01_swap_training.py", "02_collapse_conditions.py",
                     "03_index_sweep.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name, tmp_path):
    out = _run(os.path.join(ROOT, "demos", name), tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout


def test_readme_library_tour_exits_0(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    tour = readme.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    code = tour.split("```python\n", 1)[1].split("\n```", 1)[0]
    script = tmp_path / "tour.py"
    script.write_text(code + "\n", encoding="utf-8")
    out = _run(str(script), tmp_path)
    assert out.returncode == 0, out.stderr
