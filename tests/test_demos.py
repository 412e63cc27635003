"""The documented code runs: each demo script and the README's library tour.

Each runs in a fresh interpreter with ``src`` on ``PYTHONPATH``, from a
copy in a temporary directory, so files a demo writes next to itself
stay out of the source tree.
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _library_tour():
    readme = (ROOT / "README.md").read_text()
    return re.search(r"## Library tour\s+```python\n(.*?)```", readme, re.S).group(1)


def _run(script, cwd):
    paths = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = _run(shutil.copy(demo, tmp_path), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_library_tour_runs(tmp_path):
    script = tmp_path / "library_tour.py"
    script.write_text(_library_tour())
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "<=" in proc.stdout
