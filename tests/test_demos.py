"""The documented code runs: each demo script, the README's library tour and
its command-line examples.

Each runs in a fresh interpreter with ``src`` on ``PYTHONPATH``, from a
copy in a temporary directory, so files a demo writes next to itself
stay out of the source tree.
"""

import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _library_tour():
    readme = (ROOT / "README.md").read_text()
    return re.search(r"## Library tour\s+```python\n(.*?)```", readme, re.S).group(1)


def _command_line():
    """The README's ``sobex`` commands, one argv each, and its config example."""
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"## Command line\n(.*?)\n## ", readme, re.S).group(1)
    shell = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    config = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line) for line in shell.splitlines() if line.strip()], config


def _run(args, cwd):
    paths = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = _run([shutil.copy(demo, tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_library_tour_runs(tmp_path):
    script = tmp_path / "library_tour.py"
    script.write_text(_library_tour())
    proc = _run([script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "<=" in proc.stdout


def test_readme_command_line_runs(tmp_path):
    """Each command exits 0, with ``sweep.json`` holding the README's config example."""
    commands, config = _command_line()
    (tmp_path / "sweep.json").write_text(config)
    assert len(commands) == 5
    for argv in commands:
        assert argv[0] == "sobex"
        proc = _run(["-m", "sobex.cli", *argv[1:]], tmp_path)
        assert proc.returncode == 0, (argv, proc.stderr)
    assert (tmp_path / "sweep_out.json").exists()
