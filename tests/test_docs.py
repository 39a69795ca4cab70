"""The README library tour and the demo scripts run as written.

They build `ExperimentConfig` directly rather than through the CLI, so
they are run here, each in a fresh working directory (the demos write
into `out/` under it).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import holoplane

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(holoplane.__file__).resolve().parents[1]


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def library_tour():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_readme_library_tour(tmp_path):
    proc = run_python(["-c", library_tour()], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("0.116")


@pytest.mark.parametrize("script, line", [
    ("simulate_hologram.py", "grid nodes      : 10000"),
    ("reconstruct_field.py", "max |zeta| over the patch : 4.722"),
    ("convergence_study.py", "bounded_refined: slope = -0.882"),
])
def test_demo(tmp_path, script, line):
    proc = run_python([str(ROOT / "demos" / script)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
