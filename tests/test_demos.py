"""Each demo script, and each Python block of README.md, runs to completion
against the package sources."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "bell_pair_walkthrough.py",
    "capacity_bounds.py",
    "entangled_bases.py",
    "qudit_circuit_vs_direct.py",
)
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def run_from_src(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    result = run_from_src([sys.executable, str(ROOT / "demos" / name)])
    assert result.returncode == 0, result.stderr


def test_readme_has_a_python_block():
    assert README_BLOCKS


@pytest.mark.parametrize("code", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(code):
    result = run_from_src([sys.executable, "-c", code])
    assert result.returncode == 0, result.stderr
