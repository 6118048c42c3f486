"""The runtime depends on numpy alone: importing the package, in a fresh
interpreter, loads no scipy even where scipy is installed."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, quditmask, quditmask.cli; print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
