"""Every demo script and README's quick start run against the source tree.

Each runs as its own process inside a temporary directory, so files it
writes (relative paths or temp dirs) land there.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_START = re.search(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S).group(1)


@pytest.mark.parametrize("args", [
    *(pytest.param([str(p)], id=p.stem) for p in DEMOS),
    pytest.param(["-c", QUICK_START], id="readme_quick_start"),
])
def test_demo_runs(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
