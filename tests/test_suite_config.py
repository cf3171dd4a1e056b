"""The suite's pytest configuration reports every test, failing ones too.

``pyproject.toml`` turns warnings into errors; a warning raised while a
plugin builds a failure report must not abort the rest of the run.  A test
that hangs fails on ``conftest``'s time limit and the run goes on.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_pair.py").write_text(PAIR)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "-p", "no:cacheprovider", "test_pair.py"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


LOOP = '''
import conftest

conftest.TIME_LIMIT_S = 0.5


def test_loops():
    while True:
        pass


def test_passes():
    pass
'''


def test_hanging_test_fails_on_the_time_limit(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_loop.py").write_text(LOOP)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "-p", "no:cacheprovider", "test_loop.py"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120, env=env)
    assert ("conftest.TimeLimitExceeded: test still running after 0.5 s"
            in proc.stdout)
    assert "1 failed, 1 passed" in proc.stdout
