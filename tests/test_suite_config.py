"""The suite's pytest configuration reports every test, failing ones too.

``pyproject.toml`` turns warnings into errors; a warning raised while a
plugin builds a failure report must not abort the rest of the run.  A test
that hangs fails on ``conftest``'s time limit and the run goes on.  The
tests that pin a rounding-level effect hold on other numeric code paths.
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


# Tests whose input must round the way they assert on any platform.
ROUNDING = (
    "tests/test_hurst.py::TestFitHurst::test_fit_line_r_clamped_at_minus_one",
    "tests/test_hurst.py::TestDetectCrossover::test_rounding_tie_goes_to_the_larger_scale",
    "tests/test_synthetic.py::TestGenerateFgn::test_rounding_negatives_near_h_one_are_clamped",
)


def numpy_has_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__.get("AVX512F", False)


def test_rounding_tests_hold_on_other_numeric_code_paths():
    # numpy's power and log10 give other bits without AVX-512, and OpenBLAS's
    # Sandybridge kernels another matrix product: a test that found its
    # rounding in this CPU's code paths fails here
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_CORETYPE": "Sandybridge"}
    if numpy_has_avx512():
        env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "-p", "no:cacheprovider", *ROUNDING],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0 and "5 passed" in proc.stdout, proc.stdout
