import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import longmem

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("series", "scaling", "hurst", "dcca", "network", "synthetic",
           "errors")


def test_all_is_the_modules_lists_in_order():
    modules = [importlib.import_module(f"longmem.{m}") for m in MODULES]
    want = ["__version__"] + [n for mod in modules for n in mod.__all__]
    assert longmem.__all__ == want
    assert len(set(longmem.__all__)) == len(longmem.__all__)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(longmem, name) is getattr(mod, name), name


HURST, NETWORK = "tests/test_hurst.py::", "tests/test_network.py::"
SCALING, SERIES = "tests/test_scaling.py::", "tests/test_series.py::"
CROSSOVER = HURST + "TestDetectCrossover::"
POLYNOMIAL = SCALING + "TestDetrendedSegments::test_exact_polynomial"
OVERSHOOT = "tests/test_dcca.py::TestNormalize::test_overshoot_tolerance"
TELESCOPING = SERIES + "TestIncrementsAndProfile::test_profile_final_value"
# Each named numeric constant: the test that fails when its value is
# multiplied by 4, and the one that fails when it is divided by 4 ...
PINNED = {
    "_DEFAULT_SCALE_CAP": (HURST + "TestFitHurst::test_default_range_caps_at_250",) * 2,
    "_RESIDUAL_FLOOR": (POLYNOMIAL + "[y9-2-dma-centered-False]",
                        POLYNOMIAL + "[y8-2-dma-centered-True]"),
    "_SSE_TIE_REL": (CROSSOVER + "test_sse_tie_window[outside]",
                     CROSSOVER + "test_sse_tie_window[inside]"),
    "_SSE_FLOOR": (CROSSOVER + "test_sse_floor[above]",
                   CROSSOVER + "test_sse_floor[below]"),
    "_RHO_OVERSHOOT_TOL": (OVERSHOOT + "[2e-9]", OVERSHOOT + "[5e-10]"),
    "_GAIN_TIE_REL": (NETWORK + "TestLouvainSteps::test_gain_tie_window[2e-12]",
                      NETWORK + "TestLouvainSteps::test_gain_tie_window[5e-13]"),
    "_PROFILE_TOL": (TELESCOPING + "_above_tolerance",
                     TELESCOPING + "_at_tolerance"),
    "_EPOCH_ORDINAL": (SERIES + "TestTimeSeries::test_rejects_unsorted_dates",) * 2,
}
# ... or why no output depends on its value
MARGINS = {
    "_CHUNK_ELEMS": "rows per engine chunk and per block draw of "
                    "generate_blocks: each member's values are bit for bit "
                    "those of a one-row engine, and the generator fills rows "
                    "in the order one-row draws do, whatever the chunk size",
    "_WRITE_CHARS": "characters per write of cli._write_all: the file "
                    "holds the text's UTF-8 bytes whatever the slices",
}


def test_every_named_constant_is_pinned_or_a_margin():
    constants = set()
    for info in pkgutil.iter_modules(longmem.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"longmem.{info.name}")
            constants |= {name for name, value in vars(module).items()
                          if re.fullmatch(r"_[A-Z][A-Z0-9_]*", name)
                          and isinstance(value, (int, float))
                          and not isinstance(value, bool)}
    assert constants == set(PINNED) | set(MARGINS)
    assert not set(PINNED) & set(MARGINS)
    ids = {test for tests in PINNED.values() for test in tests}
    files = sorted({test.partition("::")[0] for test in ids})
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *files],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    missing = ids - set(proc.stdout.splitlines())
    assert not missing, sorted(missing)


def test_no_module_calls_the_builtin_sum():
    # from Python 3.12 on, sum of floats is compensated, so a float total
    # would change bits with the Python version: loops or numpy instead
    calls = []
    for path in sorted((ROOT / "src" / "longmem").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"):
                calls.append(f"{path.name}:{node.lineno}")
    assert not calls, calls
