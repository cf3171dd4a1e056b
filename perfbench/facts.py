"""Machine and software facts recorded with every benchmark result.

``python facts.py OUT`` writes the OpenBLAS thread count that numpy uses in
this interpreter's environment to OUT; the benchmark runs it with the
environment its timed processes get.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path


def blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy in use, when it exposes one."""
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                      "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha(root: Path) -> str | None:
    """HEAD of the tree at ``root``; None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def facts(root: Path, blas: int | None) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "longmem").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "blas_threads": blas,
            "git_sha": git_sha(root), "src_sha256": src.hexdigest()}


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(blas_threads()))
