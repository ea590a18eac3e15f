"""Record the machine and code a benchmark run measured.

Perf numbers are only comparable between runs with the same core count,
BLAS build and thread setting, numpy/scipy/python versions and precision,
so every run prints these next to its metrics (and the traced run stores
them in its span log), together with the git SHA when the checkout has one
and the ``src``/``tests`` line counts.
"""

from __future__ import annotations

import ctypes
import inspect
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from repro.stream import OnlineService


def _blas() -> tuple[str, str]:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return info.get("name", "?"), info.get("version", "?")


def _blas_threads() -> int | str:
    """Threads the loaded OpenBLAS will use (probed via its C API)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "?")


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, fstype = "", "?"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _lines(directory: Path) -> int:
    total = 0
    for path in directory.rglob("*.py"):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def machine(root: Path, wal_dir: Path, precision: str) -> dict:
    """Fingerprint of this run: hardware, libraries, settings, code size."""
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    blas_name, blas_version = _blas()
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas_name} {blas_version}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "precision": precision,
        "wal_fs": _filesystem(wal_dir),
        "wal_sync": inspect.signature(OnlineService).parameters["wal_sync"].default,
        "git_sha": _git_sha(root),
        "src_lines": _lines(root / "src"),
        "tests_lines": _lines(root / "tests"),
    }
