"""Report header: code identity, library builds, BLAS threads and machine load."""

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy


def source_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_threads():
    """Runtime thread count of numpy's OpenBLAS, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _blas_build(config: dict) -> dict:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def header(root: Path) -> dict:
    return {
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(np.show_config(mode="dicts")),
        "scipy_blas": _blas_build(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def gemm_gflops(n: int = 1024, repeats: int = 5) -> float:
    """Median GEMM rate of numpy at the default BLAS thread count."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        rates.append(2.0 * n**3 / (time.perf_counter() - start) / 1e9)
    return sorted(rates)[len(rates) // 2]
