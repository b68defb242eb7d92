"""The environment record that goes with every benchmark result.

Import this only after the BLAS thread variables are set: it imports numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform

# Entry points that report the thread count a BLAS build actually uses, and
# its build string, under the names different builds export them.
_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
    "MKL_Get_Max_Threads",
)
_CONFIG_SYMBOLS = (
    "openblas_get_config",
    "openblas_get_config64_",
    "scipy_openblas_get_config",
    "scipy_openblas_get_config64_",
)


def _loaded_blas_libraries():
    paths = []
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if ("blas" in name or "mkl" in name) and ".so" in name and path not in paths:
                paths.append(path)
    return paths


def blas_runtime():
    """(library path, build string, threads in effect); None where unknown."""
    for path in _loaded_blas_libraries():
        lib = ctypes.CDLL(path)
        threads = None
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
        if threads is None:
            continue
        config = None
        for symbol in _CONFIG_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                config = fn().decode("utf-8", "replace").strip()
                break
        return path, config, threads
    return None, None, None


def _git_commit(root):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """sha256 over the package sources, to tell builds apart without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "kpex")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def record(root, seed, requested_threads):
    import numpy

    path, config, threads = blas_runtime()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_library": os.path.basename(path) if path else None,
        "blas_config": config,
        "blas_threads_requested": requested_threads,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_digest": source_digest(root),
        "seed": seed,
    }
