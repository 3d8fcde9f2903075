"""Environment fingerprint recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess


def _source_digest(src_dir: str) -> str:
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _openblas():
    """(version string, thread count) of the OpenBLAS numpy loaded."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    version = f"{blas.get('name')} {blas.get('version')}"
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return version, threads


def _filesystem(path: str) -> dict:
    """Mount point and type of the filesystem holding ``path``."""
    real = os.path.realpath(path)
    best = {"mount": None, "type": None}
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = real == mount or real.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best["mount"] or ""):
                    best = {"mount": mount, "type": fields[2]}
    except OSError:
        pass
    return best


def fingerprint(root: str, seed: int, scratch: str) -> dict:
    import numpy as np
    import scipy

    version, threads = _openblas()
    nproc = len(os.sched_getaffinity(0))
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src")),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": version,
        "openblas_threads": threads,
        "nproc": nproc,
        "blas_threads_within_nproc": threads is None or threads <= nproc,
        "scratch_filesystem": _filesystem(scratch),
    }
