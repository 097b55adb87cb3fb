"""Run metadata stored in every record, and the rule for pairing records."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Records taken under different values of these cannot be compared.
PAIRING_KEYS = ("backend", "nproc")


def _git_sha(root: Path) -> str | None:
    """HEAD of ``root``'s own git directory, if it has one (a benchmark
    checkout need not be a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, so records from a checkout that is
    not a repository still name the code they measured."""
    digest = hashlib.sha256()
    package = root / "src" / "yulesimon"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def collect(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy
    import yulesimon

    return {
        "workload": workload,
        "seed": seed,
        "backend": yulesimon.backend_name(),
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
        "machine": platform.machine(),
    }


def check_pairable(a: dict, b: dict) -> None:
    """Raise ValueError if two records' metadata forbid comparing them."""
    for key in PAIRING_KEYS:
        if a.get(key) != b.get(key):
            raise ValueError(f"records differ in {key}: {a.get(key)!r} vs {b.get(key)!r}")
