"""Order statistics, object sizes and the environment record."""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
from pathlib import Path

TAIL_SAMPLES = 10   # a reported tail percentile needs this many samples beyond it


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order
    statistics, the ``inclusive`` method of ``statistics.quantiles``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = (len(xs) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile's rank."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_is_resolved(n: int, q: float) -> bool:
    return samples_beyond(n, q) >= TAIL_SAMPLES


def array_nbytes(obj) -> int:
    """Bytes held in the distinct numpy arrays reachable from ``obj``.

    Walks attributes, sequences and mapping values; an array shared by many
    samples counts once, and a view counts as its base.
    """
    import numpy as np

    seen: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            base = item
            while isinstance(base.base, np.ndarray):
                base = base.base
            if base is not item:
                stack.append(base)
            else:
                total += item.nbytes
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack.extend(vars(item).values())
    return total


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(root: Path, thread_vars) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
