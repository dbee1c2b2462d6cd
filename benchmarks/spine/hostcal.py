"""Host roofline calibration, measured in the same run as the kernels.

Single-threaded STREAM triad ``a = b + s*c`` on arrays of at least four
times the last-level cache, and a DGEMM rate.  NumPy runs the triad as two
passes (``a = s*c`` then ``a += b``), so the *computed* traffic is five
array sweeps, not three: bytes come from array sizes, not from counters.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

import numpy as np

__all__ = ["last_level_cache_bytes", "triad", "dgemm"]

_FALLBACK_LLC = 32 << 20


def last_level_cache_bytes() -> int:
    """Largest data/unified cache of cpu0 as sysfs reports it."""
    best = 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        factor = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1])
        nbytes = int(size[:-1]) * factor if factor else int(size)
        best = max(best, nbytes)
    return best or _FALLBACK_LLC


def _available_bytes() -> int:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) << 10
    except OSError:
        pass
    return 1 << 30


def triad(array_bytes: int | None = None, repeats: int = 3) -> dict:
    """Best-of-``repeats`` triad bandwidth in GB/s, with both sizes stated.

    Arrays are ``4 * LLC`` unless that would take more than a third of the
    available memory (``sized_to_4x_llc`` then reads ``False``).
    """
    llc = last_level_cache_bytes()
    wanted = 4 * llc if array_bytes is None else array_bytes
    granted = min(wanted, _available_bytes() // 9)
    n = max(granted // 8, 1)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, perf_counter() - t0)
    if a[n // 2] != 7.0:
        raise RuntimeError("triad produced a wrong value")
    return {
        "gbps": 5 * n * 8 / best / 1e9,
        "array_bytes": n * 8,
        "llc_bytes": llc,
        "sized_to_4x_llc": n * 8 >= 4 * llc,
    }


def dgemm(n: int = 768, repeats: int = 5) -> float:
    """Best-of-``repeats`` ``n x n`` DGEMM rate in GFLOP/s."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    np.matmul(a, b)  # first call loads and dispatches the BLAS kernel
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        np.matmul(a, b)
        best = min(best, perf_counter() - t0)
    return 2 * n**3 / best / 1e9
