"""Host reference: STREAM-style copy bandwidth and the last-level cache size.

The copy arrays are sized at four times the reported last-level cache so the
copy streams from memory, capped at 1/16 of the available memory per array
because the host is shared; the report states both sizes and whether the
cap applied.  Bandwidth counts the bytes read plus the bytes written.
"""

from __future__ import annotations

import glob
import time

import numpy as np

from common import meminfo_bytes, median

REPEATS = 5


def llc_bytes() -> int | None:
    """Size of the highest cache level cpu0 reports, in bytes."""
    best = None
    for idx in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(f"{idx}/level", encoding="ascii") as fh:
                level = int(fh.read())
            with open(f"{idx}/size", encoding="ascii") as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * mult
        if best is None or level > best[0]:
            best = (level, size)
    return best[1] if best else None


def copy_bandwidth() -> dict:
    """Median copy GB/s over :data:`REPEATS` copies, with the sizes used."""
    llc = llc_bytes()
    want = 4 * llc if llc else 512 * 1024**2
    avail = meminfo_bytes("MemAvailable")
    cap = avail // 16 if avail else want
    nbytes = max(64 * 1024**2, min(want, cap))
    n = nbytes // 8
    a = np.ones(n, dtype=np.float64)
    b = np.zeros_like(a)
    np.copyto(b, a)  # first touch outside the timed copies
    rates = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        np.copyto(b, a)
        dt = time.perf_counter() - t0
        rates.append(2 * a.nbytes / dt / 1e9)
    del a, b
    return {
        "copy_gbs": median(rates),
        "array_mb": n * 8 / 1e6,
        "llc_mb": llc / 1e6 if llc else None,
        "capped": nbytes < want,
    }
