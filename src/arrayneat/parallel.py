"""Chunked execution over population rows.

Workers only partition rows; every per-genome quantity is keyed by its global
row index, so results are bitwise independent of chunk boundaries and thread
count.  ``sequential`` forces one-genome chunks in a plain loop, which is the
forced per-genome path that ``arrayneat bench`` and the scaling test in
``tests/test_acceptance.py`` time the vectorized path against.
"""

from __future__ import annotations

import numpy as np


def chunk_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, total))
    bounds = np.linspace(0, total, parts + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def run_chunked(total: int, threads: int, sequential: bool, work) -> None:
    """Run ``work(lo, hi)`` over row ranges, on a thread pool when threads > 1.

    No chunk runs when ``total`` is 0.
    """
    if sequential:
        for i in range(total):
            work(i, i + 1)
        return
    ranges = chunk_ranges(total, threads)
    if len(ranges) < 2:
        for lo, hi in ranges:
            work(lo, hi)
        return
    # imported here, not at start-up: concurrent.futures pulls in logging and more
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        for future in [pool.submit(work, lo, hi) for lo, hi in ranges]:
            future.result()
