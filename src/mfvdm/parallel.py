"""The package's one parallel loop: ``workers`` threads over a work list.

``--workers`` is the whole thread budget; BLAS runs one thread (see
``mfvdm/__init__.py``).  Every caller makes each item's result independent
of the thread that computes it, so the worker count never changes a result.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

__all__ = ["map_workers"]


def map_workers(func, items, workers: int) -> list:
    """``[func(item) for item in items]``, on ``workers`` threads if > 1."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, items))
    return [func(item) for item in items]
