"""The package's one parallel loop: ``workers`` threads over a work list.

``--workers`` is the whole thread budget, the calling thread included: it
works through the items beside ``workers - 1`` plain threads.  So
``--workers 2`` runs two threads, not an idle caller beside two pool threads
that each allocate from a malloc arena of their own.  BLAS runs one thread
(see ``mfvdm/__init__.py``).  Every caller makes each item's result
independent of the thread that computes it, so the worker count never
changes a result.
"""

from __future__ import annotations

import threading

__all__ = ["map_workers"]


def map_workers(func, items, workers: int) -> list:
    """``[func(item) for item in items]``, on ``min(workers, len(items))``
    threads, the calling one included; one thread runs inline.

    The threads take items in order from one shared iterator.  Once an item
    raises, no item starts; every thread is joined, and the exception of
    the lowest failing item is raised."""
    items = list(items)
    count = min(workers, len(items))
    results = [None] * len(items)
    failures = {}
    todo = enumerate(items)
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                if failures:
                    return
                index, item = next(todo, (None, None))
            if index is None:
                return
            try:
                results[index] = func(item)
            except BaseException as exc:
                with lock:
                    failures[index] = exc
                return

    helpers = [threading.Thread(target=work) for _ in range(count - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results
