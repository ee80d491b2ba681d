"""``map_workers``: N threads in all, the calling one among them; results in
item order; the first failure stops the work and every thread is joined."""

import threading
import time

import pytest

from mfvdm.parallel import map_workers

# Long enough that a wait only times out on a broken loop, not a slow host.
TIMEOUT_S = 10.0


class _Probe:
    """An item function that records which thread ran each item and how
    many threads were alive while it ran."""

    def __init__(self, parties: int):
        self.barrier = threading.Barrier(parties, timeout=TIMEOUT_S)
        self.lock = threading.Lock()
        self.threads = set()
        self.most_alive = 0

    def __call__(self, item):
        with self.lock:
            self.threads.add(threading.get_ident())
            self.most_alive = max(self.most_alive, threading.active_count())
        # No thread takes a second item until `parties` threads hold one.
        self.barrier.wait()
        return item


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_n_threads_run_the_items_and_the_caller_is_one(workers):
    before = threading.active_count()
    probe = _Probe(workers)
    items = list(range(2 * workers))
    assert map_workers(probe, items, workers) == items
    assert len(probe.threads) == workers
    assert threading.get_ident() in probe.threads
    assert probe.most_alive <= before + workers - 1
    assert threading.active_count() == before


@pytest.mark.parametrize("workers, count", [(3, 2), (8, 3), (4, 1)])
def test_fewer_items_than_workers_run_on_as_many_threads(workers, count):
    before = threading.active_count()
    probe = _Probe(count)
    assert map_workers(probe, range(count), workers) == list(range(count))
    assert len(probe.threads) == count
    assert threading.get_ident() in probe.threads
    assert probe.most_alive <= before + count - 1


def test_one_worker_runs_inline():
    seen = []
    assert map_workers(lambda x: seen.append(threading.get_ident()) or x,
                       range(5), 1) == [0, 1, 2, 3, 4]
    assert set(seen) == {threading.get_ident()}


def test_no_items_give_no_results():
    assert map_workers(lambda x: 1 / 0, [], 3) == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_back_in_item_order(workers):
    def slow_first(item):
        # Early items finish last, so completion order is not item order.
        time.sleep(0.002 * (20 - item))
        return item * item

    assert map_workers(slow_first, range(20), workers) == [
        item * item for item in range(20)]


def test_the_lowest_failing_item_is_raised():
    """Item 2 raises first, then item 0; item 0's exception propagates."""
    raised = threading.Event()

    def func(item):
        if item == 2:
            raised.set()
            raise ValueError("item 2")
        if item == 0:
            assert raised.wait(TIMEOUT_S)
            raise KeyError("item 0")
        return item

    with pytest.raises(KeyError, match="item 0"):
        map_workers(func, range(3), 3)


@pytest.mark.parametrize("workers", [2, 3])
def test_no_item_starts_after_a_failure(workers):
    """Item 0 raises at once; the items already taken finish well after
    that, and no other item starts."""
    before = threading.active_count()
    raised = threading.Event()
    lock = threading.Lock()
    started = set()
    threads = set()

    def func(item):
        with lock:
            started.add(item)
            threads.add(threading.current_thread())
        if item == 0:
            raised.set()
            raise RuntimeError("boom")
        assert raised.wait(TIMEOUT_S)
        time.sleep(0.05)
        return item

    with pytest.raises(RuntimeError, match="boom"):
        map_workers(func, range(40), workers)
    # Item 0 is taken first; the others taken before it failed, if any,
    # are the next ones in order.
    assert 0 in started and started <= set(range(workers))
    assert [t for t in threads if t is not threading.current_thread()
            and t.is_alive()] == []
    assert threading.active_count() == before


def test_a_failure_on_a_helper_thread_joins_every_thread():
    """The caller's own item is still running when another thread's item
    fails; the call returns only after every thread it started is done."""
    before = threading.active_count()
    caller = threading.current_thread()
    lock = threading.Lock()
    threads = set()
    caller_started = threading.Event()
    caller_done = threading.Event()

    def func(item):
        with lock:
            threads.add(threading.current_thread())
        if threading.current_thread() is caller:
            caller_started.set()
            time.sleep(0.05)
            caller_done.set()
            return item
        # Each helper holds its item until the caller holds one too.
        assert caller_started.wait(TIMEOUT_S)
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        map_workers(func, range(6), 4)
    assert caller_done.is_set()
    assert not any(t.is_alive() for t in threads if t is not caller)
    assert threading.active_count() == before
