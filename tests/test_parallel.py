import sys
import threading

import numpy as np
import pytest

from symrec.parallel import USABLE_CORES, parallel_map, worker_limit

needs_two_cores = pytest.mark.skipif(USABLE_CORES < 2, reason="one usable core")


def _squares(chunk):
    return [i * i for i in chunk]


def test_results_follow_item_order_under_fast_switching():
    # more rows than threads, and a thread switch every few bytecodes
    items = list(range(2000))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 64):
            with worker_limit(workers):
                assert parallel_map(_squares, items) == [i * i for i in items]
                assert parallel_map(_squares, np.arange(2000)) == [i * i for i in items]
    finally:
        sys.setswitchinterval(interval)


def _chunks_seen(rows):
    """(thread, chunk) of every call parallel_map makes."""
    calls = []

    def record(chunk):
        calls.append((threading.get_ident(), list(chunk)))
        return list(chunk)

    assert parallel_map(record, rows) == list(rows)
    return sorted(calls, key=lambda call: call[1][0])


@needs_two_cores
def test_chunks_run_on_worker_threads_up_to_the_limit():
    # one chunk of all the rows on the caller's thread under one worker
    with worker_limit(1):
        assert _chunks_seen(range(8)) == [(threading.get_ident(), list(range(8)))]
    # two contiguous chunks, each on its own worker thread
    with worker_limit(2):
        calls = _chunks_seen(range(8))
    assert [chunk for _, chunk in calls] == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert threading.get_ident() not in {thread for thread, _ in calls}
    # never more chunks than usable cores, or than rows
    with worker_limit(64):
        assert len(_chunks_seen(range(1000))) == USABLE_CORES
        assert len(_chunks_seen(range(1))) == 1


def test_numpy_error_state_reaches_the_worker_threads():
    with worker_limit(2), np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            parallel_map(
                lambda chunk: [np.exp(np.float64(x)) for x in chunk], [1.0, 2.0, 3.0, 1000.0]
            )


def test_a_task_exception_is_raised_in_the_caller():
    def fail_on_three(chunk):
        if 3 in chunk:
            raise ValueError("item 3")
        return list(chunk)

    with worker_limit(2), pytest.raises(ValueError, match="item 3"):
        parallel_map(fail_on_three, range(6))
