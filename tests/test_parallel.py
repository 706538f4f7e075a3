import sys
import threading

import numpy as np
import pytest

from symrec.parallel import USABLE_CORES, parallel_map, worker_limit

needs_two_cores = pytest.mark.skipif(USABLE_CORES < 2, reason="one usable core")


def test_results_follow_item_order_under_fast_switching():
    # more items than threads, and a thread switch every few bytecodes
    items = list(range(2000))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 64):
            with worker_limit(workers):
                assert parallel_map(lambda i: i * i, items) == [i * i for i in items]
    finally:
        sys.setswitchinterval(interval)


@needs_two_cores
def test_chunks_run_on_worker_threads_up_to_the_limit():
    def thread_of(_):
        return threading.get_ident()

    with worker_limit(1):
        assert set(parallel_map(thread_of, range(8))) == {threading.get_ident()}
    with worker_limit(2):
        threads = parallel_map(thread_of, range(8))
    # two contiguous chunks, each on one worker thread
    assert threading.get_ident() not in threads
    assert len(set(threads[:4])) == len(set(threads[4:])) == 1


def test_numpy_error_state_reaches_the_worker_threads():
    with worker_limit(2), np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            parallel_map(lambda x: np.exp(np.float64(x)), [1.0, 1000.0, 2.0, 3.0])


def test_a_task_exception_is_raised_in_the_caller():
    def fail_on_three(i):
        if i == 3:
            raise ValueError("item 3")
        return i

    with worker_limit(2), pytest.raises(ValueError, match="item 3"):
        parallel_map(fail_on_three, range(6))

