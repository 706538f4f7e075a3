import sys
import threading
import time

import numpy as np
import pytest

from symrec.parallel import USABLE_CORES, parallel_map, pipelined, worker_limit

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


# -- pipelined ---------------------------------------------------------------


def _recording_stages(log, lock):
    """prepare and draw that log (stage, item, thread) and count the draws
    in flight."""
    in_flight = [0]

    def prepare(item):
        with lock:
            log.append(("prepare", item, threading.get_ident()))
        return item

    def draw(item):
        with lock:
            in_flight[0] += 1
            log.append(("draw", item, threading.get_ident(), in_flight[0]))
        time.sleep(0.002)
        with lock:
            in_flight[0] -= 1
        return item * item

    return prepare, draw


def test_pipelined_results_follow_item_order():
    items = list(range(300))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 64):
            with worker_limit(workers):
                got = pipelined(lambda i: i + 1, lambda p: p * p, items)
            assert got == [(i + 1) ** 2 for i in items]
    finally:
        sys.setswitchinterval(interval)


@needs_two_cores
def test_pipelined_prepares_on_the_caller_and_draws_one_at_a_time_elsewhere():
    log, lock = [], threading.Lock()
    prepare, draw = _recording_stages(log, lock)
    with worker_limit(2):
        assert pipelined(prepare, draw, range(20)) == [i * i for i in range(20)]
    caller = threading.get_ident()
    prepares = [entry for entry in log if entry[0] == "prepare"]
    draws = [entry for entry in log if entry[0] == "draw"]
    assert [entry[1] for entry in prepares] == list(range(20))
    assert {entry[2] for entry in prepares} == {caller}
    assert caller not in {entry[2] for entry in draws}
    assert max(entry[3] for entry in draws) == 1


def test_pipelined_runs_on_one_thread_under_a_limit_of_one():
    log, lock = [], threading.Lock()
    prepare, draw = _recording_stages(log, lock)
    with worker_limit(1):
        pipelined(prepare, draw, range(6))
    assert {entry[2] for entry in log} == {threading.get_ident()}
    # serial: each draw follows its own prepare
    assert [entry[:2] for entry in log] == [
        (stage, i) for i in range(6) for stage in ("prepare", "draw")
    ]


@pytest.mark.parametrize("failing", ["prepare", "draw"])
def test_pipelined_raises_only_after_the_draw_in_flight_has_ended(failing):
    ended = []

    def prepare(item):
        if failing == "prepare" and item == 3:
            raise ValueError("item 3")
        return item

    def draw(item):
        time.sleep(0.05)
        if failing == "draw" and item == 3:
            raise ValueError("item 3")
        ended.append(item)
        return item

    with worker_limit(2), pytest.raises(ValueError, match="item 3"):
        pipelined(prepare, draw, range(6))
    # the prepare of item 3 raised while item 2 was drawn; a draw of item 3
    # raised after item 4 was prepared, and item 4 was never submitted
    assert ended == [0, 1, 2]


def test_numpy_error_state_reaches_the_pipelined_draws():
    with worker_limit(2), np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            pipelined(np.float64, np.exp, [1.0, 1000.0, 2.0])
