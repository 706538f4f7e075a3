"""Thread map for the independent noise streams.

Each item is a pure computation keyed by its index (its draws come from
its own counter-based stream), so results are identical for any thread
count; they are returned in item order.  A map runs on at most one thread
per usable core; ``worker_limit`` lowers that cap for the maps inside it
(the ``workers`` config key).

Each contiguous chunk of items runs in a copy of the caller's
``contextvars`` context, so numpy's error state reaches the threads, and
an exception a chunk raises is re-raised in the caller.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable


try:  # the cores this process may run on
    USABLE_CORES = len(os.sched_getaffinity(0))
except AttributeError:  # platforms without sched_getaffinity
    USABLE_CORES = os.cpu_count() or 1
_limit = contextvars.ContextVar("symrec_worker_limit", default=USABLE_CORES)


@contextlib.contextmanager
def worker_limit(workers: int):
    """Cap the threads of every ``parallel_map`` inside the block."""
    token = _limit.set(workers)
    try:
        yield
    finally:
        _limit.reset(token)


def _run_chunk(fn: Callable, chunk: list) -> list:
    return [fn(item) for item in chunk]


def parallel_map(fn: Callable, items: Iterable) -> list:
    """[fn(item) for item in items], on up to ``worker_limit`` threads."""
    items = list(items)
    threads = min(_limit.get(), USABLE_CORES, len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    bounds = [len(items) * k // threads for k in range(threads + 1)]
    with ThreadPoolExecutor(threads) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, _run_chunk, fn, items[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
    return [out for future in futures for out in future.result()]

