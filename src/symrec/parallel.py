"""Thread map for the independent noise streams.

Each row is a pure computation keyed by its index (its draws come from its
own counter-based stream), so results are identical for any split of the
rows.  ``parallel_map`` cuts the rows once, into one contiguous chunk per
thread, on at most one thread per usable core; ``worker_limit`` lowers that
cap for the maps inside it (the ``workers`` config key).

Each chunk runs in a copy of the caller's ``contextvars`` context, so
numpy's error state reaches the threads, and an exception a chunk raises
is re-raised in the caller.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence


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


def parallel_map(fn: Callable, rows: Sequence) -> list:
    """The outputs of ``fn`` on contiguous chunks of ``rows``, one chunk per
    thread on up to ``worker_limit`` threads, concatenated in row order:
    ``fn`` maps a chunk to one output per row.  Under one thread, all of
    ``rows`` is one chunk, run on the caller's thread."""
    threads = min(_limit.get(), USABLE_CORES, len(rows))
    if threads <= 1:
        return list(fn(rows))
    bounds = [len(rows) * k // threads for k in range(threads + 1)]
    with ThreadPoolExecutor(threads) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, fn, rows[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
    return [out for future in futures for out in future.result()]
