"""The process's one worker thread for waits that release the GIL (the noise draw, SHA-256
digests). Calls run one at a time in the order queued: no output depends on it or the CPUs."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

_worker, _open = ThreadPoolExecutor(1), threading.local()   # its thread starts on first use
os.register_at_fork(after_in_child=lambda: globals().update(_worker=ThreadPoolExecutor(1)))


@contextmanager
def overlap():
    """A block whose ``submit`` calls run on the worker meanwhile; it ends
    when all have finished, and re-raises the first of their errors."""
    _open.futures = futures = []
    try:
        yield
    finally:
        _open.futures = None
        wait(futures)
    for f in futures:
        f.result()


def submit(fn, *args, **kwargs):
    """Queue ``fn(*args, **kwargs)`` for this thread's ``overlap()`` block, or call it now."""
    futures = getattr(_open, "futures", None)
    if futures is None:
        return fn(*args, **kwargs)
    futures.append(_worker.submit(fn, *args, **kwargs))
