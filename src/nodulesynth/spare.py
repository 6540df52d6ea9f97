"""The spare-core worker and its gate, shared by a request's noise draws
(:class:`~nodulesynth.eaas.BoxNoise`, submitted first, one draw ahead)
and the conv net's blocks (submitted per layer, so they queue behind
the draw).  A task is work its caller would do anyway: one not started
when needed is cancelled and done on the caller, so a busy worker costs
time but never changes a result.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# Long-lived, so calls reuse the same threads (and their malloc arenas);
# one worker per two cores (see counted_request).
_CORES = os.cpu_count() or 1
_WORKER = ThreadPoolExecutor(max_workers=max(1, _CORES // 2),
                             thread_name_prefix="nodulesynth-spare")
_requests = 0  # threads inside a counted_request block
_requests_lock = threading.Lock()


@contextmanager
def counted_request():
    """Count the calling thread as running a request (a synthesis request
    or a training step) for the block; also usable as a decorator.

    :func:`submit` hands work to the worker only while twice the number
    of running requests (one core for each, one for its worker) fits in
    ``os.cpu_count()``.  With every core busy, as in a parallel batch, a
    worker would only add thread switches: the callers do all the work.
    """
    global _requests
    with _requests_lock:
        _requests += 1
    try:
        yield
    finally:
        with _requests_lock:
            _requests -= 1


def submit(fn, *args):
    """The future of ``fn(*args)`` on the worker while a core is idle for
    it (see :func:`counted_request`), else None: nothing is submitted."""
    if 2 * max(_requests, 1) <= _CORES:
        return _WORKER.submit(fn, *args)
    return None


def settle(task):
    """Cancel ``task`` (a :func:`submit` result, or None) if it has not
    started, else wait for it and raise what it raised."""
    if task is not None and not task.cancel():
        task.result()
