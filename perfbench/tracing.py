"""Spans recorded from outside the library.

A traced run replaces names that nodulesynth modules look up at call
time (``nodulesynth.eaas.crop``, ``nodulesynth.solver.q_sample``, an
instance's ``loss_and_grads``, ...) with timing wrappers and puts the
originals back afterwards, so no library source changes.  Spans are
kept in memory and written out when the run ends.
"""

import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict, namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "id name start end parent request ok")


class Tracer:
    """In-memory span store with a per-thread stack of open spans.

    A span inherits the request id of its parent; a root span takes its
    request id from the ``request_of`` function given to :meth:`wrap`.
    """

    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, request_of=None):
        """Return ``fn`` wrapped so that every call records a span."""
        def traced(*args, **kwargs):
            stack = self._stack()
            parent, request = stack[-1] if stack else (None, None)
            if request_of is not None:
                request = request_of(*args, **kwargs)
            sid = next(self._ids)
            stack.append((sid, request))
            ok = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent,
                                       request, ok))
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(owner, attr, span_name, request_of)`` targets for the
        duration of the block.

        A target the owner no longer has is recorded in ``absent`` and
        skipped, so a later library change that drops a name does not
        break the traced run.
        """
        saved = []
        try:
            for owner, attr, name, request_of in targets:
                if not hasattr(owner, attr):
                    self.absent.append(name)
                    continue
                original = getattr(owner, attr)
                saved.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, self.wrap(original, name, request_of))
            yield self
        finally:
            for owner, attr, original, owned in reversed(saved):
                if owned:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def write(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp._asdict()) + "\n")


def per_request(spans, root_name):
    """Per-request span summaries, keyed by request id, for requests
    with exactly one ``root_name`` span.

    Each summary holds the root span, the durations of the spans of
    each name (with their span ids), how many of them returned without
    raising, and the summed duration of each span's direct children.
    """
    by_request = defaultdict(list)
    for sp in spans:
        by_request[sp.request].append(sp)
    out = {}
    for request, group in by_request.items():
        roots = [sp for sp in group if sp.name == root_name]
        if len(roots) != 1:
            continue
        by_name, ok, children = defaultdict(list), Counter(), defaultdict(float)
        for sp in group:
            by_name[sp.name].append((sp.id, sp.end - sp.start))
            ok[sp.name] += sp.ok
            if sp.parent is not None:
                children[sp.parent] += sp.end - sp.start
        out[request] = RequestSpans(roots[0], by_name, ok, children)
    return out


class RequestSpans(namedtuple("RequestSpans", "root by_name ok children")):
    """Span summary of one request (see :func:`per_request`)."""

    def total(self, name):
        return sum(dur for _, dur in self.by_name.get(name, ()))

    def count(self, name):
        return len(self.by_name.get(name, ()))

    def self_time(self, name):
        """Summed duration of the ``name`` spans minus their direct
        children."""
        return sum(dur - self.children[sid]
                   for sid, dur in self.by_name.get(name, ()))


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0
