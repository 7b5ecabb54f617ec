"""In-memory span tracer wrapped around cobeam's callables from outside.

Each wrapper replaces the module or class attribute that cobeam's own
code looks up at call time (for example ``cobeam.conic.ipm.NTScaling``
or ``MessageBus.post``) and records one span per call: name, start,
end, parent span and trial id.  Spans live in flat arrays until the run
ends; :class:`Patches` puts every original back on exit.
"""

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Span store plus the call stack of the trial being traced."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.attrs = {}          # span index -> value from a result hook
        self._stack = [-1]
        self._trial = None       # None: wrappers pass calls straight through

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.trial.append(self._trial)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def trial_span(self, trial):
        """Root span of one traced trial; wrappers record only inside it."""
        self._trial = trial
        idx = self._open(self.name_id("bench.trial"))
        try:
            yield idx
        finally:
            self._close(idx)
            self._trial = None

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code inside a trial."""
        idx = self._open(self.name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name, fn, hook=None):
        """Traced stand-in for ``fn``; ``hook(result, args)`` may store
        one value per span, and an exception stores its type name."""
        name_id = self.name_id(name)
        attrs = self.attrs

        def traced(*args, **kwargs):
            if self._trial is None:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                attrs[idx] = ("error", type(err).__name__)
                raise
            finally:
                self._close(idx)
            if hook is not None:
                attrs[idx] = hook(out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """(name, start, end, parent, trial) as numpy arrays."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.trial, dtype=np.int32))

    def save(self, path):
        name, start, end, parent, trial = self.arrays()
        np.savez(path, names=np.array(self.names), name=name,
                 start=start - (start.min() if start.size else 0.0),
                 end=end - (start.min() if start.size else 0.0),
                 parent=parent, trial=trial)


class Patches:
    """Installs tracer wrappers on attributes and restores the originals.

    ``plan`` holds (owner, attribute, span name, hook) rows; the owner is
    a module or a class whose own namespace defines the attribute.
    """

    def __init__(self, tracer, plan):
        self.tracer = tracer
        self.plan = plan
        self.saved = []

    def __enter__(self):
        for owner, attr, name, hook in self.plan:
            original = vars(owner)[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original, hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        return False

    def restored(self):
        """True when every patched attribute holds its original again."""
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self.saved)


def self_times(start, end, parent):
    """Duration minus the summed durations of the span's children.

    Spans open and close through one stack on one thread, so children
    nest inside their parent and never overlap each other.
    """
    dur = end - start
    child = np.flatnonzero(parent >= 0)
    return dur - np.bincount(parent[child], weights=dur[child],
                             minlength=len(dur))


def unattributed_share(start, end, parent, root):
    """Per root span, the share of its duration that no child span
    covers: time the trace does not attribute to any layer."""
    own = self_times(start, end, parent)
    return own[root] / (end[root] - start[root])


def ancestor_where(parent, idx, flag):
    """Nearest ancestor of each span in ``idx`` whose ``flag`` is set
    (-1 where none is)."""
    cur = parent[idx].copy()
    found = np.full(len(idx), -1, dtype=np.int64)
    live = cur >= 0
    while live.any():
        hit = live.copy()
        hit[live] = flag[cur[live]]
        found[hit] = cur[hit]
        live &= ~hit
        cur[live] = parent[cur[live]]
        live &= cur >= 0
    return found
