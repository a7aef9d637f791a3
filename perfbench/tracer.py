"""In-memory span recording around trajloc's public functions.

The wrappers are installed from outside the program: every trajloc module
namespace that bound a wrapped function (``from .model import
trajectory_steering_matrix`` in ``optim``, ``gridalgos`` and ``gridless``, for
example) gets the wrapper in its place, so calls through any binding are
recorded. Spans are kept in flat arrays while the benchmark runs and written
out when it ends.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans in creation order: a span's parent always has a smaller id."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.trial = array("q")
        self.trial_id = -1  # identifier shared by the spans of one trial
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as span ``name``; ``observe(tracer, args, kwargs,
        result)`` runs after the span closes."""
        name_id = len(self.names)
        self.names.append(name)
        start, end, parent, names, trial = self.start, self.end, self.parent, self.name, self.trial
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(start)
            start.append(0)
            end.append(0)
            parent.append(stack[-1])
            names.append(name_id)
            trial.append(self.trial_id)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return span

    def arrays(self):
        """(start, end, parent, name) as int64 numpy arrays."""
        return tuple(np.frombuffer(a, dtype=np.int64) for a in (self.start, self.end, self.parent, self.name))

    def write_csv(self, path: str):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["span", "parent", "trial", "name", "start_ns", "end_ns"])
            for i in range(len(self.start)):
                out.writerow(
                    [i, self.parent[i], self.trial[i], self.names[self.name[i]], self.start[i], self.end[i]]
                )


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one parent run one after another inside it (one thread), so
    their durations are the part of the parent's interval they cover.
    """
    start, end, parent = (np.asarray(a, dtype=np.int64) for a in (start, end, parent))
    dur = end - start
    covered = np.zeros(len(dur), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def inside(parent, name, ancestor_id: int) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor_id`` among their
    ancestors."""
    n = len(parent)
    mask = np.zeros(n, dtype=bool)
    is_anc = np.asarray(name) == ancestor_id
    for i in range(n):
        p = parent[i]
        if p >= 0:
            mask[i] = is_anc[p] or mask[p]
    return mask


@contextmanager
def bound_everywhere(package: str, targets):
    """Replace functions in every loaded ``package`` module that bound them.

    ``targets`` maps an original function to its replacement. Every module
    namespace whose attribute *is* the original gets the replacement;
    everything is restored on exit. An original that no namespace binds
    raises, so a rename fails loudly.
    """
    modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
    undo = []
    try:
        for orig, repl in targets.items():
            hits = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, repl)
                        undo.append((mod, attr, orig))
                        hits += 1
            if not hits:
                raise LookupError(f"{orig.__module__}.{orig.__qualname__} is bound nowhere in {package}")
        yield
    finally:
        for mod, attr, orig in reversed(undo):
            setattr(mod, attr, orig)
