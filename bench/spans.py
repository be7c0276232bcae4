"""In-memory span tracer that wraps functions at their lookup sites.

A span is the list ``[name, start, end, parent, run_id, attrs]``: ``parent``
is the index of the enclosing open span (-1 at top level) and ``attrs`` is
whatever the wrapper's extractor returned (or None).  Spans and counters stay
in memory until the caller writes them out; ``restore`` puts back every
patched attribute.  The tracer assumes one thread, so a stack of open spans
gives each new span its parent.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def timed(self, name, fn, attrs=None):
        """Wrap `fn` so every call records a span; `attrs(result, *args,
        **kwargs)` runs after the span has closed, outside its interval."""

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1,
                    self.run_id, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            if attrs is not None:
                span[5] = attrs(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn, extra=None):
        """Wrap `fn` so every call adds 1 to counter `name`, plus whatever
        `extra(*args, **kwargs)` returns as {counter: amount}."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if extra is not None:
                for key, amount in extra(*args, **kwargs).items():
                    counts[key] += amount
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Replace `owner.attr` with `make(original)` until `restore`."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, cursor = 0.0, start
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def descendants_named(spans, ancestor_names, name) -> int:
    """Number of spans called `name` that have an ancestor in
    `ancestor_names`."""
    hits = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] in ancestor_names:
                hits += 1
                break
            parent = spans[parent][3]
    return hits


def tail_percentile(n_samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it; the
    median when there are fewer than twenty samples."""
    if n_samples < 20:
        return 50
    return math.floor(100 * (n_samples - 10) / n_samples)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile; 0 for no values."""
    return float(np.percentile(values, q)) if values else 0.0
