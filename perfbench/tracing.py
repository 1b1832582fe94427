"""Spans recorded in memory around calls into orthoposet's public functions.

A span has a name, a start and an end on the perf_counter clock, the span
open when it began (its parent) and the request it belongs to.  Spans live
in flat arrays so that a search round of several hundred thousand spans
stays small; summarize() folds them into per-name totals.  Each traced
round gets a tracer of its own.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Callable, Sequence


class Tracer:
    """Records nested spans and named counters for one traced round."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.request = 0
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.requests = array("l")
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.requests.append(self.request)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(self.clock())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = self.clock()
        self._open.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        i = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(i)

    def wrap(self, name: str, fn: Callable,
             count: Callable[[Tracer, object, tuple], None] | None = None,
             ) -> Callable:
        """fn with a span around every call; count(tracer, result, args)
        runs after it, outside the span."""
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self, out, args)
            return out
        return traced

    def add(self, counter: str, k: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + k


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    count once, so the result never goes below zero.
    """
    children: list[list[int]] = [[] for _ in range(len(start))]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        s, e = start[i], end[i]
        covered = 0.0
        run_s = run_e = None
        for c in sorted(kids, key=start.__getitem__):
            cs, ce = max(start[c], s), min(end[c], e)
            if ce <= cs:
                continue
            if run_e is None or cs > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = cs, ce
            elif ce > run_e:
                run_e = ce
        if run_e is not None:
            covered += run_e - run_s
        out.append((e - s) - covered)
    return out


def summarize(tr: Tracer) -> dict:
    """Per-name inclusive and self seconds, plus the counters."""
    selfs = self_times(tr.start, tr.end, tr.parent)
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    for i, name in enumerate(tr.names):
        inclusive[name] = inclusive.get(name, 0.0) + tr.end[i] - tr.start[i]
        own[name] = own.get(name, 0.0) + selfs[i]
    return {"inclusive_s": inclusive, "self_s": own, "counts": dict(tr.counts),
            "spans": len(tr.names)}


def columns(tr: Tracer) -> dict:
    """The raw spans as JSON-ready columns, names interned in a table."""
    table = sorted(set(tr.names))
    index = {n: k for k, n in enumerate(table)}
    t0 = tr.start[0] if tr.names else 0.0
    return {
        "names": table,
        "name": [index[n] for n in tr.names],
        "start_s": [round(s - t0, 7) for s in tr.start],
        "end_s": [round(e - t0, 7) for e in tr.end],
        "parent": list(tr.parent),
        "request": list(tr.requests),
    }
