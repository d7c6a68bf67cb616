"""In-memory span recorder for the benchmark.

Spans are placed by the benchmark around its own calls into the program's
modules; nothing inside the program is instrumented.  A span's layer is the
part of its name before the first dot (``verify.numeric_jet`` -> ``verify``).
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict


class NullTracer:
    """Tracing off: every span is the same do-nothing context."""

    def span(self, name: str, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def begin_iteration(self, iteration) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "rec", "mem_peak")

    def __init__(self, tracer: "Tracer", rec: dict):
        self.tracer = tracer
        self.rec = rec
        self.mem_peak = 0

    def __enter__(self):
        tr = self.tracer
        if tr.stack:
            self.rec["parent"] = tr.stack[-1].rec["id"]
        if tr.memory:
            tr._absorb_peak()
            self.rec["mem_base"] = tracemalloc.get_traced_memory()[0]
        tr.stack.append(self)
        self.rec["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        if tr.memory:
            tr._absorb_peak(into=self)
            self.rec["peak_bytes"] = max(self.mem_peak - self.rec["mem_base"], 0)
            if tr.stack:
                parent = tr.stack[-1]
                parent.mem_peak = max(parent.mem_peak, self.mem_peak)
        if exc[0] is not None:
            self.rec["error"] = exc[0].__name__
        return False


class Tracer:
    """Records spans (name, start, end, parent, iteration id, attributes).

    With ``memory=True`` each span also records its peak traced allocation
    above the level at its start; that pass is kept apart from the timed
    passes because tracemalloc slows Python-heavy code several-fold.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self.stack: list[_Span] = []
        self.iteration = None

    def begin_iteration(self, iteration) -> None:
        self.iteration = iteration

    def span(self, name: str, **attrs) -> _Span:
        rec = {"id": len(self.spans), "name": name, "parent": None,
               "iteration": self.iteration, **attrs}
        self.spans.append(rec)
        return _Span(self, rec)

    def _absorb_peak(self, into: _Span | None = None) -> None:
        """Credit the peak since the last reset to the innermost open span."""
        peak = tracemalloc.get_traced_memory()[1]
        target = into if into is not None else (self.stack[-1] if self.stack else None)
        if target is not None:
            target.mem_peak = max(target.mem_peak, peak)
        tracemalloc.reset_peak()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time covered by its child spans.

    Spans are recorded from one thread and nest properly, so the children
    of a span never overlap and their durations add up.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [(s["end"] - s["start"]) - child[s["id"]] for s in spans]


def per_iteration(spans: list[dict], key) -> dict:
    """{iteration id: {key(span): summed self time}} for finished spans."""
    out: dict = defaultdict(lambda: defaultdict(float))
    for s, st in zip(spans, self_times(spans)):
        out[s["iteration"]][key(s)] += st
    return out

