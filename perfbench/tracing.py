"""The library entry points a workload calls, plain or wrapped in spans.

A workload calls the library only through an ``Api``.  Built without a
tracer, each attribute is the library callable itself, so the untraced run
pays nothing.  Built with a ``Tracer``, each call is wrapped in a span that
records its name, start, end, parent (the batch span) and, for sorts, the
path taken and the element count.  Spans stay in memory, six int64 columns
per span, and are written out when the run ends.
"""

from __future__ import annotations

import json
import operator
import os
import time
from array import array

# Span names, by layer.  The position in this tuple is the name id.
SPAN_NAMES = (
    "batch",
    "narrowing.convert",
    "number.construct", "number.assign",
    "number.add", "number.sub", "number.mul", "number.div",
    "number.lt", "number.le", "number.eq",
    "span.construct", "span.read", "span.write",
    "rangealg.sort", "rangealg.build", "rangealg.iter",
    "printfmt.format",
    "reflectlayout.layout_of",
)
NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
COLUMNS = ("name", "start_ns", "end_ns", "parent", "elements", "flags")
FLAG_REFUSED = 1
FLAG_FORWARD = 2

# Api attribute -> (span name, library attribute or a callable of the module)
_ENTRY_POINTS = {
    "convert": ("narrowing.convert", lambda m: m.convert),
    "number": ("number.construct", lambda m: m.Number),
    "assign": ("number.assign", lambda m: m.Number.assign),
    "add": ("number.add", lambda m: operator.add),
    "sub": ("number.sub", lambda m: operator.sub),
    "mul": ("number.mul", lambda m: operator.mul),
    "div": ("number.div", lambda m: operator.truediv),
    "lt": ("number.lt", lambda m: operator.lt),
    "le": ("number.le", lambda m: operator.le),
    "eq": ("number.eq", lambda m: operator.eq),
    "span": ("span.construct", lambda m: m.Span),
    "get": ("span.read", lambda m: operator.getitem),
    "set": ("span.write", lambda m: operator.setitem),
    "sort": ("rangealg.sort", lambda m: m.sort),
    "linked": ("rangealg.build", lambda m: m.LinkedList),
    "drain": ("rangealg.iter", lambda m: list),
    "fmt": ("printfmt.format", lambda m: m.format_render),
    "layout_of": ("reflectlayout.layout_of", lambda m: m.layout_of),
}


class Tracer:
    """In-memory span store; one flat int64 array, ``len(COLUMNS)`` per span."""

    SAMPLE_CALLS = 400

    def __init__(self) -> None:
        self.spans = array("q")
        self.batch_row = -1
        # first successful calls per span name, replayed for the raw ratios
        self.samples: dict[str, list] = {}

    def begin_batch(self, batch_id: int) -> None:
        self.batch_row = len(self.spans) // len(COLUMNS)
        self.spans.extend((0, time.perf_counter_ns(), 0, -1, batch_id, 0))

    def end_batch(self) -> None:
        self.spans[self.batch_row * len(COLUMNS) + 2] = time.perf_counter_ns()

    def wrap(self, name: str, fn, refusals: tuple):
        name_id = NAME_ID[name]
        record = self.spans.extend
        ns = time.perf_counter_ns
        tracer = self
        sample = self.samples.setdefault(name, [])
        limit = self.SAMPLE_CALLS

        def traced(*args):
            t0 = ns()
            try:
                result = fn(*args)
            except refusals:
                record((name_id, t0, ns(), tracer.batch_row, 0, FLAG_REFUSED))
                raise
            t1 = ns()
            record((name_id, t0, t1, tracer.batch_row, 0, 0))
            if len(sample) < limit:
                sample.append(args)
            return result

        return traced

    def wrap_sort(self, fn, forward_path):
        """Sort wrapper that also records the path taken and element count."""
        name_id = NAME_ID["rangealg.sort"]
        record = self.spans.extend
        ns = time.perf_counter_ns
        tracer = self
        sample = self.samples.setdefault("rangealg.sort", [])
        limit = self.SAMPLE_CALLS

        def traced(r):
            if len(sample) < limit:
                sample.append((list(r), getattr(type(r), "range_category", None)))
            t0 = ns()
            report = fn(r)
            t1 = ns()
            flags = FLAG_FORWARD if report.chosen_path is forward_path else 0
            record((name_id, t0, t1, tracer.batch_row, report.element_count, flags))
            return report

        return traced

    def write(self, path: str) -> None:
        """Write the spans as native-order int64 rows plus a JSON header."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".json", "w") as f:
            json.dump({"columns": COLUMNS, "names": SPAN_NAMES,
                       "flags": {"refused": FLAG_REFUSED, "forward": FLAG_FORWARD},
                       "parent": "row of the batch span; batch spans have -1 and "
                                 "hold the batch id in elements"}, f)
        with open(path + ".bin", "wb") as f:
            self.spans.tofile(f)


class Api:
    """Library entry points for a workload, wrapped in spans when traced."""

    def __init__(self, checked, tracer: Tracer | None = None):
        refusals = (checked.NarrowError, checked.RangeError,
                    checked.CheckedOverflowError, checked.ConstraintError,
                    checked.FormatError)
        for attr, (name, get) in _ENTRY_POINTS.items():
            fn = get(checked)
            if tracer is not None:
                fn = (tracer.wrap_sort(fn, checked.SortPath.FORWARD_COPY)
                      if attr == "sort" else tracer.wrap(name, fn, refusals))
            setattr(self, attr, fn)
