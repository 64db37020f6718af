"""Per-layer metrics from a traced phase: span aggregation and raw replays.

A layer's time is the summed duration of its call spans less the part of
each span that is the tracer's own (measured on a wrapped no-op).  Its
share is that time over the batch time less every span's full tracing
cost, so a share is the most that layer's speed-up can save end to end.
Raw ratios replay the first successful calls of the traced phase, in tight
untraced loops, against their plain-Python twin on the same arguments.
"""

from __future__ import annotations

import operator
import statistics
import time

import plain
from tracing import COLUMNS, FLAG_FORWARD, FLAG_REFUSED, SPAN_NAMES, Tracer

LAYERS = ("narrowing", "number", "span", "rangealg", "printfmt", "reflectlayout")
_ARITH = ("number.add", "number.sub", "number.mul", "number.div")
_ARITH_OPS = {"number.add": ("add", operator.add), "number.sub": ("sub", operator.sub),
              "number.mul": ("mul", operator.mul), "number.div": ("div", operator.truediv)}


def calibrate(rounds: int = 7, n: int = 20000) -> tuple[float, float]:
    """(inside, full) tracing cost per span, in ns, on a wrapped no-op.

    ``inside`` is the part of a span's recorded duration that is the
    tracer's; ``full`` is what wrapping adds to the caller's time.
    """
    ns = time.perf_counter_ns
    insides, fulls = [], []
    for _ in range(rounds):
        tracer = Tracer()
        noop = lambda: None  # noqa: E731
        traced = tracer.wrap("batch", noop, ())
        t0 = ns()
        for _ in range(n):
            traced()
        t1 = ns()
        for _ in range(n):
            noop()
        t2 = ns()
        fulls.append(((t1 - t0) - (t2 - t1)) / n)
        s = tracer.spans
        insides.append(statistics.median(e - b for b, e in zip(s[1::len(COLUMNS)], s[2::len(COLUMNS)])))
    return min(insides), min(fulls)


def aggregate(tracer: Tracer, inside: float, full: float) -> dict:
    """Per span name: calls, refusals, elements, corrected time (ns)."""
    w = len(COLUMNS)
    s = tracer.spans
    names, starts, ends, elements, flags = s[0::w], s[1::w], s[2::w], s[4::w], s[5::w]
    stats = {name: [0, 0, 0, 0.0] for name in SPAN_NAMES}
    stats["rangealg.sort.forward"] = [0, 0, 0, 0.0]
    batch_ns = 0
    calls = 0
    for name_id, b, e, n, f in zip(names, starts, ends, elements, flags):
        if name_id == 0:
            batch_ns += e - b
            continue
        calls += 1
        name = SPAN_NAMES[name_id]
        if f & FLAG_FORWARD:
            name = "rangealg.sort.forward"
        st = stats[name]
        st[0] += 1
        st[1] += f & FLAG_REFUSED
        st[2] += n
        st[3] += e - b - inside
    stats["batch"] = [calls, 0, 0, batch_ns - calls * full]
    return stats


def _loop_ns(fn, args, repeat: int = 15) -> int:
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        for a in args:
            fn(*a)
        t = time.perf_counter_ns() - t0
        best = t if best is None or t < best else best
    return best


def _ratio(checked_fn, checked_args, raw_fn, raw_args) -> float:
    return _loop_ns(checked_fn, checked_args) / _loop_ns(raw_fn, raw_args)


def _plain(v):
    return getattr(v, "value", v)


def _read_raw(buf, i):
    if i < 0:
        raise plain.Refused(plain.NARROW)
    if i >= len(buf):
        raise plain.Refused(plain.RANGE)
    return buf[i]


def _sort_ratio(c, samples) -> float:
    """``sort`` on fresh copies against ``list.sort`` on a copy."""
    ns = time.perf_counter_ns
    best_c = best_r = None
    for _ in range(5):
        tc = tr = 0
        for values, category in samples:
            r = c.LinkedList(values) if category is c.RangeCategory.FORWARD else c.Span(list(values))
            t0 = ns()
            c.sort(r)
            tc += ns() - t0
            copy = list(values)
            t0 = ns()
            copy.sort()
            tr += ns() - t0
        best_c = tc if best_c is None else min(best_c, tc)
        best_r = tr if best_r is None else min(best_r, tr)
    return best_c / best_r


def raw_ratios(c, samples: dict) -> dict:
    arith = [(name, a) for name in _ARITH for a in samples[name]]
    reads = samples["span.read"]
    snapshots = {id(w): list(w) for w, _ in reads}
    return {
        "narrowing.raw_ratio": _ratio(
            c.convert, samples["narrowing.convert"],
            plain.convert, [(v, t.name) for v, t in samples["narrowing.convert"]]),
        "number.arith_raw_ratio": _ratio(
            lambda f, a, b: f(a, b), [(_ARITH_OPS[n][1], a, b) for n, (a, b) in arith],
            plain.arith, [(_ARITH_OPS[n][0], a.numtype.name, a.value, b.numtype.name, b.value)
                          for n, (a, b) in arith]),
        "span.read_raw_ratio": _ratio(
            operator.getitem, reads,
            _read_raw, [(snapshots[id(w)], _plain(i)) for w, i in reads]),
        "rangealg.raw_ratio": _sort_ratio(c, samples["rangealg.sort"]),
        "printfmt.raw_ratio": _ratio(
            c.format_render, samples["printfmt.format"],
            lambda fmt, *args: fmt.format(*args),
            [tuple(_plain(a) for a in args) for args in samples["printfmt.format"]]),
    }


def metrics(stats: dict, ratios: dict, tests_run_share: float, register_us: float,
            overhead_share: float) -> dict:
    total = stats["batch"][3]

    def t(*names):
        return sum(stats[n][3] for n in names)

    def n(*names):
        return sum(stats[n][0] for n in names)

    def per(num, den):
        return num / den if den else 0.0

    by_layer = {layer: [name for name in stats if name.startswith(layer + ".")]
                for layer in LAYERS}
    out = {}
    for layer, names in by_layer.items():
        out[layer + ".calls"] = n(*names)
        out[layer + ".share"] = per(t(*names), total)
        out[layer + ".refusals"] = sum(stats[x][1] for x in names)
    construct = ("number.construct", "number.assign")
    compare = ("number.lt", "number.le", "number.eq")
    ra, fw = "rangealg.sort", "rangealg.sort.forward"
    out.update({
        "narrowing.ns_per_call": per(t("narrowing.convert"), n("narrowing.convert")),
        "narrowing.tests_run_share": tests_run_share,
        "number.construct_ns": per(t(*construct), n(*construct)),
        "number.arith_ns": per(t(*_ARITH), n(*_ARITH)),
        "number.compare_ns": per(t(*compare), n(*compare)),
        "span.construct_ns": per(t("span.construct"), n("span.construct")),
        "span.read_ns": per(t("span.read"), n("span.read")),
        "span.write_ns": per(t("span.write"), n("span.write")),
        "rangealg.random_access.sorts": n(ra),
        "rangealg.random_access.ns_per_elem": per(t(ra), stats[ra][2]),
        "rangealg.forward.sorts": n(fw),
        "rangealg.forward.ns_per_elem": per(t(fw), stats[fw][2]),
        "printfmt.ns_per_call": per(t("printfmt.format"), n("printfmt.format")),
        "reflectlayout.register_us": register_us,
        "reflectlayout.layout_of_ns": per(t("reflectlayout.layout_of"),
                                          n("reflectlayout.layout_of")),
        "trace.overhead_share": overhead_share,
    })
    out.update(ratios)
    return {name: out[name] for name in UNITS}


# name -> unit, in the order printed and listed in BENCHMARK.json
UNITS = {
    "narrowing.calls": "count", "narrowing.ns_per_call": "ns", "narrowing.share": "share",
    "narrowing.refusals": "count", "narrowing.tests_run_share": "share",
    "narrowing.raw_ratio": "x",
    "number.calls": "count", "number.construct_ns": "ns", "number.arith_ns": "ns",
    "number.compare_ns": "ns", "number.share": "share", "number.refusals": "count",
    "number.arith_raw_ratio": "x",
    "span.calls": "count", "span.construct_ns": "ns", "span.read_ns": "ns",
    "span.write_ns": "ns", "span.share": "share", "span.refusals": "count",
    "span.read_raw_ratio": "x",
    "rangealg.random_access.sorts": "count", "rangealg.random_access.ns_per_elem": "ns",
    "rangealg.forward.sorts": "count", "rangealg.forward.ns_per_elem": "ns",
    "rangealg.share": "share", "rangealg.raw_ratio": "x",
    "printfmt.calls": "count", "printfmt.ns_per_call": "ns", "printfmt.share": "share",
    "printfmt.raw_ratio": "x",
    "reflectlayout.register_us": "us", "reflectlayout.layout_of_ns": "ns",
    "reflectlayout.calls": "count", "reflectlayout.share": "share",
    "trace.overhead_share": "share",
}
