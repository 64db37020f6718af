"""Command-line front end: demos, checks, the narrowing table, benchmarks.

Verbs:

* ``narrow check FROM TO VALUE``: classify and attempt one conversion.
* ``narrow table``: the full can-narrow matrix for the supported types.
* ``bench SCENARIO --iters N [--repeat K] [--json PATH]``: CSV timing of a
  checked path against its raw baseline (``all`` runs every scenario); each
  row is the fastest of K rounds, each round timing the statement and then
  its baseline, and ``--json`` also writes the medians and the median of
  the per-round ratios.
* ``bench diff OLD.json NEW.json``: CSV of each scenario's ratio in two
  ``--json`` reports, the relative change of its fastest loop, and both
  ``ratio_median`` readings (``n/a`` in a report that has none); a
  scenario missing from either file is marked.  It only reports.
* ``bench diff --src OLD_SRC SCENARIO... [--iters N] [--repeat K]``: time
  each scenario's statement under this package and under the ``checked``
  package in ``OLD_SRC`` (imported in the same process under another name),
  in K rounds that alternate which tree runs first; CSV of the median
  new/old ratio of the rounds, its quartiles, and the rounds the new tree
  won.
* ``demo WHICH``: run a scripted transcript against its recorded
  expectations.
* ``layout NAME``: print a registered record's member descriptors.

Exit status: 0 on success, 1 when a contract violation was demonstrated
(a failed conversion, a demo deviation), 2 for usage errors.  All output is
plain UTF-8 text; bench output is CSV with a fixed header.  Commands are
single-threaded.  Bench times each statement with ``timeit`` on whatever core
the host gives us: the set-up runs once, outside the timed loop, and the
collector is paused while timing.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import platform
import statistics
import struct
import sys
import timeit
from pathlib import Path
from typing import NamedTuple, Optional

from .narrowing import (
    F32,
    F64,
    I16,
    I32,
    U16,
    ConstraintError,
    NarrowError,
    Number,
    NumericKind,
    NumType,
    can_narrow,
    convert,
    convert_to,
    narrow_checker,
    numeric_type,
    supported_types,
    will_narrow,
)
from .printfmt import format_render, render
from .demos import DEMO_NAMES, run_demo
from .rangealg import LinkedList, RangeError, Span, sort
from .reflectlayout import (
    _RECORDS,
    PRIMITIVE_LAYOUTS,
    layout_of,
    record_size,
    register_record,
    registered_record_names,
)

__all__ = ["main", "run_bench", "BenchRecord", "BENCH_SCENARIOS"]

BENCH_CSV_HEADER = "scenario,iters,ns_per_op,baseline_ns_per_op"


class BenchRecord(NamedTuple):
    """One timing row: the measured path and its raw baseline."""

    scenario: str
    iters: int
    ns_per_op: float
    baseline_ns_per_op: float


def _usage_error(message: str) -> int:
    print(format_render("error: {}", message), file=sys.stderr)
    return 2


# --- narrow ------------------------------------------------------------------

def _parse_value(text: str, t: NumType):
    """Parse ``text`` as a value of ``t``, by ``convert_to``'s source rule."""
    floating = t.kind is NumericKind.FLOAT
    value = float(text) if floating else int(text, 10)
    try:
        return convert_to(value, t, t)
    except NarrowError:
        problem = f"is not an exact {t.name} value" if floating else f"is outside the {t.name} range"
        raise ValueError(f"{text} {problem}") from None


def cmd_narrow_check(from_type: str, to_type: str, value_text: str) -> int:
    try:
        src = numeric_type(from_type)
        dst = numeric_type(to_type)
    except ConstraintError as exc:
        return _usage_error(str(exc))
    try:
        value = _parse_value(value_text, src)
    except ValueError as exc:
        return _usage_error(str(exc))
    classification = can_narrow(src, dst)
    narrows = will_narrow(value, src, dst)
    try:
        converted = render(convert_to(value, src, dst))
        status = 0
    except NarrowError:
        converted = "ERROR"
        status = 1
    print(format_render(
        "can_narrow={} will_narrow={} convert={}",
        str(classification).lower(),
        str(narrows).lower(),
        converted,
    ))
    return status


def cmd_narrow_table() -> int:
    types = supported_types()
    width = max(len(t.name) for t in types) + 1
    header = " " * width + "".join(t.name.rjust(width) for t in types)
    print(header)
    for src in types:
        cells = "".join(
            ("Y" if can_narrow(src, dst) else "N").rjust(width) for dst in types
        )
        print(src.name.ljust(width) + cells)
    return 0


# --- bench -------------------------------------------------------------------

_ROW = "{} key={} count={} delta={} price={} weight={} sum_count={} sum_delta={} sum_price={}"
_ROW_ARGS = (17, 4242, 9, -3, 1.25, 0.5, 118, -41, 96.75)
_INLINE_U16_TEST = "if not 0 <= v <= 65535:\n    raise NarrowError(v, I32, U16)\nx = v"
_INLINE_BOUNDS = "if not 0 <= lo <= hi <= len(data):\n    raise RangeError(hi, len(data))\nx = (data, lo, hi - lo)"
_F32_STRUCT = struct.Struct("<f")
_INLINE_F32_TEST = "if _F32_STRUCT.unpack(_F32_STRUCT.pack(v))[0] != v:\n    raise NarrowError(v, F64, F32)\nx = v"
_RECORD_FIELDS = (("flag", "i8"), ("count", "u16"), ("tag", "i8"), ("ratio", "f64"), ("scale", "f32"))
_PLAIN_OFFSETS = (
    "layout, offset, alignment = [], 0, 1\n"
    "for field, primitive in _RECORD_FIELDS:\n"
    "    size, align = PRIMITIVE_LAYOUTS[primitive]\n"
    "    offset = (offset + align - 1) // align * align\n"
    "    layout.append((field, offset, size))\n"
    "    offset += size\n"
    "    alignment = max(alignment, align)\n"
    "x = (layout, (offset + alignment - 1) // alignment * alignment)"
)

_RANDOM_BYTES = "import random\nrng = random.Random({0})\ndata = [rng.randrange(256) for _ in range({0})]"
_RANDOM_BYTES_LIST = _RANDOM_BYTES.format(4096)

# Per scenario: the set-up, the measured statement and the baseline statement
# (None: the measured time is its own baseline), run in this module's globals.
# The span data is 64 distinct values in a fixed scrambled order (37 is
# coprime to 64).
_BENCHES: dict[str, tuple[str, str, Optional[str]]] = {
    # The staged pattern: the set-up classifies the pair once.  A pair that
    # can never narrow has no checker, so the per-value work is the
    # assignment itself.
    "convert-same": (
        "if narrow_checker(I32, I32) is not None:\n"
        "    raise RuntimeError('i32 -> i32 has a per-value test')\n"
        "v = 123",
        "x = v",
        "x = v",
    ),
    # 123 is in range, so the test runs and passes every time.
    "convert-narrowable": (
        "chk = narrow_checker(I32, I16)\nv = 123",
        "if chk(v):\n    raise NarrowError(v, I32, I16)\nx = v",
        "x = v",
    ),
    "number-arith": ("a, b = Number(3), Number(4)\np, q = 3, 4", "x = a + b", "x = p + q"),
    # A bare operand is checked into a Number(v) on every operation.
    "number-arith-bare": ("a = Number(3)\np, q = 3, 4", "x = a + 4", "x = p + q"),
    "raw-arith": ("p, q = 3, 4", "x = p + q", None),
    "span-index": (
        "data = [(i * 37) % 64 for i in range(64)]\ns = Span(list(data))",
        "x = s[41]",
        "x = data[41]",
    ),
    "span-sort": ("data = [(i * 37) % 64 for i in range(64)]", "sort(Span(list(data)))", "list(data).sort()"),
    "convert-checked": ("v = 123", "x = convert(v, U16)", _INLINE_U16_TEST),
    "format-render": ("", "format_render(_ROW, *_ROW_ARGS)", "_ROW.format(*_ROW_ARGS)"),
    "number-construct": ("v = 123", "x = Number(v, U16)", _INLINE_U16_TEST),
    "number-compare": ("a, b = Number(3), Number(4)\np, q = 3, 4", "x = a < b", "x = p < q"),
    "span-write": (
        "data = [(i * 37) % 64 for i in range(64)]\ns = Span(list(data))",
        "s[41] = 7",
        "data[41] = 7",
    ),
    # The forward sort of a window, as a LinkedList copy of a Span.
    "sort-forward": (
        "data = [(i * 37) % 64 for i in range(64)]",
        "sort(LinkedList(Span(data)))",
        "sorted(data)",
    ),
    # 0.15625 is exact in f32, so the round trip runs and the value passes.
    "convert-f32": ("v = 0.15625", "x = convert(v, F32)", _INLINE_F32_TEST),
    # A registered name, against the lookup of a layout already in hand.
    "layout-of": ("layouts = {'X': layout_of('X')}", "x = layout_of('X')", "x = layouts['X']"),
    # A (lo, hi) window, against the inline bounds test and the view tuple.
    "span-bounds": (
        "data = [(i * 37) % 64 for i in range(64)]\nlo, hi = 3, 40",
        "x = Span(data, lo, hi)",
        _INLINE_BOUNDS,
    ),
    # 123 is an i32 value and in i16's range: the source check and the pair's
    # converter both run and pass.
    "convert-to": (
        "v = 123",
        "x = convert_to(v, I32, I16)",
        "if not -32768 <= v <= 32767:\n    raise NarrowError(v, I32, I16)\nx = v",
    ),
    # 0.1 is not exact in f32, so both sides round it.
    "cast-f32": ("v = 0.1", "x = F32.cast(v)", "x = _F32_STRUCT.unpack(_F32_STRUCT.pack(v))[0]"),
    "span-iter": (
        "data = [(i * 37) % 64 for i in range(64)]\ns = Span(data)",
        "x = sum(s)",
        "x = sum(data)",
    ),
    # A (lo, hi) window of a Span, as `views` builds one in every five tasks.
    "span-nested": (
        "data = [(i * 37) % 64 for i in range(64)]\ns = Span(data)\nlo, hi = 3, 40",
        "x = Span(s, lo, hi)",
        _INLINE_BOUNDS,
    ),
    # A 5-field record with interior padding, dropped again so that every
    # round registers it afresh, against the same offsets in a plain loop.
    "record-register": (
        "",
        "register_record('BenchRecord', _RECORD_FIELDS)\ndel _RECORDS['BenchRecord']",
        _PLAIN_OFFSETS,
    ),
    # 70000 is outside u16, so every call raises NarrowError and catches it,
    # against the inline u16 test raising and catching a ValueError.
    "convert-refused": (
        "v = 70000\nif not will_narrow(v, I32, U16):\n    raise RuntimeError('70000 fits u16')",
        "try:\n    convert(v, U16)\nexcept NarrowError:\n    pass",
        "try:\n    if not 0 <= v <= 65535:\n        raise ValueError(v)\nexcept ValueError:\n    pass",
    ),
    # 4096 bytes, each value 16 times in a scrambled order (37 is coprime to
    # 256): the in-place sort counts the window of u8 elements.
    "sort-bytes": (
        "data = bytes((i * 37) % 256 for i in range(4096))",
        "sort(Span(bytearray(data)))",
        "sorted(data)",
    ),
    # 4096 seeded random values in range(256), as `views` draws a window's:
    # `bytes` of the list and one marshal dump prove it exact ints, then it is counted.
    "sort-ints": (_RANDOM_BYTES_LIST, "sort(Span(list(data)))", "sorted(data)"),
    # The same list ending in 256: `bytes` of it stops at that last element,
    # after a pass over the whole window, and the comparison sort runs.
    "sort-wide": (_RANDOM_BYTES_LIST + "\ndata[-1] = 256", "sort(Span(list(data)))", "sorted(data)"),
    # The same values in an array('i'), as `views` sorts one window in five:
    # its type proves exact ints, it is counted and packed from raw 'i' items.
    "sort-array": (_RANDOM_BYTES_LIST + "\nfrom array import array", "sort(Span(array('i', data)))", "sorted(data)"),
    # The same values in a memoryview of a bytearray: its format proves u8 elements, counted and
    # written back in one slice of raw items cast to the view's format.
    "sort-view": (_RANDOM_BYTES_LIST, "sort(Span(memoryview(bytearray(data))))", "sorted(data)"),
    # The same list as a LinkedList, as `views` sorts every forward task: its
    # copy is proved by `bytes` of it and one marshal dump, counted and written back.
    "sort-linked": (_RANDOM_BYTES_LIST, "sort(LinkedList(data))", "sorted(data)"),
    # 600 seeded random values in range(256) in an array('i'): under the counting threshold, so the
    # window is compared and packed back from raw 'i' items by ``struct``.
    "sort-array-compared": (_RANDOM_BYTES.format(600) + "\nfrom array import array",
                            "sort(Span(array('i', data)))", "sorted(data)"),
    # i32 + f32: the i32 operand is converted into f32 and the sum rounded into f32.
    "number-arith-f32": ("a, b = Number(3, I32), Number(0.5, F32)\np, q = 3, 0.5", "x = a + b", "x = p + q"),
}

BENCH_SCENARIOS = tuple(_BENCHES)


def _bench_times(scenario: str, iters: int, repeat: int) -> tuple[list[float], list[float]]:
    """ns per operation of the measured and the baseline statement, one per
    round; each round times the statement, then its baseline, so a spell of
    host load falls on both."""
    if iters <= 0 or repeat <= 0:
        raise ValueError("iters and repeat must be positive")
    setup, statement, baseline = _BENCHES[scenario]
    timers = [timeit.Timer(stmt, setup, globals=globals())
              for stmt in (statement, baseline) if stmt is not None]
    rounds = [[timer.timeit(iters) * 1e9 / iters for timer in timers] for _ in range(repeat)]
    return [ns[0] for ns in rounds], [ns[-1] for ns in rounds]


def run_bench(scenario: str, iters: int) -> BenchRecord:
    """Time one scenario and its baseline; usable directly from tests."""
    (measured,), (baseline,) = _bench_times(scenario, iters, 1)
    return BenchRecord(scenario, iters, measured, baseline)


def _source_commit() -> Optional[str]:
    """The commit checked out where this package's source lives, if readable:
    a detached ``HEAD``, else its branch's loose ref, else the branch's line
    in ``packed-refs`` (where ``git pack-refs`` and ``git gc`` move it)."""
    git = Path(__file__).resolve().parents[2] / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        try:
            return (git / head[5:]).read_text(encoding="ascii").strip()
        except FileNotFoundError:
            packed = (git / "packed-refs").read_text(encoding="ascii").splitlines()
            return next((line.split()[0] for line in packed if line.split()[1:] == [head[5:]]), None)
    except (OSError, UnicodeDecodeError):
        return None


def cmd_bench(scenario: str, iters: int, repeat: int, json_path: Optional[str]) -> int:
    print(BENCH_CSV_HEADER)
    results = {}
    for name in BENCH_SCENARIOS if scenario == "all" else (scenario,):
        measured, baseline = _bench_times(name, iters, repeat)
        print(format_render("{},{},{},{}", name, iters, f"{min(measured):.3f}", f"{min(baseline):.3f}"))
        results[name] = {
            "iters": iters, "repeat": repeat,
            "ns_min": min(measured), "ns_median": statistics.median(measured),
            "baseline_ns_min": min(baseline), "baseline_ns_median": statistics.median(baseline),
            "ratio": min(measured) / min(baseline),
            "ratio_median": statistics.median(m / b for m, b in zip(measured, baseline)),
        }
    if json_path is not None:
        report = {"python": platform.python_version(), "platform": platform.platform(),
                  "commit": _source_commit(), "scenarios": results}
        try:
            with open(json_path, "w", encoding="utf-8") as out:
                json.dump(report, out, indent=2)
                out.write("\n")
        except OSError as exc:
            return _usage_error(f"cannot write {json_path}: {exc.strerror}")
    return 0


BENCH_DIFF_CSV_HEADER = "scenario,old_ratio,new_ratio,ns_min_change,old_ratio_median,new_ratio_median"


def _read_bench_json(path: str) -> dict:
    """``{scenario: (ratio, ns_min, ratio_median or None)}`` from a ``bench
    --json`` report; a file that cannot be read or does not have that shape
    raises ``ValueError``."""
    try:
        with open(path, encoding="utf-8") as report:
            scenarios = json.load(report)["scenarios"]
        rows = {name: (float(row["ratio"]), float(row["ns_min"]),
                       float(row["ratio_median"]) if "ratio_median" in row else None)
                for name, row in scenarios.items()}
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        detail = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path} is not a bench --json report: {detail}") from None
    return rows


def cmd_bench_diff(old_path: str, new_path: str) -> int:
    try:
        old, new = _read_bench_json(old_path), _read_bench_json(new_path)
    except ValueError as exc:
        return _usage_error(str(exc))
    print(BENCH_DIFF_CSV_HEADER)
    for name in {**old, **new}:
        rows = (old.get(name), new.get(name))
        ratios = ["missing" if row is None else f"{row[0]:.3f}" for row in rows]
        medians = ["missing" if row is None else "n/a" if row[2] is None else f"{row[2]:.3f}"
                   for row in rows]
        both = None not in rows and old[name][1] > 0
        change = f"{new[name][1] / old[name][1] - 1:+.1%}" if both else "n/a"
        print(format_render("{},{},{},{},{},{}", name, *ratios, change, *medians))
    return 0


BENCH_SRC_DIFF_CSV_HEADER = "scenario,iters,rounds,ratio_median,ratio_q1,ratio_q3,rounds_won"
_OLD_TREE = "_checked_old"  # the package name the other tree is imported under


def _load_tree(src: str) -> dict:
    """The globals of the ``cli`` module of the ``checked`` package in the directory ``src``,
    imported afresh under ``_OLD_TREE``: the names each bench statement binds, from that tree."""
    package = Path(src) / "checked"
    if not (package / "__init__.py").is_file():
        raise ValueError(f"no checked package in {src}")
    for name in [name for name in sys.modules if name.partition(".")[0] == _OLD_TREE]:
        del sys.modules[name]
    spec = importlib.util.spec_from_file_location(_OLD_TREE, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = sys.modules[_OLD_TREE] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return vars(importlib.import_module(f"{_OLD_TREE}.cli"))


def _paired_ratios(scenario: str, iters: int, repeat: int, old: dict) -> list[float]:
    """New over old ns of ``scenario``'s statement, one per round; the tree that runs first
    alternates, so a drift of the host's speed falls on both alike."""
    setup, statement, _ = _BENCHES[scenario]
    timers = [timeit.Timer(statement, setup, globals=space) for space in (globals(), old)]
    ratios = []
    for k in range(repeat):
        ns = {tree: timers[tree].timeit(iters) for tree in ((0, 1), (1, 0))[k % 2]}
        ratios.append(ns[0] / ns[1])
    return ratios


def cmd_bench_diff_src(src: str, scenarios: list[str], iters: int, repeat: int) -> int:
    try:
        old = _load_tree(src)
    except (ValueError, ImportError) as exc:
        return _usage_error(str(exc))
    print(BENCH_SRC_DIFF_CSV_HEADER)
    for name in scenarios:
        try:
            ratios = _paired_ratios(name, iters, repeat, old)
        except NameError as exc:  # this tree's statement names what the other tree's cli lacks
            return _usage_error(f"{name} does not run on the tree in {src}: {exc}")
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if repeat > 1 else ratios * 3
        won = sum(ratio < 1 for ratio in ratios)
        print(format_render("{},{},{},{},{},{},{}", name, iters, repeat,
                            f"{median:.3f}", f"{q1:.3f}", f"{q3:.3f}", won))
    return 0


# --- demo and layout ---------------------------------------------------------

def cmd_demo(which: str) -> int:
    names = DEMO_NAMES if which == "all" else (which,)
    failures = 0
    for name in names:
        print(format_render("== demo {} ==", name))
        for result in run_demo(name):
            if result.ok:
                print(format_render("ok   {}: {}", result.label, result.actual))
            else:
                failures += 1
                print(format_render(
                    "FAIL {}: got {} expected {}",
                    result.label, result.actual, result.expected,
                ))
    return 0 if failures == 0 else 1


def cmd_layout(name: str) -> int:
    if name not in registered_record_names():
        return _usage_error(f"unknown record type {name!r}")
    print(format_render("record {} size={}", name, record_size(name)))
    for descriptor in layout_of(name):
        print(format_render(
            "{} offset={} size={}",
            descriptor.name, descriptor.offset, descriptor.size,
        ))
    return 0


# --- argument parsing --------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="checked",
        description="Demonstrate and measure the checked-types library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    narrow = sub.add_parser("narrow", help="narrowing classification and conversion")
    narrow_sub = narrow.add_subparsers(dest="narrow_command", required=True)
    check = narrow_sub.add_parser("check", help="classify and convert one value")
    check.add_argument("from_type")
    check.add_argument("to_type")
    check.add_argument("value")
    narrow_sub.add_parser("table", help="print the can-narrow matrix")

    bench = sub.add_parser("bench", help="time a checked path against its baseline")
    bench.add_argument("scenario", choices=BENCH_SCENARIOS + ("all", "diff"))
    bench.add_argument("reports", nargs="*", metavar="REPORT", help="diff only: OLD.json NEW.json")
    bench.add_argument("--src", nargs="+", metavar=("OLD_SRC", "SCENARIO"),
                       help="diff only: time these scenarios against the checked package in OLD_SRC")
    bench.add_argument("--iters", type=int, default=1_000_000)
    bench.add_argument("--repeat", type=int, default=1,
                       help="rounds of statement then baseline, or with --src of both trees; rows report the fastest")
    bench.add_argument("--json", metavar="PATH", help="also write min and median ns and ratios here")

    demo = sub.add_parser("demo", help="run a scripted transcript")
    demo.add_argument("which", choices=DEMO_NAMES + ("all",))

    layout = sub.add_parser("layout", help="print a record's member layout")
    layout.add_argument("name")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "narrow":
        if args.narrow_command == "check":
            return cmd_narrow_check(args.from_type, args.to_type, args.value)
        return cmd_narrow_table()
    if args.command == "bench":
        if args.scenario != "diff" and args.src is not None:
            return _usage_error("--src is for bench diff")
        if args.scenario == "diff" and args.src is not None:
            src, *scenarios = args.src + args.reports
            unknown = [name for name in scenarios if name not in BENCH_SCENARIOS]
            if not scenarios or unknown:
                listed = " ".join(unknown) or "none"
                return _usage_error(f"bench diff --src OLD_SRC takes scenarios, not: {listed}")
            if args.iters <= 0 or args.repeat <= 0:
                return _usage_error("--iters and --repeat must be positive")
            return cmd_bench_diff_src(src, scenarios, args.iters, args.repeat)
        if args.scenario == "diff":
            if len(args.reports) != 2:
                return _usage_error("bench diff takes two reports: OLD.json NEW.json")
            return cmd_bench_diff(*args.reports)
        if args.reports:
            return _usage_error(f"unexpected arguments: {' '.join(args.reports)}")
        if args.iters <= 0:
            return _usage_error("--iters must be positive")
        if args.repeat <= 0:
            return _usage_error("--repeat must be positive")
        return cmd_bench(args.scenario, args.iters, args.repeat, args.json)
    if args.command == "demo":
        return cmd_demo(args.which)
    return cmd_layout(args.name)


if __name__ == "__main__":
    sys.exit(main())
