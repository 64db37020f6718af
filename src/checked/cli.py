"""Command-line front end: demos, checks, the narrowing table, benchmarks.

Verbs:

* ``narrow check FROM TO VALUE``: classify and attempt one conversion.
* ``narrow table``: the full can-narrow matrix for the supported types.
* ``bench SCENARIO --iters N [--repeat K]``: CSV timing of a checked path
  against its raw baseline (``all`` runs every scenario); each row is the
  fastest of K rounds, each round timing the statement and its baseline
  once, and ends with the median of the per-round ratios.
* ``bench diff OLD_SRC SCENARIO... [--iters N] [--repeat K]``: time each
  scenario's statement under this package and under the ``checked`` package
  in ``OLD_SRC`` (imported in the same process under another name); CSV of
  the median new/old ratio of the K rounds, its quartiles, and the rounds
  the new tree won.
* ``demo WHICH``: run a scripted transcript against its recorded
  expectations.
* ``layout NAME``: print a registered record's member descriptors.

Exit status: 0 on success, 1 when a contract violation was demonstrated
(a failed conversion, a demo deviation), 2 for usage errors.  All output is
plain UTF-8 text; bench output is CSV with a fixed header.  Commands are
single-threaded.  Bench times each statement with ``timeit`` on whatever core
the host gives us: the set-up runs once, outside the timed loop, and the
collector is paused while timing.  Both bench forms share one timing loop:
which side runs first alternates from round to round, so a drift of the
host's speed falls on both.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
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

BENCH_CSV_HEADER = "scenario,iters,ns_per_op,baseline_ns_per_op,ratio_median"


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

# Per scenario: the set-up, the measured statement and the baseline statement,
# run in this module's globals.  The span data is 64 distinct values in a
# fixed scrambled order (37 is coprime to 64).
_BENCHES: dict[str, tuple[str, str, str]] = {
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
    # i32 < f32: 123456 is inside f32's exact-int lane, so no rounding runs.
    "number-compare-f32": ("a, b = Number(123456, I32), Number(0.5, F32)\np, q = 123456, 0.5",
                           "x = a < b", "x = p < q"),
    # i32 / i16 in i32: a negative quotient, truncated toward zero.
    "number-div": ("a, b = Number(-12345, I32), Number(67, I16)\np, q = -12345, 67", "x = a / b", "x = p // q"),
}

BENCH_SCENARIOS = tuple(_BENCHES)


def _bench_times(scenario: str, iters: int, repeat: int, old: Optional[dict] = None) -> tuple[list, list]:
    """ns per operation, one per round, of the scenario's statement and of its baseline, or
    with ``old`` (another tree's ``cli`` globals) of the statement under this tree and under
    that one.  Each round times both once, and which runs first alternates, so a drift of
    the host's speed falls on both alike.  ``main`` checks that both counts are positive."""
    setup, statement, baseline = _BENCHES[scenario]
    sides = [(statement, globals()), (baseline, globals()) if old is None else (statement, old)]
    timers = [timeit.Timer(stmt, setup, globals=space) for stmt, space in sides]
    times = ([], [])
    for k in range(repeat):
        for i in (1, 0) if k % 2 else (0, 1):
            times[i].append(timers[i].timeit(iters) * 1e9 / iters)
    return times


def _ratio_quartiles(measured: list, baseline: list) -> list:
    """The quartiles of the per-round ratios, inclusive method: the middle one is their median."""
    ratios = [m / b for m, b in zip(measured, baseline)]
    return statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3


def run_bench(scenario: str, iters: int) -> BenchRecord:
    """Time one scenario and its baseline; usable directly from tests."""
    if iters <= 0:
        raise ValueError("iters must be positive")
    (measured,), (baseline,) = _bench_times(scenario, iters, 1)
    return BenchRecord(scenario, iters, measured, baseline)


def cmd_bench(scenario: str, iters: int, repeat: int) -> int:
    print(BENCH_CSV_HEADER)
    for name in BENCH_SCENARIOS if scenario == "all" else (scenario,):
        measured, baseline = _bench_times(name, iters, repeat)
        print(format_render("{},{},{},{},{}", name, iters, f"{min(measured):.3f}", f"{min(baseline):.3f}",
                            f"{_ratio_quartiles(measured, baseline)[1]:.3f}"))
    return 0


BENCH_SRC_DIFF_CSV_HEADER = "scenario,iters,rounds,ratio_median,ratio_q1,ratio_q3,rounds_won"
_OLD_TREE = "_checked_old"  # the package name the other tree is imported under


def _load_tree(package: Path) -> dict:
    """The globals of the ``cli`` module of the ``checked`` package ``package``, imported
    afresh under ``_OLD_TREE``: the names each bench statement binds, from that tree."""
    for name in [name for name in sys.modules if name.partition(".")[0] == _OLD_TREE]:
        del sys.modules[name]
    spec = importlib.util.spec_from_file_location(_OLD_TREE, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = sys.modules[_OLD_TREE] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return vars(importlib.import_module(f"{_OLD_TREE}.cli"))


def cmd_bench_diff_src(src: str, scenarios: list[str], iters: int, repeat: int) -> int:
    package = Path(src) / "checked"
    if not (package / "__init__.py").is_file():
        return _usage_error(f"no checked package in {src}")
    try:
        old = _load_tree(package)
    except Exception as exc:  # whatever the tree's own import raises
        return _usage_error(f"cannot import the checked package in {src}: {type(exc).__name__}: {exc}")
    rows = []  # printed once every scenario has run, so a usage error leaves stdout empty
    for name in scenarios:
        try:
            new_ns, old_ns = _bench_times(name, iters, repeat, old)
        except Exception as exc:  # a name the other tree's cli lacks, or whatever either tree's code raises
            return _usage_error(f"{name} does not run on the tree in {src}: {type(exc).__name__}: {exc}")
        q1, median, q3 = _ratio_quartiles(new_ns, old_ns)
        won = sum(new < old for new, old in zip(new_ns, old_ns))
        rows.append(format_render("{},{},{},{},{},{},{}", name, iters, repeat,
                                  f"{median:.3f}", f"{q1:.3f}", f"{q3:.3f}", won))
    print(BENCH_SRC_DIFF_CSV_HEADER, *rows, sep="\n")
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

    bench = sub.add_parser("bench", help="time a checked path against its baseline, or two trees")
    bench.add_argument("scenario", choices=BENCH_SCENARIOS + ("all", "diff"))
    bench.add_argument("operands", nargs="*", metavar="ARG", help="diff only: OLD_SRC SCENARIO...")
    bench.add_argument("--iters", type=int, default=1_000_000)
    bench.add_argument("--repeat", type=int, default=1,
                       help="rounds, each timing both sides once, the first in turn; rows report the fastest")

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
        if args.iters <= 0 or args.repeat <= 0:
            return _usage_error("--iters and --repeat must be positive")
        if args.scenario != "diff":
            if args.operands:
                return _usage_error(f"unexpected arguments: {' '.join(args.operands)}")
            return cmd_bench(args.scenario, args.iters, args.repeat)
        src, *scenarios = args.operands or [""]
        unknown = [name for name in scenarios if name not in BENCH_SCENARIOS]
        if not scenarios or unknown:
            return _usage_error(f"bench diff OLD_SRC takes scenarios, not: {' '.join(unknown) or 'none'}")
        return cmd_bench_diff_src(src, scenarios, args.iters, args.repeat)
    if args.command == "demo":
        return cmd_demo(args.which)
    return cmd_layout(args.name)


if __name__ == "__main__":
    sys.exit(main())
