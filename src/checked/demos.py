"""Scripted demo transcripts with recorded expectations.

Each demo is a table of (label, action, expected outcome) rows.  The runner
executes every action, renders the outcome (value repr, or a stable error
tag), and compares it with the recorded expectation, so the demos double as
an executable record of the library's behavior on its canonical examples.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .narrowing import (
    F64,
    I8,
    I32,
    SF16,
    U8,
    U32,
    CheckedOverflowError,
    ConstraintError,
    NarrowError,
    Number,
    can_narrow,
    compare_lt,
    convert_to,
    narrow_checker,
    will_narrow,
)
from .printfmt import FormatError, format_render, print_concat
from .rangealg import (
    Buffer,
    LinkedList,
    RangeError,
    Span,
    draw_all,
    greater,
    is_power_of_two,
    less,
    sort,
    sort_random_access,
)
from .reflectlayout import layout_of, record_size

__all__ = ["DemoCase", "DemoResult", "DEMO_NAMES", "demo_cases", "run_demo"]


class DemoCase(NamedTuple):
    label: str
    run: Callable[[], object]
    expected: str


class DemoResult(NamedTuple):
    label: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def _outcome(thunk: Callable[[], object]) -> str:
    try:
        result = thunk()
    except NarrowError:
        return "error: narrowing"
    except RangeError:
        return "error: out of range"
    except FormatError as exc:
        return f"error: {exc.kind.value}"
    except CheckedOverflowError as exc:
        return "error: divide-by-zero" if exc.reason == "divide-by-zero" else "error: overflow"
    except ConstraintError as exc:
        return f"rejected: {exc}"
    return result if isinstance(result, str) else repr(result)


def _sorted_in_place(make: Callable[[], object], pred=less) -> list:
    r = make()
    sort(r, pred)
    return list(r)


class _Shape:
    def __init__(self, name: str, log: list):
        self._name = name
        self._log = log

    def draw(self):
        self._log.append(self._name)


def _draw_log(into_range: Callable[[list], object]) -> list:
    """Draw a circle, a square and a label held in ``into_range(shapes)``; the order drawn."""
    log: list = []
    draw_all(into_range([_Shape(name, log) for name in ("circle", "square", "label")]))
    return log


def _narrow_cases() -> tuple[DemoCase, ...]:
    return (
        DemoCase("convert i32 42 to i32 (redundant)", lambda: convert_to(42, I32, I32), "42"),
        DemoCase("same-type pair needs no run-time test", lambda: narrow_checker(I32, I32) is None, "True"),
        DemoCase("convert u32 3000000000 to i32 (too large)", lambda: convert_to(3_000_000_000, U32, I32), "error: narrowing"),
        DemoCase("convert u32 7 to i32", lambda: convert_to(7, U32, I32), "7"),
        DemoCase("convert i32 1234 to i8 (too large)", lambda: convert_to(1234, I32, I8), "error: narrowing"),
        DemoCase("convert i32 65 to i8", lambda: convert_to(65, I32, I8), "65"),
        DemoCase("convert i8 48 to i32 (redundant)", lambda: convert_to(48, I8, I32), "48"),
        DemoCase("widening pair needs no run-time test", lambda: narrow_checker(I8, I32) is None, "True"),
        DemoCase("convert i8 -1 to u32 (negative)", lambda: convert_to(-1, I8, U32), "error: narrowing"),
        DemoCase("convert i8 48 to u32", lambda: convert_to(48, I8, U32), "48"),
        DemoCase("convert i32 -500 to u32 (the mistyped count)", lambda: convert_to(-500, I32, U32), "error: narrowing"),
        DemoCase("convert i32 max to f64", lambda: convert_to(2_147_483_647, I32, F64), "2147483647.0"),
        DemoCase("i32 to f64 needs no run-time test", lambda: narrow_checker(I32, F64) is None, "True"),
        DemoCase("convert f64 7.8 to i32 (truncates)", lambda: convert_to(7.8, F64, I32), "error: narrowing"),
        DemoCase("convert f64 7.0 to i32", lambda: convert_to(7.0, F64, I32), "7"),
        DemoCase("i32 to sf16 can narrow", lambda: can_narrow(I32, SF16), "True"),
        DemoCase("sf16 holds 300 exactly", lambda: will_narrow(300, I32, SF16), "False"),
        DemoCase("sf16 would round 301", lambda: will_narrow(301, I32, SF16), "True"),
        DemoCase("unsigned counter := 2", lambda: Number(0, U32).assign(2), "Number(2, u32)"),
        DemoCase("unsigned counter := -2 (throws)", lambda: Number(0, U32).assign(-2), "error: narrowing"),
        DemoCase("8-bit cc := 100 (in range)", lambda: Number(48, I8).assign(100), "Number(100, i8)"),
        DemoCase("8-bit cc := 200 (out of range)", lambda: Number(48, I8).assign(200), "error: narrowing"),
        DemoCase("signed 8-bit cc := -17", lambda: Number(48, I8).assign(-17), "Number(-17, i8)"),
        DemoCase("unsigned 8-bit cc := -17 (throws)", lambda: Number(48, U8).assign(-17), "error: narrowing"),
        DemoCase("8-bit cc := 1234 (throws)", lambda: Number(48, I8).assign(1234), "error: narrowing"),
        DemoCase("deduce Number from 1", lambda: Number(1), "Number(1, i32)"),
        DemoCase("deduce Number from 1.2", lambda: Number(1.2), "Number(1.2, f64)"),
        DemoCase("unsigned 1 stays u32", lambda: Number(1, U32), "Number(1, u32)"),
        DemoCase("signed -1 below unsigned 2", lambda: compare_lt(Number(-1), Number(2, U32)), "True"),
        DemoCase("double + int*10 is a double", lambda: Number(1.5) + Number(4) * 10, "Number(41.5, f64)"),
        DemoCase("signed -1 + unsigned 2 (operand check)", lambda: Number(-1) + Number(2, U32), "error: narrowing"),
        DemoCase("3 + 4", lambda: Number(3) + Number(4), "Number(7, i32)"),
        DemoCase("u8 200 + u8 100 (overflows u8)", lambda: Number(200, U8) + Number(100, U8), "error: overflow"),
        DemoCase("7 / 0 (throws)", lambda: Number(7) / Number(0), "error: divide-by-zero"),
    )


def _span_cases() -> tuple[DemoCase, ...]:
    aa = lambda: list(range(100))
    doubles = lambda: [float(i) for i in range(20)]
    halves = lambda: [0.5] * 20
    negatives = lambda: [-1.0] * 20
    return (
        DemoCase("span over the whole 100-element array", lambda: len(Span(aa())), "100"),
        DemoCase("span over the first half", lambda: len(Span(aa(), 50)), "50"),
        DemoCase("span of 200 over 100 elements (throws)", lambda: Span(aa(), 200), "error: out of range"),
        DemoCase("span with count -500 (throws before range logic)", lambda: Span(aa(), -500), "error: narrowing"),
        DemoCase("span of exactly the full count", lambda: len(Span(aa(), 100)), "100"),
        DemoCase("first 10 of a growable array", lambda: len(Span(doubles(), 10)), "10"),
        DemoCase("elements [10:20)", lambda: list(Span(doubles(), 10, 20)),
                 "[10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]"),
        DemoCase("empty subrange [5:5)", lambda: len(Span(doubles(), 5, 5)), "0"),
        DemoCase("subrange [20:10) (throws)", lambda: Span(doubles(), 20, 10), "error: out of range"),
        DemoCase("index 10 in range", lambda: Span(aa())[10], "10"),
        DemoCase("index -10 (throws)", lambda: Span(aa())[-10], "error: narrowing"),
        DemoCase("last valid index", lambda: Span(aa())[99], "99"),
        DemoCase("index 200 (throws)", lambda: Span(aa())[200], "error: out of range"),
        DemoCase("index by another span's element (2.0 works)", lambda: Span(aa())[Span(doubles())[2]], "2"),
        DemoCase("index by a fractional element (throws)", lambda: Span(aa())[Span(halves())[2]], "error: narrowing"),
        DemoCase("index by a negative element (throws)", lambda: Span(aa())[Span(negatives())[2]], "error: narrowing"),
        DemoCase("unchecked span takes the caller's count", lambda: len(Span.unchecked(aa(), 10)), "10"),
        DemoCase("unchecked span still checks indexing (ok)", lambda: Span.unchecked(aa(), 10)[9], "9"),
        DemoCase("unchecked span still checks indexing (throws)", lambda: Span.unchecked(aa(), 10)[10], "error: out of range"),
        DemoCase("iteration visits every element once", lambda: sum(Span(doubles())) == sum(doubles()), "True"),
        DemoCase("iteration order", lambda: list(Span([1, 2, 3])), "[1, 2, 3]"),
        DemoCase("empty span iterates nothing", lambda: list(Span([])), "[]"),
        DemoCase("linked storage is not contiguous", lambda: Span(LinkedList([1, 2])),
                 "rejected: LinkedList is not a contiguous range"),
        DemoCase("a generator is not contiguous", lambda: Span(x * x for x in range(3)),
                 "rejected: generator is not a contiguous range"),
    )


def _sort_cases() -> tuple[DemoCase, ...]:
    vec = lambda: [1.0, -2.0, 2.0, 3.0]
    lst = lambda: LinkedList(["d", "q", "a"])
    names = lambda: ["delta", "alpha", "charlie"]
    return (
        DemoCase("sort the vector ascending", lambda: _sorted_in_place(vec), "[-2.0, 1.0, 2.0, 3.0]"),
        DemoCase("sort the vector descending", lambda: _sorted_in_place(vec, greater), "[3.0, 2.0, 1.0, -2.0]"),
        DemoCase("sort the list descending", lambda: _sorted_in_place(lst, greater), "['q', 'd', 'a']"),
        DemoCase("sort the list ascending", lambda: _sorted_in_place(lst), "['a', 'd', 'q']"),
        DemoCase("sort a span of strings ascending", lambda: _sorted_in_place(lambda: Span(names())),
                 "['alpha', 'charlie', 'delta']"),
        DemoCase("contiguous input dispatches in place", lambda: sort(vec()).chosen_path.value, "RandomAccess"),
        DemoCase("linked input dispatches through a copy", lambda: sort(lst()).chosen_path.value, "ForwardCopy"),
        DemoCase("span input dispatches in place", lambda: sort(Span(vec())).chosen_path.value, "RandomAccess"),
        DemoCase("random-access sort refuses a linked list", lambda: sort_random_access(lst()),
                 "rejected: range does not provide random access"),
        DemoCase("complex elements cannot be sorted", lambda: sort([1j, 2j]),
                 "rejected: complex does not provide <"),
        DemoCase("a tuple is not a sortable range", lambda: sort((3, 1, 2)),
                 "rejected: tuple is neither a random-access nor a forward range"),
        DemoCase("empty range sorts to itself", lambda: _sorted_in_place(lambda: []), "[]"),
        DemoCase("single-element forward range is unchanged", lambda: _sorted_in_place(lambda: LinkedList(["x"])), "['x']"),
        DemoCase("buffer of 100 (too small)", lambda: Buffer(str, 100), "rejected: buffer too small: 100 < 1024"),
        DemoCase("buffer of 10000 (size not binary)", lambda: Buffer(int, 10000),
                 "rejected: size not binary: 10000 is not a power of two"),
        DemoCase("buffer of 2048 builds", lambda: len(Buffer(int, 2048)), "2048"),
        DemoCase("buffer of 1024 builds (boundary)", lambda: len(Buffer(int, 1024)), "1024"),
        DemoCase("2048 is a power of two", lambda: is_power_of_two(2048), "True"),
        DemoCase("1 is a power of two", lambda: is_power_of_two(1), "True"),
        DemoCase("10000 is not a power of two", lambda: is_power_of_two(10000), "False"),
        DemoCase("0 is not a power of two", lambda: is_power_of_two(0), "False"),
        DemoCase("draw all shapes in a vector, in order",
                 lambda: _draw_log(list),
                 "['circle', 'square', 'label']"),
        DemoCase("draw all shapes held by a linked list",
                 lambda: _draw_log(LinkedList),
                 "['circle', 'square', 'label']"),
        DemoCase("drawing an empty range does nothing", lambda: _draw_log(lambda shapes: []), "[]"),
    )


def _fmt_cases() -> tuple[DemoCase, ...]:
    return (
        DemoCase("concatenating print",
                 lambda: print_concat("Hello ", "world", "!", " It's now ", "2025-05-22 16:55:25.2750128"),
                 "Hello world! It's now 2025-05-22 16:55:25.2750128"),
        DemoCase("placeholder formatting",
                 lambda: format_render("Hello {}! It's now {}", "world", "2025-05-22 17:50:42.3606077"),
                 "Hello world! It's now 2025-05-22 17:50:42.3606077"),
        DemoCase("placeholder with no argument", lambda: format_render("{}"), "error: argument missing"),
        DemoCase("argument with no placeholder", lambda: format_render("x", 1), "error: too many arguments"),
        DemoCase("lone brace passes through", lambda: format_render("{x"), "{x"),
        DemoCase("empty format renders nothing", lambda: format_render(""), ""),
        DemoCase("concatenating nothing", lambda: print_concat(), ""),
        DemoCase("numbers render in order", lambda: format_render("{}{}{}", 1, 2, 3), "123"),
        DemoCase("concatenation matches formatting", lambda: print_concat(1, 2, 3), "123"),
        DemoCase("wrapped numbers render as their value",
                 lambda: format_render("{} + {} = {}", Number(1), Number(2), Number(3)),
                 "1 + 2 = 3"),
    )


def _layout_text(name: str) -> str:
    return "; ".join(f"{d.name}@{d.offset}+{d.size}" for d in layout_of(name))


def _layout_cases() -> tuple[DemoCase, ...]:
    return (
        DemoCase("X is a byte, an int, and owned text", lambda: _layout_text("X"), "a@0+1; b@4+4; c@8+24"),
        DemoCase("X total size", lambda: record_size("X"), "32"),
        DemoCase("field names keep declaration order", lambda: [d.name for d in layout_of("X")], "['a', 'b', 'c']"),
        DemoCase("empty record has no members", lambda: _layout_text("Empty"), ""),
        DemoCase("empty record size", lambda: record_size("Empty"), "0"),
        DemoCase("single 64-bit field", lambda: _layout_text("Word"), "w@0+8"),
        DemoCase("padding follows alignment", lambda: _layout_text("Mixed"),
                 "flag@0+1; count@2+2; tag@4+1; ratio@8+8; scale@16+4"),
        DemoCase("mixed record size includes tail padding", lambda: record_size("Mixed"), "24"),
        DemoCase("trailing byte pads the record", lambda: record_size("Tail"), "16"),
        DemoCase("unknown records are rejected", lambda: layout_of("Nope"),
                 "rejected: unknown record type 'Nope'"),
    )


_DEMOS: dict[str, Callable[[], tuple[DemoCase, ...]]] = {
    "narrow": _narrow_cases,
    "span": _span_cases,
    "sort": _sort_cases,
    "fmt": _fmt_cases,
    "layout": _layout_cases,
}

DEMO_NAMES = tuple(_DEMOS)


def demo_cases(which: str) -> tuple[DemoCase, ...]:
    try:
        return _DEMOS[which]()
    except KeyError:
        raise ConstraintError(f"unknown demo {which!r}") from None


def run_demo(which: str) -> list[DemoResult]:
    """Execute one demo table and report every row's outcome."""
    return [
        DemoResult(case.label, case.expected, _outcome(case.run))
        for case in demo_cases(which)
    ]
