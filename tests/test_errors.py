"""The library's errors: the text and fields at every raise site, and the
round trip through ``copy`` and ``pickle``.

Each error keeps its constructor arguments, as given, in ``args`` and
builds its text on ``str()``; these tests pin that the text and the fields
read exactly as they did when the text was built at the raise site."""

import copy
import math
import pickle
from enum import IntEnum

import pytest

from checked import (
    F32,
    I8,
    I32,
    U8,
    U16,
    U64,
    CheckedOverflowError,
    FormatError,
    FormatErrorKind,
    NarrowError,
    Number,
    RangeError,
    Span,
    convert,
    convert_to,
    format_render,
)


class _Code(IntEnum):
    BIG = 300


def _ten():
    return list(range(10))


_FIELDS = {
    NarrowError: ("value_text", "source_name", "target_name"),
    CheckedOverflowError: ("operation", "operand_text", "reason"),
    RangeError: ("attempted", "length"),
    FormatError: ("kind", "position"),
}

# (raise site, call, error type, str(), field values in _FIELDS order, repr())
RAISE_SITES = [
    ("to_int, an int", lambda: convert(70000, U16), NarrowError,
     "converting 70000 from i32 to u16 would change its value", ("70000", "i32", "u16"),
     "NarrowError(70000, i32, u16)"),
    ("to_int, a fraction", lambda: convert(2.5, I32), NarrowError,
     "converting 2.5 from f64 to i32 would change its value", ("2.5", "f64", "i32"),
     "NarrowError(2.5, f64, i32)"),
    ("to_int, NaN", lambda: convert(math.nan, U8), NarrowError,
     "converting nan from f64 to u8 would change its value", ("nan", "f64", "u8"),
     "NarrowError(nan, f64, u8)"),
    ("to_int, an IntEnum member", lambda: convert(_Code.BIG, U8), NarrowError,
     "converting 300 from i32 to u8 would change its value", ("300", "i32", "u8"),
     "NarrowError(300, i32, u8)"),
    ("to_float, a float", lambda: convert(0.1, F32), NarrowError,
     "converting 0.1 from f64 to f32 would change its value", ("0.1", "f64", "f32"),
     "NarrowError(0.1, f64, f32)"),
    ("to_float, an int", lambda: convert(2**24 + 1, F32), NarrowError,
     "converting 16777217 from i32 to f32 would change its value", ("16777217", "i32", "f32"),
     "NarrowError(16777217, i32, f32)"),
    ("convert_to, the source check", lambda: convert_to(-1, U8, U16), NarrowError,
     "converting -1 from u8 to u16 would change its value", ("-1", "u8", "u16"),
     "NarrowError(-1, u8, u16)"),
    ("convert_to, an IntEnum member", lambda: convert_to(_Code.BIG, I32, I8), NarrowError,
     "converting 300 from i32 to i8 would change its value", ("300", "i32", "i8"),
     "NarrowError(300, i32, i8)"),
    ("_refuse, integer overflow", lambda: Number(2**64 - 1, U64) + Number(1, U64), CheckedOverflowError,
     "add(18446744073709551615, 1): result not representable",
     ("add", ("18446744073709551615", "1"), "result not representable"),
     "CheckedOverflowError('add', (18446744073709551615, 1))"),
    ("_refuse, float overflow", lambda: Number(1e308) * Number(10.0), CheckedOverflowError,
     "mul(1e+308, 10.0): result not representable",
     ("mul", ("1e+308", "10.0"), "result not representable"),
     "CheckedOverflowError('mul', (1e+308, 10.0))"),
    ("_refuse, integer divide-by-zero", lambda: Number(7) / Number(0), CheckedOverflowError,
     "div(7, 0): divide-by-zero", ("div", ("7", "0"), "divide-by-zero"),
     "CheckedOverflowError('div', (7, 0), 'divide-by-zero')"),
    ("_refuse, float divide-by-zero", lambda: Number(1.5) / Number(0.0), CheckedOverflowError,
     "div(1.5, 0.0): divide-by-zero", ("div", ("1.5", "0.0"), "divide-by-zero"),
     "CheckedOverflowError('div', (1.5, 0.0), 'divide-by-zero')"),
    ("Span.__init__, the high bound", lambda: Span(_ten(), 2, 11), RangeError,
     "index 11 out of range for span of length 10", (11, 10), "RangeError(11, 10)"),
    ("Span.__init__, a low bound above the high one", lambda: Span(_ten(), 5, 3), RangeError,
     "index 5 out of range for span of length 10", (5, 10), "RangeError(5, 10)"),
    ("Span.check", lambda: Span(_ten()).check(10), RangeError,
     "index 10 out of range for span of length 10", (10, 10), "RangeError(10, 10)"),
    ("Span.check, through an index", lambda: Span(_ten(), 2, 6)[Number(4, U8)], RangeError,
     "index 4 out of range for span of length 4", (4, 4), "RangeError(4, 4)"),
    ("format_render, argument missing", lambda: format_render("{} and {}", 1), FormatError,
     "argument missing (format offset 7)", (FormatErrorKind.ARGUMENT_MISSING, 7),
     "FormatError(<FormatErrorKind.ARGUMENT_MISSING: 'argument missing'>, 7)"),
    ("format_render, too many arguments", lambda: format_render("{}!", 1, 2), FormatError,
     "too many arguments (format offset 3)", (FormatErrorKind.TOO_MANY_ARGUMENTS, 3),
     "FormatError(<FormatErrorKind.TOO_MANY_ARGUMENTS: 'too many arguments'>, 3)"),
]

_IDS = [row[0] for row in RAISE_SITES]


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return info.value


def _field_values(exc):
    return tuple(getattr(exc, name) for name in _FIELDS[type(exc)])


@pytest.mark.parametrize("site, call, error, text, fields, representation", RAISE_SITES, ids=_IDS)
def test_text_and_fields_at_every_raise_site(site, call, error, text, fields, representation):
    exc = _raised(call)
    assert type(exc) is error
    assert str(exc) == text
    assert _field_values(exc) == fields
    assert repr(exc) == representation


def test_every_error_class_has_a_raise_site():
    assert {row[2] for row in RAISE_SITES} == set(_FIELDS)


_COPIES = [("copy", copy.copy), ("deepcopy", copy.deepcopy)] + [
    (f"pickle-{p}", lambda e, p=p: pickle.loads(pickle.dumps(e, protocol=p)))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)
]


@pytest.mark.parametrize("how, duplicate", _COPIES, ids=[c[0] for c in _COPIES])
@pytest.mark.parametrize("site, call, error, text, fields, representation", RAISE_SITES, ids=_IDS)
def test_every_error_survives_copy_and_pickle(how, duplicate, site, call, error, text, fields, representation):
    exc = _raised(call)
    twin = duplicate(exc)
    assert type(twin) is error
    # equal args (a NumType equals only itself, so a copy holds the interned
    # types), where a NaN, which pickle rebuilds as a new float, equals a NaN
    assert len(twin.args) == len(exc.args)
    assert all(x == y or x != x and y != y for x, y in zip(twin.args, exc.args))
    assert str(twin) == text
    assert _field_values(twin) == fields


class TestConstructors:
    """The public constructors keep their parameters, in order; they are
    positional-only, as ``args`` is."""

    @pytest.mark.parametrize("make", [
        lambda: NarrowError(1, I32),
        lambda: CheckedOverflowError("add"),
        lambda: RangeError(3),
        lambda: FormatError(),
        lambda: NarrowError(1, I32, U8, None),
        lambda: CheckedOverflowError("add", (1, 2), "x", None),
    ])
    def test_a_wrong_argument_count_is_refused(self, make):
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: NarrowError(value=1, source=I32, target=U8),
        lambda: CheckedOverflowError("div", (1, 0), reason="divide-by-zero"),
        lambda: RangeError(attempted=3, length=2),
    ])
    def test_keywords_are_refused_rather_than_lost(self, make):
        with pytest.raises(TypeError):
            make()

    def test_the_reason_defaults_without_entering_args(self):
        exc = CheckedOverflowError("add", (1, 2))
        assert exc.args == ("add", (1, 2)) and exc.reason == "result not representable"
        assert str(exc) == "add(1, 2): result not representable"
