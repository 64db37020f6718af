"""Promises the library makes and does not yet keep, one test per known case.

Each test asserts the promised behaviour and is a strict expected failure
naming the ROADMAP item that mends it: the change that keeps the promise
makes its test pass, so pytest reports it as XPASS(strict) until that change
deletes the mark as well.
"""

import struct
from array import array

import pytest

from checked import (
    I64,
    SF16,
    U8,
    U16,
    Buffer,
    ConstraintError,
    NarrowError,
    NumericKind,
    Number,
    Span,
    can_narrow,
    convert,
    convert_to,
    register_numeric_type,
)

_F16_STRUCT = struct.Struct("<e")


def _f16_cast(value):
    """IEEE binary16 through ``struct``'s ``'e'``."""
    return _F16_STRUCT.unpack(_F16_STRUCT.pack(float(value)))[0]


@pytest.fixture
def f16(registry):
    return register_numeric_type("f16", NumericKind.FLOAT, 11, 2, cast=_f16_cast)


# --- item 1: exact mixed comparisons, and the hash contract -------------------

@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("a, b", [(Number(2**53 + 1, I64), Number(2.0**53)), (Number(257), Number(256.0, SF16))],
                         ids=["i64-f64", "i32-sf16"])
def test_equal_numbers_hash_equal(a, b):
    """Both pairs compare equal today, and ``a == b`` must imply equal hashes
    and a set of the pair holding one element.  Exact comparison keeps the
    contract by making them unequal instead, so the assertion is the
    contract itself."""
    assert a != b or hash(a) == hash(b)
    assert len({a, b}) == (1 if a == b else 2)


# --- item 3: a Span write never changes a value ------------------------------

@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("store, value", [(array("f", [0.0]), 0.1), (array("f", [0.0]), 16777217.0),
                                          (array("h", [0]), 70000), (bytearray(2), 300)],
                         ids=["f32-inexact", "f32-past-2**24", "i16-range", "u8-range"])
def test_a_write_the_element_type_cannot_hold_is_refused(store, value):
    before = store[:]
    with pytest.raises(NarrowError):
        Span(store)[0] = value
    assert store == before


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_an_exact_float_is_written_as_the_int_it_holds():
    store = array("B", [7])
    Span(store)[0] = 0.0
    assert store[0] == convert(0.0, U8) == 0


# --- item 19: float types carry an exponent range ----------------------------

@pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
def test_sf16_narrows_into_f16(f16):
    assert can_narrow(SF16, f16)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
@pytest.mark.parametrize("call", [lambda f16: convert(Number(2.0**100, SF16), f16),
                                  lambda f16: convert_to(2.0**-100, SF16, f16)], ids=["overflow", "underflow"])
def test_an_sf16_value_past_f16s_exponent_range_is_refused(f16, call):
    with pytest.raises(NarrowError):
        call(f16)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
def test_a_cast_that_keeps_more_than_its_digits_is_refused(registry):
    with pytest.raises(ConstraintError, match="digits"):
        register_numeric_type("f24", NumericKind.FLOAT, 16, 3, cast=float)


# --- item 21: typed Buffer(T, n) ---------------------------------------------

@pytest.mark.xfail(strict=True, reason="ROADMAP item 21")
def test_a_typed_buffer_starts_zeroed():
    assert list(Buffer(U16, 1024)) == [0] * 1024
