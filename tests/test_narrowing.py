import math
import operator
import random
import re
import struct
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum, IntEnum
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from checked import (
    F32,
    F64,
    I8,
    I16,
    I32,
    I64,
    SF16,
    U8,
    U16,
    U32,
    U64,
    NARROWING_MATRIX,
    Buffer,
    CheckedOverflowError,
    ConstraintError,
    NarrowError,
    Number,
    NumericKind,
    NumericTraits,
    NumType,
    RangeError,
    Span,
    can_narrow,
    can_narrow_to,
    common_type,
    compare_lt,
    convert,
    convert_to,
    deduced_type,
    layout_of,
    narrow_checker,
    numeric_type,
    record_size,
    register_numeric_type,
    register_record,
    supported_types,
    traits_of,
    will_narrow,
)

import oracle

ALL_TYPES = supported_types()
INT_TYPES = [t for t in ALL_TYPES if t.kind is not NumericKind.FLOAT]


class TestTraits:
    def test_i32(self):
        assert traits_of(I32) == NumericTraits(NumericKind.SIGNED_INT, 31, 4)

    def test_f64(self):
        assert traits_of("f64") == NumericTraits(NumericKind.FLOAT, 53, 8)

    def test_sf16(self):
        assert traits_of(SF16) == NumericTraits(NumericKind.FLOAT, 8, 2)

    def test_structural_invariants(self):
        for t in ALL_TYPES:
            tr = t.traits
            assert tr.digits >= 1 and tr.byte_size >= 1
            if tr.kind is NumericKind.SIGNED_INT:
                assert tr.digits == 8 * tr.byte_size - 1
            elif tr.kind is NumericKind.UNSIGNED_INT:
                assert tr.digits == 8 * tr.byte_size
            else:
                assert tr.digits < 8 * tr.byte_size

    def test_unknown_type_rejected(self):
        with pytest.raises(ConstraintError):
            numeric_type("i128")

    def test_a_float_is_not_a_type_spec(self):
        with pytest.raises(ConstraintError):
            numeric_type(3.5)


class TestCanNarrow:
    def test_float_to_int(self):
        assert can_narrow(F64, I32) is True

    def test_same_type_never(self):
        for t in ALL_TYPES:
            assert can_narrow_to(t.traits, t.traits, True) is False
            assert can_narrow(t, t) is False

    def test_equal_size_sign_rule_both_directions(self):
        for signed, unsigned in [(I8, U8), (I16, U16), (I32, U32), (I64, U64)]:
            assert can_narrow(signed, unsigned) is True
            assert can_narrow(unsigned, signed) is True

    def test_signed_to_wider_unsigned_can_narrow(self):
        # A negative can hide from any unsigned target, whatever the widths.
        assert can_narrow(I8, U32) is True
        assert will_narrow(-1, I8, U32) is True

    def test_widening_signed_never_narrows_exhaustive(self):
        # Every i16 value survives i32 exactly, per the independent oracle.
        assert can_narrow(I16, I32) is False
        for v in range(I16.min, I16.max + 1):
            assert oracle.representable(v, "i32")

    def test_i32_to_sf16(self):
        assert can_narrow(I32, SF16) is True
        # 301 needs nine significant bits and does not survive the round trip.
        assert not oracle.representable(301, "sf16")
        assert will_narrow(301, I32, SF16) is True

    def test_classification_matches_existence_of_a_narrowed_value(self):
        # For the small integer types, the pair classification is true
        # exactly when some source value fails the round trip.
        for src in [I8, U8, I16, U16]:
            for dst in ALL_TYPES:
                if src is dst:
                    continue
                exists = any(
                    not oracle.representable(v, dst.name)
                    for v in range(src.min, src.max + 1)
                )
                assert can_narrow(src, dst) is exists, (src.name, dst.name)


class TestWillNarrow:
    @pytest.mark.parametrize(
        "value,src,dst,expected",
        [
            (7.8, F64, I32, True),
            (-2, I32, U32, True),
            (1_000_000, I32, I16, True),
            (42, I32, I32, False),
            (7.0, F64, I32, False),
            (300, I32, SF16, False),
            (301, I32, SF16, True),
            (2**53, I64, F64, False),
            (2**53 + 1, I64, F64, True),
        ],
    )
    def test_examples(self, value, src, dst, expected):
        assert will_narrow(value, src, dst) is expected
        assert oracle.representable(value, dst.name) is not expected

    def test_nonfinite(self):
        assert will_narrow(math.inf, F64, I64) is True
        assert will_narrow(math.nan, F64, I32) is True
        # inf is a value of every float type here, NaN never round-trips.
        assert will_narrow(math.inf, F64, F32) is False
        assert will_narrow(math.nan, F64, F32) is True

    def test_negative_zero_is_plain_zero(self):
        assert will_narrow(-0.0, F64, I32) is False
        assert convert_to(-0.0, F64, I32) == 0


class TestFastPath:
    class Poison:
        """Blows up on any inspection a checker could perform."""

        def _no(self, *_):
            raise AssertionError("value inspected on a no-narrowing path")

        __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _no
        __float__ = __int__ = __abs__ = _no

    def test_no_value_inspection_when_classification_rules_it_out(self):
        poison = self.Poison()
        assert will_narrow(poison, I32, I32) is False
        assert will_narrow(poison, I16, I64) is False
        assert will_narrow(poison, U8, F64) is False

    def test_checker_absent_for_safe_pairs(self):
        assert narrow_checker(I32, I32) is None
        assert narrow_checker(I16, I32) is None
        assert narrow_checker(U32, F64) is None
        assert narrow_checker(SF16, F32) is None

    def test_checker_present_for_narrowable_pairs(self):
        assert narrow_checker(I32, I16) is not None
        assert narrow_checker(F64, I64) is not None

    def test_classification_is_an_import_time_table(self):
        assert isinstance(NARROWING_MATRIX, MappingProxyType)
        with pytest.raises(TypeError):
            NARROWING_MATRIX[("i32", "i32")] = True  # type: ignore[index]
        assert NARROWING_MATRIX[("i32", "i32")] is False


class TestConvertTo:
    def test_mistyped_count(self):
        with pytest.raises(NarrowError) as info:
            convert_to(-500, I32, U32)
        assert info.value.source_name == "i32"
        assert info.value.target_name == "u32"
        assert "-500" in info.value.value_text

    def test_char_code_to_int(self):
        assert convert_to(48, I8, I32) == 48

    def test_i32_max_to_f64(self):
        result = convert_to(2**31 - 1, I32, F64)
        assert result == 2147483647.0 and isinstance(result, float)
        assert oracle.representable(2**31 - 1, "f64")

    def test_error_instead_contract(self):
        rng = random.Random(1405)
        for _ in range(2000):
            src = rng.choice(INT_TYPES)
            dst = rng.choice(ALL_TYPES)
            v = rng.randint(src.min, src.max)
            try:
                result = convert_to(v, src, dst)
            except NarrowError:
                assert will_narrow(v, src, dst) is True
            else:
                assert will_narrow(v, src, dst) is False
                assert result == v

    @pytest.mark.parametrize("value,src,dst", [
        (-1, U8, U16),          # below its declared source
        (300, U8, U8),          # above it, same-type pair
        (1.5, I32, I64),        # a fraction in an integer source
        (1.0, I32, I64),        # an integer type holds ints only
        (2**24 + 1, F32, F64),  # not a value of f32
        (1e300, F32, F64),
    ])
    def test_value_outside_its_declared_source_is_refused(self, value, src, dst):
        with pytest.raises(NarrowError):
            convert_to(value, src, dst)

    @pytest.mark.parametrize("value", [True, False, "7", None, Number(3)])
    def test_non_numbers_are_refused(self, value):
        with pytest.raises(ConstraintError):
            convert_to(value, I32, I64)

    def test_nan_and_integers_are_values_of_a_float_source(self):
        assert math.isnan(convert_to(math.nan, F32, F64))
        assert convert_to(5, F64, I32) == 5
        assert convert_to(2**24, F32, I64) == 2**24

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_success_preserves_exact_value(self, v):
        for dst in ALL_TYPES:
            try:
                result = convert_to(v, I64, dst)
            except NarrowError:
                assert not oracle.representable(v, dst.name)
            else:
                assert result == v
                assert oracle.representable(v, dst.name)


def _members(t):
    """Boundary values of ``t``, as the oracle judges membership."""
    pool = [0, -0.0, 0.5, math.inf, -math.inf, math.nan,
            2**24 + 1, 2**53 + 1, float(2**24 + 1), 2.0**53]
    for u in ALL_TYPES:
        if u.min is not None:
            pool += [u.min, u.max, float(u.min)]
        else:
            top = float(oracle.FLOAT_SPECS[u.name][2])
            pool += [top, -top]
    if t.min is not None:
        return [v for v in pool if type(v) is int and t.min <= v <= t.max]
    return [v for v in pool
            if (isinstance(v, float) and not math.isfinite(v)) or oracle.representable(v, t.name)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error type is part of the outcome
        return type(exc)


def _same(got, want) -> bool:
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        if math.isnan(want):
            return math.isnan(got)
        return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    return got == want


class TestFusedConverters:
    """Each pair's converter against the staged checker plus ``NumType.cast``."""

    @staticmethod
    def _reference(value, src, dst):
        chk = narrow_checker(src, dst)
        if chk is not None and chk(value):
            raise NarrowError(value, src, dst)
        return dst.cast(value)

    def test_all_pairs_on_boundary_values(self):
        cases = 0
        for src in ALL_TYPES:
            for value in _members(src):
                for dst in ALL_TYPES:
                    got = _outcome(src.to[dst], value)
                    want = _outcome(self._reference, value, src, dst)
                    assert _same(got, want), (value, src, dst, got, want)
                    # The decision itself, against the exact oracle: a pair
                    # that cannot narrow never refuses; otherwise a value is
                    # refused iff the target cannot hold it (an infinity is a
                    # value of every float type).
                    refused = got is NarrowError
                    if not can_narrow(src, dst):
                        assert not refused, (value, src, dst)
                    elif isinstance(value, float) and math.isinf(value):
                        assert refused is (dst.min is not None), (value, src, dst)
                    elif not (isinstance(value, float) and math.isnan(value)):
                        assert refused is not oracle.representable(value, dst.name), (value, src, dst)
                    cases += 1
        assert all(len(t.to) == 11 for t in ALL_TYPES) and cases > 121 * 10

    def test_convert_to_agrees_with_the_converter(self):
        for src in ALL_TYPES:
            for value in _members(src):
                for dst in ALL_TYPES:
                    got = _outcome(convert_to, value, src, dst)
                    assert _same(got, _outcome(src.to[dst], value)), (value, src, dst)

    def test_widening_converters_are_the_builtins(self):
        assert I32.to[I32] is int and U8.to[I64] is int
        assert I32.to[F64] is float and SF16.to[F32] is float


class _Code(IntEnum):
    BIG = 300


class _Liar(int):
    """An int whose own order tests hold whatever they are asked."""

    def __le__(self, other):
        return True

    __ge__ = __le__


class _LiarF(float):
    """A float whose own order and equality tests hold whatever they are asked."""

    def __le__(self, other):
        return True

    __ge__ = __eq__ = __le__
    __hash__ = float.__hash__


def _held(value):
    """The exact number a bare int or float (subclass) holds; any other value
    as it is."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return int.__int__(value) if isinstance(value, int) else float.__float__(value)


_DISPATCH_VALUES = [
    0, -(2**31), 2**31 - 1, 2**31, -(2**31) - 1, 2**63, 2**64 - 1,
    1.5, -0.0, math.inf, math.nan, _Code.BIG, Number(7, U8), Number(-2.5, F32), True,
]
# Each integer type's limits and their outer neighbours.
_DISPATCH_VALUES += sorted(
    {v for t in INT_TYPES for v in (t.min - 1, t.min, t.max, t.max + 1)}
    - {v for v in _DISPATCH_VALUES if type(v) is int}
)
# A Number at each integer type's limits.
_DISPATCH_VALUES += [Number(v, t) for t in INT_TYPES for v in (t.min, t.max)]
# Subclasses whose own comparisons lie (ids distinct from the values above).
_DISPATCH_VALUES += [_Liar(299), _Liar(-7), _Liar(2**40), _LiarF(0.1), _LiarF(2.5)]


def _refusal(fn, *args):
    """What ``fn(*args)`` returns, or its error's class with the
    ``NarrowError`` fields that name the pair."""
    try:
        return fn(*args)
    except NarrowError as exc:
        return (type(exc), exc.source_name, exc.target_name)
    except Exception as exc:
        return (type(exc),)


class TestConvertDispatchFastPath:
    @pytest.mark.parametrize("value", _DISPATCH_VALUES)
    def test_matches_the_deduced_source(self, value):
        if isinstance(value, Number):
            src, raw = value.numtype, value.value
        else:
            src, raw = _outcome(deduced_type, value), _held(value)
        for dst in ALL_TYPES:
            got = _outcome(convert, value, dst)
            if src is ConstraintError:  # no source type: refused before any pair
                assert got is ConstraintError, (value, dst)
                continue
            assert _same(got, _outcome(TestFusedConverters._reference, raw, src, dst)), (value, dst)

    @pytest.mark.parametrize("value", _DISPATCH_VALUES)
    def test_number_construction_matches_convert(self, value):
        for dst in ALL_TYPES:
            for spec in (dst, dst.name):
                want = _refusal(convert, value, spec)
                got = _refusal(Number, value, spec)
                if type(want) is tuple:
                    assert got == want, (value, spec)
                else:
                    assert type(got) is Number and got.numtype is dst, (value, spec)
                    assert _same(got.value, want), (value, spec)

    def test_an_exact_in_range_int_needs_no_converter(self, monkeypatch):
        from checked import narrowing

        # With no converter rows and no ``convert`` to fall back on, only the
        # fast path can answer, and it must answer at both limits of every type.
        for t in ALL_TYPES:
            monkeypatch.setattr(t, "to", {})
        monkeypatch.setattr(narrowing, "convert", None)
        for t in INT_TYPES:
            for v in (t.min, t.max):
                assert convert(v, t) == v and Number(v, t).value == v, (v, t)
                assert Number(0, t).assign(v).value == v, (v, t)
        for value in (Number(300, I32), 2**40, 0.5):  # every other input still reads a row
            with pytest.raises(KeyError):
                convert(value, I16)

    def test_a_subclass_takes_the_fast_path_of_the_number_it_holds(self, monkeypatch):
        for t in ALL_TYPES:
            monkeypatch.setattr(t, "to", {})
        assert convert(_Code.BIG, I16) == 300 and type(convert(_Liar(-7), I8)) is int
        with pytest.raises(KeyError):
            convert(_LiarF(2.5), F32)

    def test_int_subclass_converts_to_a_plain_int(self):
        assert type(convert(_Code.BIG, I16)) is int
        with pytest.raises(NarrowError):
            convert(_Code.BIG, U8)

    def test_an_int_outside_the_target_is_deduced_once(self, monkeypatch):
        from checked import narrowing

        calls = []

        def counted(value):
            calls.append(value)
            return deduced_type(value)

        monkeypatch.setattr(narrowing, "deduced_type", counted)
        assert convert(123, U16) == 123 and calls == []
        with pytest.raises(NarrowError) as info:
            convert(70000, U16)
        assert calls == [70000] and info.value.args == (70000, I32, U16)
        calls.clear()
        assert convert(3, F64) == 3.0 and calls == [3]


class TestSubclassesAreReadAsTheNumberTheyHold:
    """A subclass's own operators cannot pass a value that the checks refuse."""

    @pytest.mark.parametrize("call", [
        lambda: Number(_Liar(300), U8),
        lambda: convert(_Liar(300), U8),
        lambda: convert_to(_Liar(300), I32, U8),
        lambda: Number(0, U8).assign(_Liar(-7)),
        lambda: Number(_LiarF(0.1), F32),
        lambda: Number(_LiarF(2.5), I8),
    ], ids=["Number", "convert", "convert_to", "assign", "Number-f32", "Number-i8"])
    def test_a_liar_is_refused(self, call):
        with pytest.raises(NarrowError):
            call()

    def test_a_liar_deduces_as_the_number_it_holds(self):
        assert deduced_type(_Liar(2**40)) is I64 and deduced_type(_Liar(2**63)) is U64
        with pytest.raises(ConstraintError):
            deduced_type(_Liar(-(2**63) - 1))
        assert Number(_Liar(2**40)).numtype is I64

    def test_a_subclass_is_deduced_once(self, monkeypatch):
        from checked import narrowing

        calls = []

        def counted(value):
            calls.append(value)
            return deduced_type(value)

        monkeypatch.setattr(narrowing, "deduced_type", counted)
        for value, numtype in ((_Code.BIG, I32), (_Liar(2**40), I64), (_LiarF(2.5), F64)):
            calls.clear()
            assert Number(value).numtype is numtype
            assert len(calls) == 1, (value, calls)
        calls.clear()
        assert convert(_Code.BIG, U16) == 300 and calls == []
        with pytest.raises(NarrowError):  # past every fast path: deduced once
            convert(_Liar(2**40), I16)
        assert calls == [2**40] and type(calls[0]) is int

    def test_the_error_shows_the_held_number(self):
        for call in (lambda: convert(_Code.BIG, U8), lambda: convert_to(_Code.BIG, I32, U8),
                     lambda: Number(_Code.BIG, U8)):
            with pytest.raises(NarrowError) as info:
                call()
            assert (info.value.value_text, info.value.source_name) == ("300", "i32")

    def test_the_staged_tests_take_the_value_as_given(self):
        # ``will_narrow`` and ``narrow_checker`` take their argument to be a
        # value of the source type and do not check it, so a liar is tested
        # through its own comparisons.
        assert will_narrow(_Liar(300), I32, U8) is False
        assert narrow_checker(I32, U8)(_Liar(300)) is False
        assert will_narrow(300, I32, U8) is True


class TestOnlyANumberIsANumber:
    """An object that carries ``numtype`` and ``value`` but is no ``Number``
    is refused as every non-number is; a ``Number`` subclass converts."""

    @pytest.mark.parametrize("held", [300, 2.5, 7])
    @pytest.mark.parametrize("call", [
        lambda duck: convert(duck, U8),
        lambda duck: convert(duck, U16),
        lambda duck: Number(duck, U8),
        lambda duck: Number(duck),
        lambda duck: Number(0, U8).assign(duck),
        lambda duck: Span(list(range(8)), duck),
        lambda duck: Span(list(range(8)), 0, duck),
        lambda duck: Span(list(range(8))).check(duck),
        lambda duck: Span(list(range(8)))[duck],
    ], ids=["convert-u8", "convert-u16", "Number", "Number-untyped", "assign", "Span-count",
            "Span-bound", "Span.check", "Span-index"])
    def test_a_look_alike_is_refused(self, call, held):
        duck = type("LooksLikeANumber", (), {"numtype": U8, "value": held})()
        with pytest.raises(ConstraintError, match="^LooksLikeANumber is outside the supported numeric set$"):
            call(duck)

    def test_a_number_subclass_converts(self):
        class Sub(Number):
            __slots__ = ()

        five = Sub(5, U8)
        assert convert(five, U16) == 5 and type(convert(five, F32)) is float
        assert Number(five, U16).value == 5 and Number(five).numtype is U8
        assert Number(0, U16).assign(five).value == 5
        assert len(Span(list(range(8)), five)) == 5 and Span(list(range(8)))[Sub(3, I8)] == 3
        with pytest.raises(NarrowError):
            convert(Sub(300, U16), U8)
        with pytest.raises(NarrowError):
            Span(list(range(8)), Sub(-1, I8))


class _Size(IntEnum):
    TWO = 2
    BUFFER = 2048


class _Pretender(_Liar):
    """A ``_Liar`` that is never below anything, and whose ``&`` says it is a
    power of two."""

    def __lt__(self, other):
        return False

    def __and__(self, other):
        return 0


_NOT_NUMBERS = [True, None, "3", 3j, Fraction(3), Decimal(3)]
_STORE = list(range(8))
# Every entry point that takes a bare value, the value in each of its places.
_INTAKE = {
    "convert": lambda v: convert(v, U16),
    "convert_to": lambda v: convert_to(v, I32, I16),
    "deduced_type": deduced_type,
    "Number": Number,
    "Number-u16": lambda v: Number(v, U16),
    "assign": lambda v: Number(0, U16).assign(v),
    "Span-count": lambda v: Span(_STORE, v),
    "Span-low": lambda v: Span(_STORE, v, 2),
    "Span-high": lambda v: Span(_STORE, 0, v),
    "Span-index": lambda v: Span(_STORE)[v],
    "Span-write": lambda v: Span(list(_STORE)).__setitem__(v, 0),
    "Span.unchecked": lambda v: Span.unchecked(_STORE, v),
    "Span.check": lambda v: Span(_STORE).check(v),
}


class TestOneIntakeRule:
    """Every entry point takes a bare value by one rule: ``bool`` and
    non-numbers are refused with one message, and an int subclass is read as
    the exact int it holds."""

    @pytest.mark.parametrize("value", _NOT_NUMBERS, ids=lambda v: type(v).__name__)
    @pytest.mark.parametrize("entry", _INTAKE)
    def test_a_non_number_is_refused_with_one_message(self, entry, value):
        if value is None and entry in ("Span-count", "Span-high"):
            # None is the absent argument: ``Span(r, None)`` is all of ``r``,
            # and ``Span(r, n, None)`` is ``Span(r, n)``.
            assert len(_INTAKE[entry](value)) == (len(_STORE) if entry == "Span-count" else 0)
            return
        with pytest.raises(ConstraintError) as info:
            _INTAKE[entry](value)
        assert type(info.value) is ConstraintError
        assert str(info.value) == f"{type(value).__name__} is outside the supported numeric set"

    @pytest.mark.parametrize("value", _NOT_NUMBERS, ids=lambda v: type(v).__name__)
    def test_a_bare_operand_is_no_number(self, value):
        for call in (lambda: Number(1) + value, lambda: value + Number(1)):
            with pytest.raises(TypeError) as info:
                call()
            assert type(info.value) is TypeError

    @pytest.mark.parametrize("two", [_Size.TWO, _Pretender(2)], ids=["IntEnum", "liar"])
    def test_a_span_reads_a_subclass_as_the_int_it_holds(self, two):
        assert [len(Span(_STORE, two)), len(Span(_STORE, two, 8)), len(Span(_STORE, 0, two))] == [2, 6, 2]
        assert Span(_STORE)[two] == 2 and len(Span.unchecked(_STORE, two)) == 2
        assert Span(_STORE).check(two) == 2 and type(Span(_STORE).check(two)) is int
        spans = [Span(list(_STORE)) for _ in range(2)]
        spans[0][two], spans[1][2] = -1, -1
        assert list(spans[0]) == list(spans[1])

    @pytest.mark.parametrize("entry", [e for e in _INTAKE if e.startswith("Span")])
    def test_a_lying_subclass_is_refused_by_the_int_it_holds(self, entry):
        with pytest.raises(NarrowError):
            _INTAKE[entry](_Pretender(-1))
        if entry != "Span.unchecked":  # the one entry point that takes the extent on trust
            with pytest.raises(RangeError):
                _INTAKE[entry](_Pretender(9))

    def test_a_buffer_size_is_read_as_the_int_it_holds(self):
        assert len(Buffer(int, _Size.BUFFER)) == 2048
        for size, problem in ((100, "buffer too small: 100 < 1024"),
                              (3000, "size not binary: 3000 is not a power of two")):
            with pytest.raises(ConstraintError) as info:
                Buffer(int, _Pretender(size))
            assert str(info.value) == problem


class _Int(int):
    pass


class _Float(float):
    pass


# The ladder's edges and their neighbours, values past u64 and past i128,
# the float specials, and values that are not bare ints or floats.
_LADDER_EDGES = sorted({v for lo, hi in ((-(2**31), 2**31 - 1), (-(2**63), 2**63 - 1), (0, 2**64 - 1))
                        for edge in (lo, hi) for v in (edge - 1, edge, edge + 1)})
_DIFFERENTIAL_VALUES = [
    *_LADDER_EDGES, 2**70, -(2**70), 2**127,
    0.15625, 0.1, -2.5, 1e39, 2.0**64, -0.0, math.nan, math.inf, -math.inf,
    True, _Code.BIG, _Int(-7), _Int(2**40), _Float(0.5), _Float(0.1),
    _Liar(300), _Liar(-7), _Liar(2**40), _Liar(2**70), _LiarF(0.1), _LiarF(2.5), _LiarF(math.nan),
    Number(7, U8), Number(-2.5, F32), Number(math.inf, F32), Number(math.nan, F64), Number(U64.max, U64),
    "7", None,
]
_WIDE_RANGE = (-(2**127), 2**127 - 1)


def _expected_convert(value, target, wide):
    """``convert(value, target)`` as the documented rules and the exact oracle
    give it: the result, or the type of the error.

    A ``NumType`` target (or its name) takes the value's source type: a
    ``Number``'s own, f64 for a float, and for an int the first rung of the
    i32, i64, u64 ladder that holds it, then the registered wider type
    ``wide``.  The value converts iff the target holds it exactly; NaN only
    into a float type with at least its source's digits, an infinity into
    any float type.  An int or float subclass stands for the exact number it
    holds.  Any other target is the constructor ``target(value)``.
    """
    if isinstance(target, str):
        target = {t.name: t for t in supported_types()}.get(target)
        if target is None:
            return ConstraintError
    if not isinstance(target, NumType):
        return _outcome(target, value)
    value = _held(value)
    if isinstance(value, Number):
        src, value = value.numtype.name, value.value
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        return ConstraintError
    elif isinstance(value, float):
        src = "f64"
    else:
        ladder = [("i32", oracle.INT_RANGES["i32"]), ("i64", oracle.INT_RANGES["i64"]),
                  ("u64", oracle.INT_RANGES["u64"])] + ([(wide.name, _WIDE_RANGE)] if wide else [])
        src = next((name for name, (lo, hi) in ladder if lo <= value <= hi), None)
        if src is None:
            return ConstraintError
    into_float = target.name in oracle.FLOAT_SPECS
    if isinstance(value, float) and math.isnan(value):
        fits = into_float and oracle.FLOAT_SPECS[target.name][0] >= oracle.FLOAT_SPECS[src][0]
    elif isinstance(value, float) and math.isinf(value):
        fits = into_float
    else:
        fits = oracle.representable(value, target.name)
    if not fits:
        return NarrowError
    return float(value) if into_float else int(value)


class TestConvertDifferential:
    """``convert`` against an independent statement of its rules, over every
    dispatch branch: each result equals the oracle's, with the same
    ``type()``, and each error has exactly the documented type."""

    @pytest.mark.parametrize("with_i128", [False, True], ids=["builtin", "i128"])
    def test_every_value_and_target(self, registry, monkeypatch, with_i128):
        wide = None
        if with_i128:
            wide = register_numeric_type("i128", NumericKind.SIGNED_INT, 127, 16)
            monkeypatch.setitem(oracle.INT_RANGES, "i128", _WIDE_RANGE)
        targets = [*supported_types(), *(t.name for t in supported_types()),
                   "u99", int, float, str, Fraction]
        for value in _DIFFERENTIAL_VALUES:
            for target in targets:
                want = _expected_convert(value, target, wide)
                got = _outcome(convert, value, target)
                if isinstance(want, type) and issubclass(want, Exception):
                    assert got is want, (value, target, got, want)
                else:
                    assert _same(got, want), (value, target, got, want)


_WIDE_RANGES = {"i128": (-(2**127), 2**127 - 1), "u128": (0, 2**128 - 1)}
_EDGES = sorted({v for lo, hi in (*oracle.INT_RANGES.values(), *_WIDE_RANGES.values())
                 for edge in (lo, hi) for v in (edge - 1, edge, edge + 1)})
_PROMISE_INTS = st.integers(-(2**130), 2**130) | st.sampled_from(_EDGES)
_PROMISE_FLOATS = (
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-149, 1e-310, math.nan, math.inf, -math.inf])
    | st.integers(-(2**130), 2**130).map(float)
)
_WRAPS = {int: (int, _Int, _Liar, lambda x: IntEnum("_Drawn", {"X": x}).X),
          float: (float, _Float, _LiarF)}


def _is_float(t) -> bool:
    return t.kind is NumericKind.FLOAT


def _holds(t, x) -> bool:
    """Does ``t`` hold the exact number ``x``?  An infinity is a value of
    every float type, NaN of none here (see ``_fits``)."""
    if isinstance(x, float) and not math.isfinite(x):
        return _is_float(t) and math.isinf(x)
    return oracle.representable(x, t.name)


def _fits(x, source, target) -> bool:
    """Does converting ``x``, a value of ``source``, keep it?  NaN converts
    only into a float type at least as precise as its source."""
    if isinstance(x, float) and math.isnan(x):
        return _is_float(target) and target.digits >= source.digits
    return _holds(target, x)


def _ladder(x, types):
    """The type a bare ``x`` deduces to: f64 for a float; for an int the
    first of i32, i64, u64 that holds it, then the narrowest wider type,
    signed first; ``None`` if no type holds it."""
    by_name = {t.name: t for t in types}
    if isinstance(x, float):
        return by_name["f64"]
    for name in ("i32", "i64", "u64", "i128", "u128"):
        lo, hi = oracle.INT_RANGES[name]
        if lo <= x <= hi:
            return by_name[name]
    return None


def _check(got, x, source, target):
    """``got`` is ``x`` unchanged in ``target``, or the documented error:
    ``ConstraintError`` for an int no registered type holds (``source`` is
    ``None``), else ``NarrowError``."""
    if source is None:
        assert got is ConstraintError, (got, x, target)
        return
    if not _fits(x, source, target):
        assert got is NarrowError, (got, x, source, target)
        return
    assert type(got) is (float if _is_float(target) else int), (got, x, target)
    if isinstance(x, float) and not math.isfinite(x):
        assert got == x or (got != got and x != x), (got, x, target)
    else:
        assert Fraction(got) == Fraction(x) and _holds(target, got), (got, x, target)


class TestNoCheckedEntryPointChangesAValue:
    """The headline promise as a property.  Each entry point that takes a
    value gets ints up to +-2**130 and floats of every kind (+-0.0, NaN,
    +-inf, subnormals), each as itself, as a subclass and as a subclass
    whose comparisons lie (ints also as an ``IntEnum`` member), with
    ``i128`` and ``u128`` registered.  A result is an exact ``int`` or
    ``float`` in its target, equal to the exact number the input holds;
    otherwise the documented error is raised.  ``bool`` is refused."""

    @pytest.fixture
    def wide_types(self, registry, monkeypatch):
        for name, (lo, hi) in _WIDE_RANGES.items():
            monkeypatch.setitem(oracle.INT_RANGES, name, (lo, hi))
        register_numeric_type("i128", NumericKind.SIGNED_INT, 127, 16)
        register_numeric_type("u128", NumericKind.UNSIGNED_INT, 128, 16)
        return supported_types()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_entry_point(self, wide_types, data):
        x = data.draw(_PROMISE_INTS | _PROMISE_FLOATS, label="x")
        v = data.draw(st.sampled_from(_WRAPS[type(x)]), label="wrap")(x)
        ladder = _ladder(x, wide_types)
        for target in wide_types:
            _check(_outcome(convert, v, target), x, ladder, target)
            for got in (_outcome(Number, v, target), _outcome(lambda: Number(0, target).assign(v))):
                if isinstance(got, Number):
                    assert got.numtype is target, (got, x, target)
                    got = got.value
                _check(got, x, ladder, target)
            for source in wide_types:
                # An integer type holds ints only; a float type its exact
                # values, NaN and the infinities.
                got = _outcome(convert_to, v, source, target)
                if _is_float(source) and x != x or (_is_float(source) or type(x) is int) and _holds(source, x):
                    _check(got, x, source, target)
                else:
                    assert got is NarrowError, (got, x, source, target)
        # Number(v) takes the type the exact number deduces to.
        got = _outcome(Number, v)
        if ladder is None:
            assert got is ConstraintError, (got, x)
        else:
            assert deduced_type(v) is ladder and type(got) is Number and got.numtype is ladder, (got, x)
            _check(got.value, x, ladder, ladder)
        # A one-bound window is [0, v): a u32 count no larger than the store.
        got = _outcome(lambda: len(Span(list(range(8)), v)))
        if _fits(x, ladder, U32) and x > 8:
            assert got is RangeError, (got, x)
        else:
            _check(got, x, ladder, U32)

    @pytest.mark.parametrize("v", [False, True])
    def test_bool_is_refused_at_every_entry_point(self, wide_types, v):
        calls = [lambda: Number(v), lambda: Span(list(range(8)), v), lambda: Span([1, 2]).check(v)]
        for target in wide_types:
            calls += [lambda t=target: convert(v, t), lambda t=target: Number(v, t),
                      lambda t=target: Number(0, t).assign(v)]
            calls += [lambda s=source, t=target: convert_to(v, s, t) for source in wide_types]
        for call in calls:
            assert _outcome(call) is ConstraintError


class TestSoftFloat16:
    def test_small_integers_round_trip(self):
        for v in range(-255, 256):
            assert SF16.cast(float(v)) == v

    def test_rounding_is_to_nearest_even(self):
        assert SF16.cast(257.0) == 256.0
        assert SF16.cast(259.0) == 260.0
        assert SF16.cast(301.0) == 300.0
        # once from f64: rounding through f32 would land on the tie 1 + 2**-8
        assert SF16.cast(1 + 2**-8 + 2**-30) == 1.0078125

    def test_matches_oracle_on_random_floats(self):
        rng = random.Random(7)
        for _ in range(5000):
            v = rng.uniform(-1e5, 1e5)
            assert (SF16.cast(v) == v) is oracle.representable(v, "sf16")


# name -> (digits, min_exp, max_exp) of the binary float types with a rounding cast
_BINARY_FLOATS = {"f32": (24, -126, 127), "sf16": (8, -126, 127)}
_F32_STRUCT = struct.Struct("<f")


def _cast_probes(digits, min_exp, max_exp):
    """Values where rounding into the type can go wrong, both signs."""
    sub = 2.0 ** (min_exp - digits + 1)  # smallest subnormal, the subnormal quantum
    tiny = 2.0 ** min_exp
    top = (2 ** digits - 1) * 2.0 ** (max_exp + 1 - digits)
    huge = 2.0 ** (max_exp + 1) - 2.0 ** (max_exp - digits)  # rounds up to infinity
    values = [
        0.0, sub, sub / 2, sub * 1.5, sub * 2.5, tiny - sub, tiny, tiny + sub,
        tiny - sub / 2, top, huge, math.nextafter(huge, 0.0), math.nextafter(huge, math.inf),
        2**53 - 1, 2**53, 2**53 + 1, 2**63 + 2**39, 2**63 + 2**39 + 1, 2**63 + 3 * 2**39,
        2**64 - 1, 2**24 + 2**16, 2**24 + 2**16 + 1, 2**60 + 2**52, 2**60 + 3 * 2**52,
        1 + 2.0**-8 + 2.0**-30, 1e39, 1.7976931348623157e308,
    ]
    for e in (min_exp - 4, min_exp, min_exp + 1, -20, -1, 0, 1, digits, 60, max_exp - 1, max_exp):
        quantum = 2.0 ** max(e - digits + 1, min_exp - digits + 1)
        for k in (0, 1, 2, 3):
            tie = 2.0**e + k * quantum + quantum / 2
            values += [tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)]
    return values + [-v for v in values]


def _random_doubles(rng, n):
    """Seeded f64 bit patterns: half of them anywhere, half with an exponent
    near the f32 range."""
    out = []
    for _ in range(n):
        bits = rng.getrandbits(64)
        if len(out) % 2:
            bits = (bits & ~(0x7FF << 52)) | ((1023 + rng.randint(-160, 130)) << 52)
        out.append(struct.unpack("<d", bits.to_bytes(8, "little"))[0])
    return out


def _rounded(value, name):
    """The oracle's rounding, with the sign of a zero and non-finite values."""
    if isinstance(value, float) and not math.isfinite(value):
        return value
    return math.copysign(oracle.round_to_float_type(value, name), value)


class TestRoundingCasts:
    """F32 and SF16 round once, to nearest, ties to even, from the exact value."""

    @pytest.mark.parametrize("name", sorted(_BINARY_FLOATS))
    def test_boundary_values_match_the_exact_oracle(self, name):
        cast = numeric_type(name).cast
        probes = _cast_probes(*_BINARY_FLOATS[name]) + [math.inf, -math.inf, math.nan]
        for value in probes:
            assert _same(cast(value), _rounded(value, name)), (value, name)

    @pytest.mark.parametrize("name", sorted(_BINARY_FLOATS))
    def test_random_doubles_match_the_exact_oracle(self, name):
        cast = numeric_type(name).cast
        for value in _random_doubles(random.Random(2024), 20000):
            assert _same(cast(value), _rounded(value, name)), (value, name)

    def test_f32_matches_a_struct_round_trip_on_floats(self):
        def packed(d):
            try:
                return _F32_STRUCT.unpack(_F32_STRUCT.pack(d))[0]
            except OverflowError:  # rounds past the largest finite f32
                return math.copysign(math.inf, d)

        values = _cast_probes(*_BINARY_FLOATS["f32"]) + _random_doubles(random.Random(11), 20000)
        for value in values + [math.inf, -math.inf, math.nan]:
            d = float(value)
            assert _same(F32.cast(d), packed(d)), d

    def test_integers_past_the_largest_float_round_to_infinity(self):
        assert F64.cast(10**400) == math.inf and F64.cast(-(10**400)) == -math.inf
        assert F32.cast(10**400) == math.inf

    def test_sign_of_zero_is_kept(self):
        for name in _BINARY_FLOATS:
            cast = numeric_type(name).cast
            sub = 2.0 ** (_BINARY_FLOATS[name][1] - _BINARY_FLOATS[name][0] + 1)
            for zero in (0.0, -0.0, sub / 4, -sub / 4):
                assert _same(cast(zero), math.copysign(0.0, zero)), (zero, name)
            assert _same(cast(0), 0.0)


def _inline_probes():
    """Where a converter's or a plan's own rounding into f32 or sf16 meets the
    cast, both signs: the smallest normal and one ulp (of f64, and of the type)
    below it, the rounding midpoint to infinity and one ulp either side of it,
    the largest finite value, ties at several exponents and one ulp either
    side, with the powers of two and half-quanta whose sums are such ties,
    zero, NaN, the infinities, and ints about 2**53 and beyond 2**63."""
    values = [0.0, 1.0, 3, math.nan, math.inf, 2**53 - 1, 2**53, 2**53 + 1, 2**63 + 2**39 + 1]
    for digits, min_exp, max_exp in _BINARY_FLOATS.values():
        tiny, sub = 2.0 ** min_exp, 2.0 ** (min_exp - digits + 1)
        huge = 2.0 ** (max_exp + 1) - 2.0 ** (max_exp - digits)
        values += [tiny, math.nextafter(tiny, 0.0), tiny - sub, sub, huge, math.nextafter(huge, 0.0),
                   math.nextafter(huge, math.inf), (2**digits - 1) * 2.0 ** (max_exp + 1 - digits)]
        for e in (min_exp, min_exp + 1, -1, 0, digits, 60, max_exp):
            half = 2.0 ** (e - digits)  # half the quantum at 2**e
            tie = 2.0**e + half
            values += [2.0**e, half, 3 * half, tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)]
    return values + [-v for v in values]


def _cast_then_compare(value, src, dst):
    """The reference converter: ``dst.cast``, refused unless the value is unchanged."""
    result = dst.cast(value)
    if result == value:
        return result
    raise NarrowError(value, src, dst)


def _op_reference(float_op, x, y, a, b, c):
    """The reference plan operation: an operand is converted by the reference
    where its pair can narrow, the result goes through ``c.cast``, and a zero
    divisor, or a non-finite result from finite operands, is an overflow."""
    u = _cast_then_compare(x, a, c) if can_narrow(a, c) else x
    v = _cast_then_compare(y, b, c) if can_narrow(b, c) else y
    try:
        r = c.cast(float_op(u, v))
    except ZeroDivisionError:
        raise CheckedOverflowError("div", (u, v), "divide-by-zero") from None
    if math.isfinite(r) or not (math.isfinite(u) and math.isfinite(v)):
        return r
    raise CheckedOverflowError("op", (u, v))


class TestInlineRounding:
    """The converters into f32 and sf16, and the plans with either as the
    common type, round the cast's normal range in their own frame: every one
    returns what the cast-then-compare reference returns, or raises its error.
    ``bf16_test`` is registered with ``SF16.cast``, so it rounds in frame too.
    At exactly the smallest normal the split and the cast agree, and at the
    midpoint to infinity a converter refuses either way, so a bound moved by
    one comparison shows in which values reach the cast, not in the outcome."""

    @pytest.fixture
    def targets(self, registry):
        return F32, SF16, register_numeric_type("bf16_test", NumericKind.FLOAT, 8, 2, cast=SF16.cast)

    def test_every_converter_into_the_rounded_types(self, targets):
        probes = _inline_probes()
        cases = 0
        for dst in targets:
            for src in supported_types():
                if src.checks[dst] is None:  # the builtin ``float``, exact for a value of ``src``
                    assert src.to[dst] is float
                    continue
                for value in probes:
                    got = _outcome(src.to[dst], value)
                    want = _outcome(_cast_then_compare, value, src, dst)
                    assert _same(got, want), (value, src, dst, got, want)
                    cases += 1
        assert cases == (5 + 8 + 8) * len(probes)  # from i32, u32, i64, u64 and f64 into each; i16, u16, f32 too into sf16's

    def test_every_plan_with_a_rounded_common_type(self, targets):
        probes = _inline_probes()
        values = {t: [v for v in probes if type(v) is (int if t.min is not None else float)
                      and (t.min is None and (v != v or t.cast(v) == v) or t.min is not None and t.min <= v <= t.max)]
                  for t in supported_types()}
        ops = [(index, op) for index, op in enumerate((operator.add, operator.sub, operator.mul, operator.truediv), 1)]
        pairs = [(a, b) for a in supported_types() for b in supported_types() if a.plans[b][0] in targets]
        assert len(pairs) > 30
        for a, b in pairs:
            c = a.plans[b][0]
            for x in values[a]:
                for y in values[b]:
                    for index, op in ops:
                        got = _outcome(a.plans[b][index], x, y)
                        want = _outcome(_op_reference, op, x, y, a, b, c)
                        assert _same(got, want), (op, x, y, a, b, got, want)

    def test_the_cast_sees_only_what_is_outside_the_normal_range(self, registry):
        """A converter sends the cast zero, a subnormal, the midpoint to
        infinity and beyond, NaN, an infinity, and an int beyond 2**53, and
        nothing else; a plan sends it only such a result."""
        seen = []

        def probe(value):
            seen.append(value)
            return SF16.cast(value)

        probe.normal = split, tiny, huge = SF16.cast.normal
        t = register_numeric_type("probe_test", NumericKind.FLOAT, 8, 2, cast=probe)

        def outside(v):
            d = float(v) if type(v) is int and abs(v) <= 2**53 else v
            return type(d) is not float or not tiny <= abs(d) < huge

        probes = _inline_probes()
        for src in supported_types():
            if src.checks[t] is not None:
                for value in probes:
                    seen.clear()
                    _outcome(src.to[t], value)
                    assert seen == ([value] if outside(value) else []), (src, value)
        values = [v for v in probes if type(v) is float and (v != v or probe(v) == v)]
        for index, op in enumerate((operator.add, operator.sub, operator.mul, operator.truediv), 1):
            for x in values:
                for y in values:
                    r = _outcome(op, x, y)
                    seen.clear()
                    _outcome(t.plans[t][index], x, y)
                    want = [r] if type(r) is float and outside(r) else []
                    assert len(seen) == len(want) and all(map(_same, seen, want)), (op, x, y, seen)

    def test_the_constants_are_the_casts_own(self, targets):
        """Each rounded type rounds in frame with its cast's own split, smallest
        normal and rounding midpoint to infinity, and a type registered with
        ``SF16.cast`` takes sf16's converters."""
        for name, (digits, min_exp, max_exp) in _BINARY_FLOATS.items():
            normal = (2.0 ** (53 - digits) + 1, 2.0**min_exp, 2.0 ** (max_exp + 1) - 2.0 ** (max_exp - digits))
            assert numeric_type(name).cast.normal == normal
        assert all(t.to[targets[2]].__code__ is t.to[SF16].__code__ for t in (I32, U64, F32, F64))
        assert not hasattr(F64.cast, "normal")

    def test_each_cast_publishes_its_exact_int_lane(self):
        """Every int up to the lane is a normal value of the cast's type; a
        rounding cast whose 1 or 2**digits is not normal publishes none."""
        from checked.narrowing import _rounding_cast

        assert (F32.cast.lane, SF16.cast.lane, F64.cast.lane) == (2**24, 2**8, 2**53)
        assert hasattr(_rounding_cast(8, 0, 8), "lane")
        assert not hasattr(_rounding_cast(8, 0, 7), "lane") and not hasattr(_rounding_cast(8, 1, 127), "lane")


_F16_STRUCT = struct.Struct("<e")


def _f16_cast(value):
    """IEEE binary16 through ``struct``, which raises ``OverflowError`` past its range."""
    return _F16_STRUCT.unpack(_F16_STRUCT.pack(float(value)))[0]


def _picky_cast(value):
    """An f32 cast that raises ``ValueError`` for a magnitude of 2**20 or more."""
    if abs(value) >= 2**20:
        raise ValueError("too large for this cast")
    return F32.cast(value)


class TestARegisteredCastsOwnErrors:
    """A registered float cast's own ``OverflowError`` or ``ValueError`` is a
    refusal: ``NarrowError`` from a converter, from ``convert_to``'s source
    rule and from a comparison's operand rounding, and ``CheckedOverflowError``
    from a ``Number`` operation's result."""

    @pytest.fixture
    def f16(self, registry):
        return register_numeric_type("f16_test", NumericKind.FLOAT, 11, 2, cast=_f16_cast)

    def test_conversions_refuse(self, f16):
        calls = [lambda: Number(2.0**100, f16), lambda: convert(2.0**100, f16),
                 lambda: convert_to(2.0**100, F64, f16), lambda: convert_to(2.0**100, f16, F64),
                 lambda: convert(2**40, f16), lambda: Number(2**40, I64) + Number(1.0, f16)]
        for call in calls:
            with pytest.raises(NarrowError) as info:
                call()
            assert info.value.args[0] in (2.0**100, 2**40)
        assert Number(65504.0, f16).value == 65504.0 and convert(2.0**-24, f16) == 2.0**-24

    @pytest.mark.parametrize("op", [operator.add, operator.mul, operator.truediv])
    def test_an_unrepresentable_result_overflows(self, f16, op):
        with pytest.raises(CheckedOverflowError) as info:
            op(Number(6e4, f16), Number(6e4 if op is not operator.truediv else 2.0**-24, f16))
        assert info.value.operation == op.__name__.replace("truediv", "div")
        assert info.value.reason == "result not representable"
        assert (Number(6e4, f16) - Number(6e4, f16)).value == 0.0

    # ``!=`` is Python's inversion of ``__eq__``, so it refuses through it
    @pytest.mark.parametrize("op", [operator.lt, operator.eq, operator.ge, compare_lt,
                                    operator.gt, operator.le, operator.ne])
    def test_comparisons_refuse(self, f16, op):
        with pytest.raises(NarrowError) as info:
            op(Number(2**40, I64), Number(1.0, f16))
        assert info.value.args == (2**40, I64, f16)
        assert op(Number(2**10, I64), Number(1.0, f16)) is (op in (operator.ge, operator.gt, operator.ne))

    def test_a_right_hand_operand_is_refused_by_its_own_rounding(self, f16):
        for other in (Number(2**40, I64), 2**40):  # a bare int is deduced i64 first
            with pytest.raises(NarrowError) as info:
                Number(1.0, f16) < other
            assert info.value.args == (2**40, I64, f16)
        assert (Number(1.0, f16) < Number(2**10, I64)) is True

    def test_built_in_plans_round_with_the_casts_themselves(self):
        rounded = 0
        for a in ALL_TYPES:
            for b in ALL_TYPES:
                c, *_, rounding = a.plans[b]
                if c.kind is not NumericKind.FLOAT:
                    assert rounding is None, (a, b)
                round_a, _, round_b, _ = rounding or (None, -1, None, -1)
                want = [c.cast if c.kind is NumericKind.FLOAT and t.checks[c] is not None else None for t in (a, b)]
                assert round_a is want[0] and round_b is want[1], (a, b)
                rounded += (round_a is not None) + (round_b is not None)
        assert rounded > 0

    def test_a_value_error_is_a_refusal(self, registry):
        picky = register_numeric_type("picky_test", NumericKind.FLOAT, 24, 4, cast=_picky_cast)
        for call in (lambda: Number(2.0**21, picky), lambda: convert_to(2.0**21, picky, F64),
                     lambda: Number(2**21, I32) < Number(1.0, picky)):
            with pytest.raises(NarrowError):
                call()
        with pytest.raises(CheckedOverflowError):
            Number(2.0**19, picky) * Number(4.0, picky)
        assert (Number(2.0**19, picky) + Number(1.5, picky)).value == 2.0**19 + 1.5


@pytest.fixture
def np():
    """numpy as a second, independent oracle; the test skips without it."""
    return pytest.importorskip("numpy")


# this library's type name -> numpy dtype name (numpy has no bfloat16)
_NUMPY_DTYPES = {
    "i8": "int8", "u8": "uint8", "i16": "int16", "u16": "uint16", "i32": "int32",
    "u32": "uint32", "i64": "int64", "u64": "uint64", "f32": "float32", "f64": "float64",
}
_NUMPY_PAIRS = [(a, b) for a in _NUMPY_DTYPES for b in _NUMPY_DTYPES]


class TestNumpyOracle:
    """numpy's casts, safe-cast table and promotion against this library's.

    numpy rounds an int into float32 through float64 (twice), so only f64
    inputs are compared with its casts.  Its casting and promotion rules
    differ from this library's on purpose in a few places; those places are
    pinned, so that any new disagreement fails.
    """

    def test_f32_cast_matches_numpy_on_doubles(self, np):
        values = _cast_probes(*_BINARY_FLOATS["f32"]) + _random_doubles(random.Random(5), 20000)
        with np.errstate(over="ignore"):
            for value in values + [math.inf, -math.inf, math.nan]:
                d = float(value)
                assert _same(F32.cast(d), float(np.float32(d))), d

    def test_safe_casts_are_the_pairs_that_cannot_narrow(self, np):
        # numpy calls an int64 or uint64 into float64 safe; 2**53 + 1 disagrees.
        differ = {(a, b) for a, b in _NUMPY_PAIRS
                  if np.can_cast(_NUMPY_DTYPES[a], _NUMPY_DTYPES[b], "safe") == can_narrow(a, b)}
        assert differ == {("i64", "f64"), ("u64", "f64")}

    def test_promotion_differs_only_on_the_pinned_pairs(self, np):
        # numpy (NEP 50) widens a mixed-sign pair to a signed type (or f64)
        # that holds both, and a wide integer with f32 to f64; this lattice
        # keeps an operand type and checks the operands instead.
        differ = {(a, b) for a, b in _NUMPY_PAIRS
                  if np.promote_types(_NUMPY_DTYPES[a], _NUMPY_DTYPES[b])
                  != np.dtype(_NUMPY_DTYPES[common_type(a, b).name])}
        pinned = [
            ("i8", "u8"), ("i8", "u16"), ("i8", "u32"), ("i8", "u64"), ("i16", "u16"),
            ("i16", "u32"), ("i16", "u64"), ("i32", "u32"), ("i32", "u64"), ("i64", "u64"),
            ("i32", "f32"), ("u32", "f32"), ("i64", "f32"), ("u64", "f32"),
        ]
        assert differ == {p for a, b in pinned for p in ((a, b), (b, a))}
        assert len(differ) == 28


class _Color(Enum):
    RED = 1
    BLUE = 2


@dataclass
class _Pair:
    first: object
    second: object


def _convert_pair(pair, first_target, second_target):
    return _Pair(convert(pair.first, first_target), convert(pair.second, second_target))


class TestConvertDispatch:
    def test_explicit_restores_text(self):
        assert convert("abc", str) == "abc"

    def test_enum_identity(self):
        assert convert(_Color.RED, _Color) is _Color.RED

    def test_checked_overload_wins_for_numeric_targets(self):
        assert convert(7, I16) == 7
        with pytest.raises(NarrowError):
            convert(70000, I16)

    def test_pair_elementwise(self):
        pair = _convert_pair(_Pair("a", 1), str, I64)
        assert pair == _Pair("a", 1)
        with pytest.raises(NarrowError):
            _convert_pair(_Pair("a", 300), str, I8)

    def test_inconvertible_pair_rejected_by_constructor(self):
        with pytest.raises(ValueError):
            convert("abc", int)

    def test_bool_is_outside_the_numeric_set(self):
        with pytest.raises(ConstraintError):
            convert(True, I32)

    def test_type_name_target_resolves_like_number(self):
        assert convert(7, "i16") == 7
        with pytest.raises(NarrowError):
            convert(70000, "i16")
        with pytest.raises(ConstraintError, match="unknown numeric type 'u99'"):
            convert(5, "u99")
        with pytest.raises(ConstraintError, match="unknown numeric type 'u99'"):
            Number(5, "u99")


def _spec_outcome(call):
    """What ``call()`` returns, or the class and text of what it raises."""
    try:
        return call()
    except Exception as exc:  # the class itself is compared, not caught by kind
        return type(exc), str(exc)


class TestTypeSpecForms:
    """A type, its name and its traits are one spec: every entry point that
    reads a spec gives the same result, or the same error, for each form."""

    VALUES = (0, 1, -1, 300, 2**40, 0.5, 1e300)

    @pytest.mark.parametrize("a", ALL_TYPES, ids=lambda t: t.name)
    def test_two_spec_entry_points(self, a):
        for b in ALL_TYPES:
            for sa, sb in ((a.name, b.name), (a.traits, b.traits), (a, b.traits), (a.traits, b.name)):
                assert can_narrow(sa, sb) is can_narrow(a, b)
                assert narrow_checker(sa, sb) is narrow_checker(a, b)
                assert common_type(sa, sb) is common_type(a, b)
                for v in self.VALUES:
                    for call in (will_narrow, convert_to):
                        assert _spec_outcome(lambda: call(v, sa, sb)) == _spec_outcome(lambda: call(v, a, b))

    @pytest.mark.parametrize("t", ALL_TYPES, ids=lambda t: t.name)
    def test_one_spec_entry_points(self, t):
        assert numeric_type(t.traits) is numeric_type(t.name) is t
        assert traits_of(t.traits) == traits_of(t.name) == t.traits
        for v in (*self.VALUES, Number(7, U8)):
            want = _spec_outcome(lambda: convert(v, t))
            assert _spec_outcome(lambda: convert(v, t.traits)) == want
            number = _spec_outcome(lambda: Number(v, of=t))
            by_traits = _spec_outcome(lambda: Number(v, of=t.traits))
            if type(number) is Number:
                assert (by_traits.value, by_traits.numtype) == (number.value, number.numtype)
            else:
                assert by_traits == number

    def test_traits_no_type_has_are_refused(self):
        odd = NumericTraits(NumericKind.SIGNED_INT, 23, 3)
        calls = (lambda: numeric_type(odd), lambda: traits_of(odd), lambda: can_narrow(odd, I8),
                 lambda: narrow_checker(I8, odd), lambda: will_narrow(1, odd, I8),
                 lambda: convert_to(1, I8, odd), lambda: common_type(I8, odd),
                 lambda: convert(1, odd), lambda: Number(1, of=odd))
        for call in calls:
            assert _spec_outcome(call) == (ConstraintError, f"no registered type has traits {odd}")

    def test_a_plain_tuple_is_not_a_spec(self):
        with pytest.raises(ConstraintError, match="cannot interpret"):
            numeric_type(tuple(I8.traits))

    def test_equal_traits_resolve_to_the_first_registered(self, registry):
        bf16 = register_numeric_type("bf16_test", NumericKind.FLOAT, 8, 2, cast=SF16.cast)
        assert bf16.traits == SF16.traits
        assert numeric_type("bf16_test") is bf16
        assert numeric_type(SF16.traits) is SF16
        assert common_type(bf16.traits, I8) is SF16
        assert Number(1.5, of=bf16.traits).numtype is SF16
        registry()
        assert numeric_type(SF16.traits) is SF16


class TestDeducedType:
    def test_ladder(self):
        assert deduced_type(1) is I32
        assert deduced_type(2**31 - 1) is I32
        assert deduced_type(2**31) is I64
        assert deduced_type(-(2**40)) is I64
        assert deduced_type(1.2) is F64

    def test_top_rung_is_u64(self):
        assert deduced_type(2**63) is U64
        assert deduced_type(2**64 - 1) is U64

    def test_rejections(self):
        with pytest.raises(ConstraintError):
            deduced_type(2**64)
        with pytest.raises(ConstraintError):
            deduced_type(-(2**63) - 1)
        with pytest.raises(ConstraintError):
            deduced_type(True)
        with pytest.raises(ConstraintError):
            deduced_type("7")


class TestRegistration:
    def test_new_integer_type_integrates(self, registry):
        i128 = register_numeric_type("i128_test", NumericKind.SIGNED_INT, 127, 16)
        assert can_narrow(i128, I64) is True
        assert can_narrow(I64, i128) is False
        assert will_narrow(2**100, i128, I64) is True
        assert convert_to(5, i128, I8) == 5
        # in the wide type's range, though no built-in type holds it
        assert Number(2**100, i128).value == convert(2**100, i128) == 2**100
        assert Number(2**100, "i128_test").value == convert(2**100, "i128_test") == 2**100
        for v in (i128.min, i128.max):
            assert Number(v, i128).value == convert(v, i128) == v
        # decided: a bare int that no registered type holds stays refused
        with pytest.raises(ConstraintError, match="register a wider one"):
            convert(i128.max + 1, i128)
        assert narrow_checker(I64, i128) is None
        # Every row of every type has all 12 columns when registration returns.
        for t in supported_types():
            assert len(t.to) == len(t.checks) == len(t.plans) == 12, t
        assert I64.to[i128] is int
        with pytest.raises(NarrowError):
            i128.to[I64](2**100)
        # The plan rows of a type registered after import.
        assert common_type(i128, I64) is i128
        total = Number(5, i128) + Number(1, I64)
        assert total.numtype is i128 and total.value == 6
        assert Number(1, I64) < Number(5, i128) and Number(-5, i128) < Number(U64.max, U64)
        with pytest.raises(CheckedOverflowError) as info:
            Number(5, i128) / Number(0, I64)
        assert info.value.reason == "divide-by-zero"
        # A bare int past the built-in ladder deduces to the narrowest
        # wider registered type, the signed one first at equal width.
        u128 = register_numeric_type("u128_test", NumericKind.UNSIGNED_INT, 128, 16)
        assert Number(2**100).numtype is i128
        assert Number(-(2**100)).numtype is i128
        assert Number(2**127).numtype is u128
        assert Number(2**63).numtype is U64
        total = Number(5, i128) + 2**100
        assert total == Number(2**100 + 5, i128) and total.numtype is i128
        # A registered type is a record field, naturally aligned.
        wide = register_record("WideTest", [("a", "i128_test"), ("b", "i8")])
        assert [(m.name, m.offset, m.size) for m in layout_of(wide)] == [("a", 0, 16), ("b", 16, 1)]
        assert record_size(wide) == 32
        registry()
        assert len(NARROWING_MATRIX) == len(ALL_TYPES) ** 2 == 121
        message = f"integer {2**64} does not fit any supported type; register a wider one or pass an explicit type"
        with pytest.raises(ConstraintError, match=f"^{re.escape(message)}$"):
            Number(2**64)

    def test_every_row_gains_the_new_column_until_restored(self, registry):
        old = supported_types()
        u24 = register_numeric_type("u24_test", NumericKind.UNSIGNED_INT, 24, 3)
        assert supported_types() == (*old, u24)
        for t in (*old, u24):
            assert list(t.to) == list(t.checks) == list(t.plans) == [*old, u24], t
        assert U32.to[u24](5) == 5 and U8.checks[u24] is None and I8.plans[u24][0] is u24
        registry()
        assert supported_types() == old and ("u24_test", "u8") not in NARROWING_MATRIX
        for t in old:
            assert list(t.to) == list(t.checks) == list(t.plans) == list(old), t

    def test_invalid_registrations_rejected(self):
        with pytest.raises(ConstraintError):
            register_numeric_type("i8", NumericKind.SIGNED_INT, 7, 1)
        with pytest.raises(ConstraintError):
            register_numeric_type("badsigned", NumericKind.SIGNED_INT, 8, 1)
        with pytest.raises(ConstraintError):
            register_numeric_type("badfloat", NumericKind.FLOAT, 16, 2)
        with pytest.raises(ConstraintError):
            register_numeric_type("no cast", NumericKind.FLOAT, 8, 2)

    @pytest.mark.parametrize("kind, digits, byte_size, problem", [
        (NumericKind.SIGNED_INT, 0, 1, "at least 1"),
        (NumericKind.UNSIGNED_INT, 8, 0, "at least 1"),
        (NumericKind.UNSIGNED_INT, 7, 1, "digits must be 8"),
        (NumericKind.FLOAT, 8, 2, "rounding cast is required"),
    ])
    def test_refused_shapes_register_nothing(self, registry, kind, digits, byte_size, problem):
        old = supported_types()
        with pytest.raises(ConstraintError, match=problem):
            register_numeric_type("refused_test", kind, digits, byte_size)
        assert supported_types() == old

    @pytest.mark.parametrize("kind, digits, byte_size, cast, problem", [
        ("float", 8, 2, float, "is not a NumericKind"),
        (None, 8, 1, None, "is not a NumericKind"),
        (NumericKind.UNSIGNED_INT, 8.0, 1, None, "must be ints"),
        (NumericKind.UNSIGNED_INT, 8, 1.0, None, "must be ints"),
        (NumericKind.SIGNED_INT, 7, True, None, "must be ints"),
        (NumericKind.FLOAT, 8, 2, 2.0, "rounding cast is required"),
        (NumericKind.SIGNED_INT, 127, 16, round, "cast is derived from the width"),
        (NumericKind.UNSIGNED_INT, 8, 1, int, "cast is derived from the width"),
    ], ids=repr)
    def test_bad_arguments_touch_no_registry(self, registry, kind, digits, byte_size, cast, problem):
        old, matrix = supported_types(), dict(NARROWING_MATRIX)
        with pytest.raises(ConstraintError, match=problem):
            register_numeric_type("bogus", kind, digits, byte_size, cast=cast)
        assert supported_types() == old and dict(NARROWING_MATRIX) == matrix
        with pytest.raises(ConstraintError, match="unknown numeric type 'bogus'"):
            convert(1, "bogus")
