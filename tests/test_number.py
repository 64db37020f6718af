import copy
import math
import operator
import pickle
import random
import sys

import pytest
from hypothesis import given, strategies as st

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
    CheckedOverflowError,
    ConstraintError,
    NarrowError,
    Number,
    NumericKind,
    NumericTraits,
    common_type,
    compare_lt,
    convert,
    register_numeric_type,
    supported_types,
    traits_of,
)

import oracle

ALL_TYPES = supported_types()
INT_TYPES = [t for t in ALL_TYPES if t.kind is not NumericKind.FLOAT]

COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)

# Values at the edges of every type and of every float's exact-integer range.
_INT_PROBES = (
    0, 1, -1, 127, -128, 128, 255, 256, 257, 2**15 - 1, -(2**15), 2**16 - 1,
    2**24 - 1, 2**24, 2**24 + 1, -(2**24 + 1), 2**31 - 1, -(2**31), 2**32 - 1,
    2**53, 2**53 + 1, -(2**53 + 1), 2**63 - 1, -(2**63), 2**64 - 1,
)
_FLOAT_PROBES = (
    0.0, -0.0, 0.5, -1.5, 2.0**24 + 2, 2.0**63, 2.0**64, 255.0 * 2.0**120,
    3.4028234663852886e38, 1.7976931348623157e308, 5e-324,
    math.inf, -math.inf, math.nan,
) + tuple(float(v) for v in _INT_PROBES)


# A smaller set for the four arithmetic operations: the values their rules
# turn on (signs, truncation, type limits, float overflow and underflow).
_ARITH_INT_PROBES = (
    0, 1, -1, 2, 3, -7, 127, -128, 255, 2**15 - 1, -(2**15), 2**16 - 1,
    2**24 + 1, 2**31 - 1, -(2**31), 2**32 - 1, 2**53 + 1, 2**63 - 1, -(2**63), 2**64 - 1,
)
_ARITH_FLOAT_PROBES = (
    0.0, -0.0, 0.5, -1.5, 3.0, 2.0**24 + 2, 2.0**-140, 5e-324,
    3.4028234663852886e38, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
)
ARITH_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def _boundary_numbers(t, int_probes=_INT_PROBES, float_probes=_FLOAT_PROBES):
    """Every probe the type holds, as Numbers of that type."""
    probes = float_probes if t.kind is NumericKind.FLOAT else int_probes
    numbers = []
    for v in probes:
        try:
            numbers.append(Number(v, t))
        except NarrowError:
            pass
    return numbers


def _arith_outcome(fn, x, y):
    """``fn(x, y)`` in the form of ``oracle.arith``."""
    try:
        r = fn(x, y)
    except (NarrowError, CheckedOverflowError) as e:
        return ("refused", type(e).__name__, getattr(e, "reason", None))
    return ("ok", r.numtype.name, r.value)


def _same_outcome(got, want) -> bool:
    if got[:2] != want[:2]:
        return False
    g, w = got[2], want[2]
    if want[0] == "refused" or type(g) is not type(w):
        return g == w
    return g == w or (isinstance(w, float) and math.isnan(w) and math.isnan(g))


class TestConstruction:
    def test_unsigned_from_negative_throws(self):
        with pytest.raises(NarrowError):
            Number(-2, U32)

    def test_narrow_int_from_large_throws(self):
        with pytest.raises(NarrowError):
            Number(1234, I8)

    def test_plain(self):
        n = Number(42, I32)
        assert n.value == 42 and n.numtype is I32

    def test_from_number_converts(self):
        n = Number(Number(7, I8), U64)
        assert n.numtype is U64 and n.value == 7
        with pytest.raises(NarrowError):
            Number(Number(-7, I8), U64)

    def test_an_untyped_number_keeps_its_type_and_value(self):
        for n in (Number(5, U8), Number(2.5, F32)):
            copy = Number(n)
            assert copy.numtype is n.numtype and copy.value == n.value
            assert type(copy.value) is type(n.value)

    def test_no_unchecked_construction_surface(self):
        # Everything reachable publicly went through the checked conversion.
        with pytest.raises(NarrowError):
            Number(0.5, I32)
        with pytest.raises(ConstraintError):
            Number("5")


class TestTruth:
    @pytest.mark.parametrize("t", ALL_TYPES, ids=lambda t: t.name)
    def test_a_number_is_as_true_as_its_value(self, t):
        numbers = _boundary_numbers(t)
        assert len(numbers) > 3
        for n in numbers:
            assert bool(n) is bool(n.value), n
        assert not Number(0, t) and Number(1, t)
        if t.kind is NumericKind.FLOAT:  # NaN is truthy, as bool(nan) is
            nan = Number(math.inf, t) - Number(math.inf, t)
            assert nan.numtype is t and math.isnan(nan.value) and nan
            assert not Number(-0.0, t) and Number(-1.5, t)

    def test_an_untyped_zero_is_false(self):
        assert not Number(0) and not Number(0.0) and not Number(-0.0)
        assert Number(-1) and Number(2**63) and Number(math.nan) and Number(math.inf)


class TestCopyAndPickle:
    """A ``NumType`` copies and pickles as its interned instance, so a copied
    or unpickled ``Number`` keeps its type's rows; a ``Number`` is checked
    in again by ``convert_to``'s source rule, so a forged value is refused."""

    _COPIES = [copy.copy, copy.deepcopy] + [
        lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]

    @pytest.mark.parametrize("t", ALL_TYPES, ids=lambda t: t.name)
    def test_a_type_copies_as_itself(self, t):
        assert all(duplicate(t) is t for duplicate in self._COPIES)

    @pytest.mark.parametrize("t", ALL_TYPES, ids=lambda t: t.name)
    def test_a_number_copies_at_every_protocol(self, t):
        values = (t.min, t.max, 0, 1) if t.min is not None else (-1.5, 0.5, -0.0, math.inf, -math.inf)
        for n in map(Number, values, [t] * len(values)):
            for duplicate in self._COPIES:
                twin = duplicate(n)
                assert type(twin) is Number and twin.numtype is t
                assert type(twin.value) is type(n.value) and twin.value == n.value
                assert math.copysign(1, twin.value) == math.copysign(1, n.value)

    def test_a_nan_of_f32_round_trips(self):
        inf = Number(math.inf, F32)
        nan = inf - inf  # a value of f32, though Number(nan, F32) refuses it
        with pytest.raises(NarrowError):
            Number(math.nan, F32)
        for duplicate in self._COPIES:
            twin = duplicate(nan)
            assert twin.numtype is F32 and math.isnan(twin.value)

    def test_a_forged_protocol_2_value_is_refused(self):
        good = pickle.dumps(Number(5, I8), protocol=2)
        assert good.count(b"K\x05") == 1
        with pytest.raises(NarrowError):
            pickle.loads(good.replace(b"K\x05", b"M,\x01"))  # 300

    @staticmethod
    def _forged(number, value):
        """``number``'s type with ``value`` written into the slot, past every check."""
        forged = object.__new__(Number)
        forged._value, forged._type = value, number.numtype
        return forged

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("number, forged, error", [
        (Number(5, I8), 300, NarrowError), (Number(5, U8), -1, NarrowError),
        (Number(5, I8), 5.0, NarrowError), (Number(0.5, F32), 0.1, NarrowError),
        (Number(0.5, SF16), 70000.0, NarrowError), (Number(1, I8), True, ConstraintError)])
    def test_a_forged_value_is_refused(self, protocol, number, forged, error):
        assert pickle.loads(pickle.dumps(self._forged(number, number.value), protocol=protocol)) == number
        bad = pickle.dumps(self._forged(number, forged), protocol=protocol)
        with pytest.raises(error):
            pickle.loads(bad)
        with pytest.raises(error):
            copy.deepcopy(self._forged(number, forged))

    def test_an_earlier_slot_state_pickle_is_refused(self):
        # Number(5, i8) at protocol 2 before a Number had a state of its own:
        # its slots were restored unchecked, so such a pickle is no longer read.
        old = (b"\x80\x02cchecked.narrowing\nNumber\nq\x00)\x81q\x01N}q\x02(X\x05\x00\x00\x00_typeq\x03"
               b"cchecked.narrowing\nnumeric_type\nq\x04X\x02\x00\x00\x00i8q\x05\x85q\x06Rq\x07"
               b"X\x06\x00\x00\x00_valueq\x08K\x05u\x86q\tb.")
        with pytest.raises(ConstraintError):
            pickle.loads(old)

    def test_a_number_subclass_copies_as_its_class(self):
        class Sub(Number):
            __slots__ = ()

        for twin in (copy.copy(Sub(5, U8)), copy.deepcopy(Sub(5, U8))):
            assert type(twin) is Sub and twin.numtype is U8 and twin.value == 5

    def test_a_copied_number_keeps_its_type(self):
        for duplicate in self._COPIES:
            twin = duplicate(Number(5, I32))
            assert twin.numtype is I32 and twin.value == 5
            assert twin + twin == Number(10) and twin < Number(6, U8) and convert(twin, U16) == 5

    def test_a_registered_type_copies_as_itself(self, registry):
        i128 = register_numeric_type("i128", NumericKind.SIGNED_INT, 127, 16)
        assert all(duplicate(i128) is i128 for duplicate in self._COPIES)
        assert pickle.loads(pickle.dumps(Number(2**100, i128))).numtype is i128


class TestAssign:
    def test_ok(self):
        ii = Number(0, U32)
        assert ii.assign(2) == Number(2, U32)

    def test_throws_and_leaves_target_alone(self):
        ii = Number(0, U32)
        with pytest.raises(NarrowError):
            ii.assign(-2)
        assert ii.value == 0

    def test_signedness_of_small_char_type(self):
        assert Number(0, I8).assign(-17).value == -17
        with pytest.raises(NarrowError):
            Number(0, U8).assign(-17)

    def test_self_identity(self):
        x = Number(9, I16)
        assert x.assign(x) == x

    def test_assign_keeps_the_target_type(self):
        assert Number(0, I64).assign(3).numtype is I64


class TestExtract:
    def test_values(self):
        assert Number(7).value == 7
        assert Number(-1).value == -1
        assert Number(3.5).value == 3.5

    def test_str_renders_underlying(self):
        assert str(Number(7, I8)) == "7"
        assert repr(Number(7, I8)) == "Number(7, i8)"

    def test_accessors_are_read_only_and_documented(self):
        n = Number(7, I8)
        with pytest.raises(AttributeError):
            n.value = 1
        with pytest.raises(AttributeError):
            n.numtype = U8
        with pytest.raises(AttributeError):
            del n.value
        assert n.value == 7 and n.numtype is I8
        assert Number.value.__doc__ and Number.numtype.__doc__


class TestDeduction:
    def test_literal_defaults(self):
        assert Number(1).numtype is I32
        assert Number(1.2).numtype is F64
        assert Number(1, U32).numtype is U32

    def test_wide_int_deduces_i64(self):
        assert Number(2**40).numtype is I64

    def test_beyond_signed_deduces_u64(self):
        assert Number(2**63).numtype is U64

    def test_undeducible(self):
        with pytest.raises(ConstraintError):
            Number(2**64)
        with pytest.raises(ConstraintError):
            Number(True)


def _independent_common(a, b):
    # Re-derivation of the lattice from the traits alone, used as an oracle.
    ta, tb = traits_of(a), traits_of(b)
    if (ta.kind is NumericKind.FLOAT) != (tb.kind is NumericKind.FLOAT):
        return a if ta.kind is NumericKind.FLOAT else b
    if ta.digits != tb.digits:
        return a if ta.digits > tb.digits else b
    if ta.kind is tb.kind:
        return a
    return a if ta.kind is NumericKind.UNSIGNED_INT else b


class TestCommonType:
    def test_pinned(self):
        assert common_type(I32, F64) is F64
        assert common_type(I32, I32) is I32
        assert common_type(I32, U32) is U32
        assert common_type(U32, I64) is I64
        assert common_type(SF16, I64) is SF16
        assert common_type(F32, F64) is F64

    def test_commutative_and_matches_independent_rules(self):
        for a in ALL_TYPES:
            for b in ALL_TYPES:
                c = common_type(a, b)
                assert c is common_type(b, a)
                assert c is _independent_common(a, b), (a.name, b.name)

    def test_accepts_traits(self):
        assert common_type(traits_of(I32), traits_of(U32)) is U32

    def test_traits_no_type_has_are_refused(self):
        with pytest.raises(ConstraintError, match="no registered type has traits"):
            common_type(NumericTraits(NumericKind.SIGNED_INT, 23, 3), I32)


class TestArithmetic:
    def test_add(self):
        assert Number(3) + Number(4) == Number(7)

    def test_mixed_sign_operand_check(self):
        with pytest.raises(NarrowError):
            Number(-1, I32) + Number(2, U32)

    def test_double_plus_int_times_ten(self):
        d = Number(1.5, F64)
        i = Number(4, I32)
        x = d + i * 10
        assert x.numtype is F64 and x.value == 41.5

    def test_raw_operands_deduce(self):
        assert (Number(3) + 4).value == 7
        assert (4 + Number(3)).value == 7
        assert (10 - Number(3)).value == 7
        assert (Number(3) * 2.0).numtype is F64

    def test_int_overflow(self):
        with pytest.raises(CheckedOverflowError):
            Number(I32.max, I32) + Number(1, I32)
        with pytest.raises(CheckedOverflowError):
            Number(3, U32) - Number(5, U32)
        with pytest.raises(CheckedOverflowError):
            Number(I64.min, I64) / Number(-1, I64)

    def test_divide_truncates_toward_zero_in_integer_common(self):
        assert (Number(7) / Number(2)).value == 3
        assert (Number(-7) / Number(2)).value == -3
        assert (Number(7) / Number(-2)).value == -3

    def test_divide_by_zero(self):
        with pytest.raises(CheckedOverflowError) as info:
            Number(7) / Number(0)
        assert info.value.reason == "divide-by-zero"
        with pytest.raises(CheckedOverflowError) as info:
            Number(7.0) / Number(0.0)
        assert info.value.reason == "divide-by-zero"

    def test_float_overflow(self):
        big = Number(1.7976931348623157e308, F64)
        with pytest.raises(CheckedOverflowError):
            big * Number(2.0)

    def test_float_result_rounds_into_narrow_common(self):
        # 4096 and 2 are exact sf16 values; their sum rounds back into sf16.
        r = Number(4096.0, SF16) + Number(2.0, SF16)
        assert r.numtype is SF16 and r.value == 4096.0

    def test_operand_unrepresentable_in_float_common(self):
        with pytest.raises(NarrowError):
            Number(4097, I16) + Number(2.0, SF16)
        with pytest.raises(NarrowError):
            Number(2**62 + 1, I64) + Number(1.0, F64)

    def test_results_carry_the_common_type(self):
        assert (Number(1, I8) + Number(1, U8)).numtype is U8
        assert (Number(1, I16) + Number(1, I64)).numtype is I64

    def test_every_pair_matches_the_exact_oracle(self):
        probes = {t: _boundary_numbers(t, _ARITH_INT_PROBES, _ARITH_FLOAT_PROBES) for t in ALL_TYPES}
        cases = 0
        for ta in ALL_TYPES:
            for tb in ALL_TYPES:
                for x in probes[ta]:
                    for y in probes[tb]:
                        for name, fn in ARITH_OPS.items():
                            want = oracle.arith(name, x.value, ta.name, y.value, tb.name)
                            got = _arith_outcome(fn, x, y)
                            assert _same_outcome(got, want), (name, x, y, got, want)
                            cases += 1
        assert cases > 121 * 4 * 50

    def test_bare_operands_match_the_exact_oracle(self):
        bare = (0, -1, 3, 2**31, 2**63, 2**64 - 1, 0.5, -0.0, math.inf, math.nan)
        for t in ALL_TYPES:
            for x in _boundary_numbers(t, _ARITH_INT_PROBES, _ARITH_FLOAT_PROBES):
                for v in bare:
                    v_type = Number(v).numtype.name
                    for name, fn in ARITH_OPS.items():
                        want = oracle.arith(name, x.value, t.name, v, v_type)
                        assert _same_outcome(_arith_outcome(fn, x, v), want), (name, x, v)
                        want = oracle.arith(name, v, v_type, x.value, t.name)
                        assert _same_outcome(_arith_outcome(fn, v, x), want), (name, v, x)

    def test_bare_operand_edges(self):
        # the i32 rung's limits and their neighbours deduce as a bare value does
        for v in (-(2**31) - 1, -(2**31), 2**31 - 1, 2**31):
            assert (Number(0, I8) + v).numtype is Number(v).numtype
            assert (v + Number(0, I8)).numtype is Number(v).numtype
        for bad, error in ((True, TypeError), (2**70, ConstraintError), ("x", TypeError)):
            with pytest.raises(error):
                Number(3) + bad
            with pytest.raises(error):
                bad + Number(3)

    def test_an_unrepresentable_operand_is_refused_first(self):
        # Each product or quotient would also overflow or divide by zero.
        with pytest.raises(NarrowError):
            Number(-1, I32) * Number(U32.max, U32)
        with pytest.raises(NarrowError):
            Number(U32.max, U32) * Number(-1, I32)
        with pytest.raises(NarrowError):
            Number(-1, I32) / Number(0, U32)
        with pytest.raises(NarrowError):
            Number(2**62 + 1, I64) / Number(0.0, F64)
        with pytest.raises(CheckedOverflowError) as info:
            Number(math.inf) / Number(0, I8)
        assert info.value.reason == "divide-by-zero"

    def test_exactness_against_bigint_oracle(self):
        # Python integers are the arbitrary-precision oracle here.
        rng = random.Random(99)
        ops = {
            "add": (lambda x, y: x + y),
            "sub": (lambda x, y: x - y),
            "mul": (lambda x, y: x * y),
        }
        for _ in range(3000):
            ta, tb = rng.choice(INT_TYPES), rng.choice(INT_TYPES)
            a = rng.randint(ta.min, ta.max)
            b = rng.randint(tb.min, tb.max)
            common = common_type(ta, tb)
            for op, fn in ops.items():
                exact = fn(a, b)
                try:
                    result = fn(Number(a, ta), Number(b, tb))
                except NarrowError:
                    assert not (common.min <= a <= common.max) or not (
                        common.min <= b <= common.max
                    )
                except CheckedOverflowError:
                    assert exact < common.min or exact > common.max
                else:
                    assert result.value == exact
                    assert common.min <= exact <= common.max


class _Evil(int):
    """An int whose own reflected operators, comparisons and conversions all
    answer wrong."""

    def _wrong(self, other):
        return 2.5

    __radd__ = __rsub__ = __rmul__ = __rtruediv__ = _wrong
    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _wrong
    __hash__ = int.__hash__

    def __int__(self):
        return 99

    __index__ = __int__


class _EvilF(float):
    """A float whose own reflected operators, comparisons and conversion all
    answer wrong."""

    def _wrong(self, other):
        return 7

    __radd__ = __rsub__ = __rmul__ = __rtruediv__ = _wrong
    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _wrong
    __hash__ = float.__hash__

    def __float__(self):
        return 99.0


_EVIL_OPERANDS = [(_Evil(v), v) for v in (0, 2, -7, 255, 2**31, 2**63, 2**64 - 1)]
_EVIL_OPERANDS += [(_EvilF(v), v) for v in (2.0, -0.5, 0.1, 2.0**64, math.inf, math.nan)]


class TestBareSubclassOperands:
    """A bare operand is built as ``Number(v)``, so a subclass takes part as
    the exact number it holds, whatever its own operators say."""

    def test_pinned(self):
        r = Number(1) + _Evil(2)
        assert (r.numtype, type(r.value), r.value) == (I32, int, 3)
        r = Number(1.5) * _EvilF(2.0)
        assert (r.numtype, type(r.value), r.value) == (F64, float, 3.0)

    def test_every_operator_sees_the_held_number(self):
        cases = 0
        for t in ALL_TYPES:
            for x in _boundary_numbers(t, _ARITH_INT_PROBES, _ARITH_FLOAT_PROBES):
                for evil, v in _EVIL_OPERANDS:
                    for name, fn in ARITH_OPS.items():
                        got, want = _arith_outcome(fn, x, evil), _arith_outcome(fn, x, v)
                        assert _same_outcome(got, want) and type(got[2]) is type(want[2]), (name, x, v)
                    for op in COMPARISONS:
                        assert op(x, evil) is op(x, v), (op.__name__, x, v)
                    assert compare_lt(x, evil) is compare_lt(x, v), (x, v)
                    assert compare_lt(evil, x) is compare_lt(v, x), (v, x)
                    cases += 1
        assert cases > 11 * 13 * 5


class TestIntegerPlans:
    """Every integer pair's plan, ``i128`` and ``u128`` included, at the
    operands its range tests turn on, against the exact oracle."""

    def test_boundary_operands_match_the_exact_oracle(self, registry, monkeypatch):
        wide = [register_numeric_type("i128", NumericKind.SIGNED_INT, 127, 16),
                register_numeric_type("u128", NumericKind.UNSIGNED_INT, 128, 16)]
        for t in wide:
            monkeypatch.setitem(oracle.INT_RANGES, t.name, (t.min, t.max))
        types = INT_TYPES + wide
        operands = {t: [Number(v, t) for v in sorted({t.min, t.max, 0, 1, -1}) if t.min <= v <= t.max]
                    for t in types}
        cases = refusals = 0
        for ta in types:
            for tb in types:
                for x in operands[ta]:
                    for y in operands[tb]:
                        for name, fn in ARITH_OPS.items():
                            want = oracle.arith(name, x.value, ta.name, y.value, tb.name)
                            got = _arith_outcome(fn, x, y)
                            assert _same_outcome(got, want), (name, x, y, got, want)
                            if got[0] == "ok":
                                assert type(got[2]) is int, (name, x, y)
                            elif got[1] == "CheckedOverflowError":
                                # The operands in the error are the ones converted
                                # into the common type: for integers, the values.
                                with pytest.raises(CheckedOverflowError) as info:
                                    fn(x, y)
                                assert info.value.operation == name
                                assert info.value.operand_text == (repr(x.value), repr(y.value))
                                refusals += 1
                            cases += 1
        assert cases == 6400 and refusals > 1000


class TestComparisons:
    def test_the_classic_mixed_sign_case(self):
        assert compare_lt(Number(-1, I32), Number(2, U32)) is True
        assert (Number(-1, I32) < Number(2, U32)) is True
        assert (Number(2, U32) < Number(-1, I32)) is False

    def test_equal_values(self):
        assert compare_lt(Number(2), Number(2)) is False
        assert Number(2) == Number(2)

    def test_equality_across_types_is_mathematical(self):
        assert Number(2, I32) == Number(2, U64)
        assert Number(-1, I64) != Number(U64.max, U64)
        assert hash(Number(2, I32)) == hash(Number(2, U64))

    def test_derived_operators(self):
        a, b = Number(-3, I16), Number(7, U16)
        assert a < b and a <= b and b > a and b >= a and a != b

    def test_raw_operands(self):
        assert Number(2) < 3
        assert 3 > Number(2)
        assert Number(2) == 2 and Number(2) != 3

    def test_total_order_coherence_same_type(self):
        rng = random.Random(5)
        for _ in range(500):
            t = rng.choice(INT_TYPES)
            x = Number(rng.randint(t.min, t.max), t)
            y = Number(rng.randint(t.min, t.max), t)
            relations = [x < y, x == y, y < x]
            assert sum(relations) == 1

    def test_nan_keeps_host_partial_order(self):
        nan = Number(math.nan, F64)
        two = Number(2.0, F64)
        assert not (nan < two) and not (nan > two)
        assert not (nan <= two) and not (nan >= two)
        assert nan != two and nan != nan

    def test_random_mixed_sign_agrees_with_exact(self):
        rng = random.Random(31337)
        for _ in range(20000):
            x = rng.randint(I64.min, I64.max)
            y = rng.randint(U64.min, U64.max)
            assert compare_lt(Number(x, I64), Number(y, U64)) is (x < y)
            assert compare_lt(Number(y, U64), Number(x, I64)) is (y < x)

    @given(
        st.integers(min_value=-(2**15), max_value=2**15 - 1),
        st.integers(min_value=0, max_value=2**16 - 1),
    )
    def test_sixteen_bit_mixed_sign_property(self, x, y):
        assert compare_lt(Number(x, I16), Number(y, U16)) is (x < y)

    def test_every_pair_matches_the_rounding_oracle(self):
        boundary = {t: _boundary_numbers(t) for t in ALL_TYPES}
        for ta in ALL_TYPES:
            for tb in ALL_TYPES:
                for x in boundary[ta]:
                    for y in boundary[tb]:
                        for op in COMPARISONS:
                            expected = oracle.compare(op, x.value, ta.name, y.value, tb.name)
                            assert op(x, y) is expected, (op.__name__, x, y)
                        expected = oracle.compare(operator.lt, x.value, ta.name, y.value, tb.name)
                        assert compare_lt(x, y) is expected, (x, y)

    def test_bare_operands_match_the_rounding_oracle(self):
        bare = (0, -1, 2**31, 2**63, 2**64 - 1, 0.5, 2.0**53, math.nan)
        for t in ALL_TYPES:
            for x in _boundary_numbers(t):
                for v in bare:
                    v_type = Number(v).numtype.name
                    for op in COMPARISONS:
                        assert op(x, v) is oracle.compare(op, x.value, t.name, v, v_type)
                        assert op(v, x) is oracle.compare(op, v, v_type, x.value, t.name)
                    assert compare_lt(v, x) is oracle.compare(operator.lt, v, v_type, x.value, t.name)

    def test_pinned_rounding_rows(self):
        # An integer meets a float in the float's type, with its rounding.
        assert Number(2**24 + 1, I32) == Number(2.0**24, F32)
        assert Number(257) == Number(256.0, SF16)
        nan = Number(math.nan)
        for other in (nan, Number(0), Number(math.inf), Number(2**64 - 1, U64)):
            for op in COMPARISONS:
                assert op(nan, other) is (op is operator.ne)
                assert op(other, nan) is (op is operator.ne)

    def test_integer_rounds_once_into_a_narrow_float(self):
        # 2**24 + 2**16 + 1 lies just above the sf16 midpoint between 2**24
        # and 2**24 + 2**17, so one rounding to nearest gives the upper one.
        assert oracle.round_to_float_type(2**24 + 2**16 + 1, "sf16") == 2.0**24 + 2**17
        assert Number(2**24 + 2**16 + 1, I32) == Number(2.0**24 + 2**17, SF16)
        # float() alone would round 2**39 + 1 down to the f32 midpoint 2**39.
        assert oracle.round_to_float_type(2**63 + 2**39 + 1, "f32") == 2.0**63 + 2**40
        assert F32.cast(2**63 + 2**39 + 1) == 2.0**63 + 2**40
        assert Number(2**63 + 2**39 + 1, U64) == Number(2.0**63 + 2**40, F32)

    def test_non_numeric_comparison_falls_back(self):
        assert (Number(1) == "one") is False
        with pytest.raises(TypeError):
            Number(1) < "one"
        with pytest.raises(ConstraintError):
            compare_lt(Number(1), "one")


_LANE_FLOATS = (F32, SF16, F64)
# 0, and each float's exact-int lane edge 2**d with its neighbours, both signs
_LANE_INTS = (0,) + tuple(s * (2**d + k) for d in (8, 24, 53) for k in (-1, 0, 1) for s in (1, -1))
_LANE_FLOAT_OPERANDS = (0.0, -0.0, 0.5, -3.0, 2.0**24, 2.0**-140, 3.4028234663852886e38,
                        1.7976931348623157e308, math.inf, math.nan)
_LANE_COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq)


def _args_outcome(fn, x, y):
    """``fn(x, y)`` with an error's type and ``args``, as text so that NaN
    and the sign of a zero compare; a result as the oracle writes it."""
    try:
        r = fn(x, y)
    except (NarrowError, CheckedOverflowError) as e:
        return ("refused", type(e).__name__, repr(e.args))
    return r if type(r) is bool else ("ok", r.numtype.name, r.value)


class TestExactIntLane:
    """An int operand in the float common type's exact-int lane is used as it
    is, and one outside it goes through the converter or the rounding, so the
    lane changes no result, error or error argument."""

    def test_lane_edges_match_the_oracle(self):
        cases = 0
        for ti in INT_TYPES:
            ints = sorted({v for v in _LANE_INTS + (ti.min, ti.max) if ti.min <= v <= ti.max})
            for tf in _LANE_FLOATS:
                floats = _boundary_numbers(tf, (), _LANE_FLOAT_OPERANDS)
                for i in ints:
                    for f in floats:
                        for (x, tx), (y, ty) in (((i, ti), (f.value, tf)), ((f.value, tf), (i, ti))):
                            a, b = Number(x, tx), Number(y, ty)
                            for name, fn in ARITH_OPS.items():
                                want = oracle.arith(name, x, tx.name, y, ty.name)
                                if want[1] == "NarrowError":  # the int operand, checked into the float type
                                    want = ("refused", "NarrowError", repr((i, ti, tf)))
                                elif want[0] == "refused":  # the operands converted into the float type
                                    args = (name, (float(x), float(y))) + (("divide-by-zero",) if want[2] == "divide-by-zero" else ())
                                    want = ("refused", "CheckedOverflowError", repr(args))
                                got = _args_outcome(fn, a, b)
                                assert _same_outcome(got, want), (name, a, b, got, want)
                                cases += 1
                            for op in _LANE_COMPARISONS:
                                want = oracle.compare(op, x, tx.name, y, ty.name)
                                assert _args_outcome(op, a, b) is want, (op.__name__, a, b)
                                cases += 1
        assert cases > 8 * 3 * 2 * 9 * 50

    def test_only_an_operand_outside_the_lane_is_converted_or_rounded(self, registry):
        """Counted by the code object a call enters: sf16's converters (one code
        for every rounding cast's) and its cast.  A counting cast that publishes
        ``normal`` and no lane sees every checked int operand it compares."""
        counted = []

        def counting(value):
            counted.append(value)
            return SF16.cast(value)

        counting.normal = SF16.cast.normal
        tc = register_numeric_type("counted_test", NumericKind.FLOAT, 8, 2, cast=counting)
        codes = {I32.to[SF16].__code__: "converter", SF16.cast.__code__: "cast"}
        entered = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                entered.append(codes[frame.f_code])

        def calls(op, a, b):
            entered.clear()
            sys.setprofile(profile)
            try:
                try:
                    op(a, b)
                except NarrowError:  # 257 is no sf16 value
                    pass
            finally:
                sys.setprofile(None)
            return list(entered)

        checked = [t for t in INT_TYPES if t.checks[SF16] is not None]
        assert checked == [I16, U16, I32, U32, I64, U64]
        for t in checked:
            for v in (0, 1, -1, 255, 256, -256, 257, -257, 258):
                if not t.min <= v <= t.max:
                    continue
                a, f, g = Number(v, t), Number(0.5, SF16), Number(0.5, tc)
                inside = abs(v) <= SF16.cast.lane
                for x, y in ((a, f), (f, a)):
                    assert calls(operator.add, x, y) == ([] if inside else ["converter"]), (v, t)
                    assert calls(operator.lt, x, y) == ([] if inside else ["cast"]), (v, t)
                for x, y in ((a, g), (g, a)):
                    assert calls(operator.add, x, y).count("converter") == 1, (v, t)
                    counted.clear()
                    calls(operator.eq, x, y)
                    assert counted == [v], (v, t)
