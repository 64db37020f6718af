"""Checked numeric conversions over a closed set of fixed-width types, and
``Number``, a wrapper that makes the checks implicit.

The central question is always "can converting this value lose information
or change its meaning?".  It is answered in two stages:

* a per-type-pair classification, computed once when the types are
  registered, says whether a conversion between two types can narrow at all;
* a per-value test runs only for pairs where the classification says
  narrowing is possible.

Registration turns each pair into one converter with the check and the cast
fused: a pair that can never narrow gets the builtin ``int`` or ``float``,
which is the exact cast for any value of its source type; a pair that can
narrow gets one closure with its bounds or its cast bound in, which returns
the converted value or raises ``NarrowError``, also where the cast raises.
Into f32 or sf16 (or a type with their cast) it rounds a normal value itself,
with the cast's constants.  Each ``NumType`` holds its pair decisions in rows
keyed by the other ``NumType`` (``to``, ``checks``, ``plans``).  ``convert``
dispatches on the target, then on the value's exact type: an exact int in an
integer target's range costs only a range test, a bare float one row lookup
plus one call, and any other int its ``deduced_type`` first.
``narrow_checker`` exposes the staged form directly: it returns ``None``
for pairs that can never narrow, so hot paths can skip per-value work
entirely.  ``convert_to`` raises ``NarrowError`` instead of ever returning
a changed value.  Every checked entry point reads a bare value by one rule,
``_exact``: ``bool`` and non-numbers raise ``ConstraintError``, and an
``int`` or ``float`` subclass is read as the exact number it holds.

Every way of getting a value into a ``Number`` is checked as its type
pair's converter checks it, so a value that would not survive the
conversion raises ``NarrowError`` instead of silently changing; an object
that only looks like a ``Number`` is refused.  Mixed-type arithmetic
promotes both operands into a common type chosen by a fixed lattice: floats
beat integers, more digits beat fewer, and between equal-size integers of
differing signedness the unsigned type wins (mirroring the usual host
arithmetic rules; safety comes from check-converting the operands, not from
the lattice).  Results that do not fit the common type raise
``CheckedOverflowError`` rather than wrapping or saturating.  Comparisons
are mathematically correct for integer operands of any signedness mix, so
``Number(-1) < Number(2, "u32")`` is True.  Mixed float/integer comparisons
happen in the float common type with its usual rounding (a registered
cast's refusal is ``NarrowError``); NaN keeps the host partial order.

Registration builds each pair's ``plans`` entry ``(common, add, sub, mul,
div, rounding)``: the common type, four operations on the raw values, and
the comparison roundings, ``None`` where no operand is rounded (every
integer pair), else ``(round_a, lane_a, round_b, lane_b)``.  A ``Number``
operation is one row lookup and one call.  No plan converts or rounds an
operand that the common type holds exactly, nor casts a result into f64;
it rounds a normal f32 or sf16 result as the converters do.  An int within
the exact-int lane that the float common type's cast publishes (2**53, or
2**digits for f32 and sf16) costs one range test and no conversion.  The
f32 and sf16 casts round once, from the exact value.

The supported set is the 8/16/32/64-bit signed and unsigned integers, the
32/64-bit binary floats, and ``sf16``, a software-emulated bfloat16-style
float (8 mantissa digits in 2 bytes) included so the small-mantissa rules
are exercisable without special hardware.  ``register_numeric_type`` extends
the set; arbitrary-precision types are deliberately unsupported.

Numbers are immutable values.  All operations are pure functions over plain
values and safe to call from any thread.  Registering new types is the one
exception and belongs in start-up code.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional, Union

__all__ = [
    "NumericKind",
    "NumericTraits",
    "NumType",
    "NarrowError",
    "ConstraintError",
    "NARROWING_MATRIX",
    "numeric_type",
    "supported_types",
    "register_numeric_type",
    "deduced_type",
    "traits_of",
    "can_narrow_to",
    "can_narrow",
    "narrow_checker",
    "will_narrow",
    "convert_to",
    "convert",
    "I8", "I16", "I32", "I64",
    "U8", "U16", "U32", "U64",
    "F32", "F64", "SF16",
    "CheckedOverflowError", "Number", "common_type", "compare_lt",
]


class NumericKind(Enum):
    """Classification of a numeric type."""

    SIGNED_INT = "signed-int"
    UNSIGNED_INT = "unsigned-int"
    FLOAT = "float"


class NumericTraits(NamedTuple):
    """Shape of a numeric type, fixed per type and usable without any value.

    ``digits`` counts representable-value bits: width minus the sign bit for
    signed integers, the full width for unsigned ones, and the mantissa
    precision (implicit bit included) for floats.
    """

    kind: NumericKind
    digits: int
    byte_size: int


class NarrowError(ValueError):
    """A conversion would lose information or change the value's meaning."""

    def __init__(self, value, source: "NumType", target: "NumType", /) -> None:
        pass  # ``BaseException.__new__`` keeps them, positional-only, in ``args``; ``str()`` builds the text

    value_text = property(lambda self: repr(self.args[0]))
    source_name = property(lambda self: self.args[1].name)
    target_name = property(lambda self: self.args[2].name)

    def __str__(self) -> str:
        return f"converting {self.value_text} from {self.source_name} to {self.target_name} would change its value"


class CheckedOverflowError(OverflowError):
    """An arithmetic result cannot be represented in the common type."""

    def __init__(self, operation: str, operands, reason: str = "result not representable", /):
        pass  # the arguments are kept in ``args``, as ``NarrowError`` keeps them

    operation = property(lambda self: self.args[0])
    operand_text = property(lambda self: tuple(map(repr, self.args[1])))
    reason = property(lambda self: self.args[2] if len(self.args) > 2 else "result not representable")

    def __str__(self) -> str:
        return f"{self.operation}({', '.join(self.operand_text)}): {self.reason}"


class ConstraintError(TypeError):
    """A type-level requirement failed; raised before any per-value work."""


class NumType:
    """One member of the supported numeric set.

    Instances are interned, compare them with ``is``.  ``cast`` is the
    type's rounding or wrapping function (two's-complement wrap for
    integers, truncation toward zero for float-to-integer, round to nearest
    even for floats), intentionally unchecked; the checked entry points are
    ``convert_to`` and friends.

    ``to``, ``checks`` and ``plans`` are this type's rows of the pair
    decisions, keyed by the other ``NumType``: the converter into it, the
    checker into it (``None`` where it cannot narrow) and the ``Number``
    plan with it.  ``register_numeric_type`` fills them.
    """

    __slots__ = ("name", "kind", "digits", "byte_size", "traits", "min", "max", "cast",
                 "to", "checks", "plans")

    def __init__(self, name, kind, digits, byte_size, min_value, max_value, cast):
        self.name = name
        self.kind = kind
        self.digits = digits
        self.byte_size = byte_size
        self.traits = NumericTraits(kind, digits, byte_size)
        self.min = min_value
        self.max = max_value
        self.cast = cast
        self.to, self.checks, self.plans = {}, {}, {}

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self):  # a copy or an unpickled type is the interned one
        return numeric_type, (self.name,)


# --- host-style casts -------------------------------------------------------

def _wrap_int_cast(bits: int, signed: bool):
    mask = (1 << bits) - 1
    sign_bit = 1 << (bits - 1)

    def cast(value):
        i = int(value)  # truncates a float's fraction toward zero
        i &= mask
        if signed and i & sign_bit:
            i -= 1 << bits
        return i

    return cast


def _cast_f64(value) -> float:
    try:
        return float(value)
    except OverflowError:  # integers beyond the f64 range
        return math.inf if value > 0 else -math.inf


_cast_f64.lane = 2**53  # every int of at most this magnitude it returns unchanged


def _round_int(value: int, digits: int) -> int:
    """``value`` (beyond 2**digits) rounded to ``digits`` significant bits,
    to nearest, ties to even."""
    shift = abs(value).bit_length() - digits
    q, rest = divmod(abs(value), 1 << shift)
    half = 1 << (shift - 1)
    q += rest > half or (rest == half and q & 1)
    return q << shift if value > 0 else -(q << shift)


def _rounding_cast(digits: int, min_exp: int, max_exp: int):
    """Cast into the binary float with ``digits`` significant bits and normal
    exponents ``min_exp..max_exp``: one rounding, to nearest, ties to even.

    A normal value is rounded by a Veltkamp split, a subnormal one by adding
    and removing a constant whose ulp is the subnormal quantum.  An integer
    beyond 2**53, which ``float()`` would round already, is rounded exactly.
    """
    split = 2.0 ** (53 - digits) + 1
    tiny = 2.0 ** min_exp
    bias = 1.5 * 2.0 ** (min_exp - digits + 53)
    # the midpoint between the largest finite value and 2**(max_exp + 1); a
    # tie there goes to the even neighbour, which is the infinity
    huge = 2.0 ** (max_exp + 1) - 2.0 ** (max_exp - digits)
    exact = 1 << 53

    def cast(value):
        d = value
        if type(d) is not float:
            if type(d) is int and -exact <= d <= exact:  # float() is exact here
                d = float(d)
            else:
                if isinstance(d, int) and not -exact <= d <= exact:
                    d = _round_int(d, digits)
                d = _cast_f64(d)
        m = abs(d)
        if tiny <= m < huge:
            c = d * split
            return c - (c - d)
        if m < tiny:
            return math.copysign((m + bias) - bias, d)
        return d if d != d else math.copysign(math.inf, d)

    cast.normal = split, tiny, huge  # the converters and plans round this range themselves
    if tiny <= 1.0 and 2.0**digits < huge:  # every int up to 2**digits is normal, so it holds them exactly
        cast.lane = 1 << digits
    return cast


# --- registry and classification table --------------------------------------

_TYPES: dict[str, NumType] = {}
_MATRIX: dict[tuple[str, str], bool] = {}

#: Read-only view of the per-pair classification, keyed by (source name,
#: target name).  Filled when types are registered (import time for the
#: built-in set), never per value.
NARROWING_MATRIX = MappingProxyType(_MATRIX)

TypeSpec = Union[NumType, str, NumericTraits]


def numeric_type(spec: TypeSpec) -> NumType:
    """Resolve a type object, name or traits to the interned ``NumType``."""
    if isinstance(spec, NumType):
        return spec
    if isinstance(spec, str):
        try:
            return _TYPES[spec]
        except KeyError:
            raise ConstraintError(f"unknown numeric type {spec!r}") from None
    if isinstance(spec, NumericTraits):  # of equal traits, the first registered wins
        for t in _TYPES.values():
            if t.traits == spec:
                return t
        raise ConstraintError(f"no registered type has traits {spec}")
    raise ConstraintError(f"cannot interpret {spec!r} as a numeric type")


def supported_types() -> tuple[NumType, ...]:
    """The currently registered numeric types, in registration order."""
    return tuple(_TYPES.values())


def traits_of(spec: TypeSpec) -> NumericTraits:
    """Traits table entry for a supported type."""
    return numeric_type(spec).traits


def can_narrow_to(src: NumericTraits, dst: NumericTraits, same_type: bool) -> bool:
    """Can converting a ``src``-shaped value to ``dst`` lose information?

    True when a fraction can be dismissed (float source, integer target),
    when the target has fewer value digits, or when a sign can change
    meaning.  A signed source can hide a negative from any unsigned target
    whatever the widths, so the sign rule cannot be limited to equal-size
    pairs; the reverse direction (unsigned into signed) is already covered
    by the digits rule at equal size and is harmless when widening.

    Pure over the traits; the result for every registered pair is frozen
    into ``NARROWING_MATRIX`` when the types are registered, so nothing here
    runs on a per-value path.
    """
    if same_type:
        return False
    return (
        (src.kind is NumericKind.FLOAT and dst.kind is not NumericKind.FLOAT)
        or src.digits > dst.digits
        or (src.kind is NumericKind.SIGNED_INT and dst.kind is NumericKind.UNSIGNED_INT)
    )


def can_narrow(source: TypeSpec, target: TypeSpec) -> bool:
    """Table lookup form of ``can_narrow_to`` for registered types."""
    return _MATRIX[(numeric_type(source).name, numeric_type(target).name)]


def _make_converter(src: NumType, dst: NumType) -> Callable:
    """Fused check and cast for a pair whose classification allows narrowing.

    Built once per pair at registration time, and the one place the
    per-value rules are written.  For a value of ``src`` it returns what
    ``dst.cast`` returns, or raises ``NarrowError`` when that would change
    the value.
    """
    if dst.kind is not NumericKind.FLOAT:
        # Into an integer, from any source: in range (which a sign flip, a
        # wrap, NaN or an infinity is not), then integral (as an int always is).
        lo, hi = dst.min, dst.max

        def to_int(value):
            if lo <= value <= hi:
                i = int(value)
                if i == value:
                    return i
            raise NarrowError(value, src, dst)

        return to_int

    # Into a float: cast, then compare exactly.  Python compares int and
    # float values exactly, so equality holds iff the target represents the
    # value.  NaN never compares equal, so it never passes this rule.
    cast = dst.cast
    if hasattr(cast, "normal"):  # a rounding cast's normal range is rounded in this frame, by its own split
        split, tiny, huge = cast.normal

        def to_rounded(value):
            d = float(value) if type(value) is int and -2**53 <= value <= 2**53 else value  # float() is exact here
            d = (c := d * split) - (c - d) if type(d) is float and tiny <= abs(d) < huge else cast(value)
            if d == value:
                return d
            raise NarrowError(value, src, dst)

        return to_rounded

    def to_float(value):
        try:
            result = cast(value)
        except (OverflowError, ValueError):  # a registered cast's own refusal
            result = math.nan  # equal to no value
        if result == value:
            return result
        raise NarrowError(value, src, dst)

    return to_float


def _make_checker(convert: Callable) -> Callable:
    """Per-value narrowing test: does the pair's converter refuse ``value``?"""

    def check(value):
        try:
            convert(value)
        except NarrowError:
            return True
        return False

    return check


def _common_of(a: NumType, b: NumType) -> NumType:
    """The common type of the lattice: floats beat integers, more digits beat
    fewer, and the unsigned type wins between equal-size integers."""
    if a is b:
        return a
    a_float = a.kind is NumericKind.FLOAT
    b_float = b.kind is NumericKind.FLOAT
    if a_float != b_float:
        return a if a_float else b
    if a_float:
        return a if a.digits >= b.digits else b
    if a.byte_size == b.byte_size:
        # widths equal but types distinct, so signedness differs
        return a if a.kind is NumericKind.UNSIGNED_INT else b
    return a if a.digits > b.digits else b


def _refuse(name: str, x, y):
    """Raise the error of an operation on operands ``x`` and ``y`` converted
    into the common type: a zero divisor, else an unrepresentable result."""
    if name == "div" and y == 0:
        raise CheckedOverflowError(name, (x, y), "divide-by-zero")
    raise CheckedOverflowError(name, (x, y))


# name, then the operator for an integer (division is its own closure) and for a float common type
_OPERATIONS = (
    ("add", operator.add, operator.add),
    ("sub", operator.sub, operator.sub),
    ("mul", operator.mul, operator.mul),
    ("div", None, operator.truediv),
)


def _make_operation(a: NumType, b: NumType, c: NumType, lane_a: int, lane_b: int, name: str, int_op, float_op):
    """One operation on a value of ``a`` and one of ``b``: the result in the
    common type ``c``, or the errors, in order, of converting both operands
    first (an integer slow path re-runs the converters), then of the operation.
    An operand within its lane needs no conversion into a float ``c``."""
    convert_a, convert_b = a.to[c], b.to[c]
    if c.kind is not NumericKind.FLOAT:
        lo, hi = c.min, c.max
        # Where neither converter can refuse, every operand is in range.
        exact = a.checks[c] is None and b.checks[c] is None

        if int_op is None:
            def in_integers(x, y):
                if y:
                    r = x // y
                    r += r < 0 and r * y != x  # the floor is one below the quotient truncated toward zero
                    if lo <= r <= hi and (exact or lo <= x <= hi and lo <= y <= hi):
                        return r
                _refuse(name, convert_a(x), convert_b(y))

            return in_integers

        def in_integers(x, y):
            r = int_op(x, y)
            if lo <= r <= hi and (exact or lo <= x <= hi and lo <= y <= hi):
                return r
            _refuse(name, convert_a(x), convert_b(y))

        return in_integers

    # No operand is converted where its pair cannot narrow, nor an int in its lane:
    # Python mixes an exact int with a float exactly.  f64 arithmetic rounds into f64.
    check_a = None if a.checks[c] is None else convert_a
    check_b = None if b.checks[c] is None else convert_b
    cast = None if c.cast is _cast_f64 else c.cast
    split, tiny, huge = getattr(cast, "normal", (None, math.inf, math.inf))  # a rounding cast's, to round in frame

    def in_floats(x, y):
        u = x if check_a is None or -lane_a <= x <= lane_a else check_a(x)
        v = y if check_b is None or -lane_b <= y <= lane_b else check_b(y)
        try:
            r = float_op(u, v)
            if cast is not None:
                r = (s := r * split) - (s - r) if tiny <= abs(r) < huge else cast(r)
        except (ZeroDivisionError, OverflowError, ValueError):  # or a registered cast's own refusal
            pass
        else:
            # a non-finite result is an overflow only from finite operands (x - x is 0 iff x is finite)
            if r - r == 0.0 or u - u != 0.0 or v - v != 0.0:
                return r
        _refuse(name, float(u), float(v))  # converted already; a pair that cannot narrow has ``float``

    return in_floats


def _make_plans(pairs) -> None:
    """Fill ``a.plans[b]`` with each pair's plan; an operand is rounded only
    into a float common type that can change it, and then only outside its
    lane.  Pairs with the same common type and operand converters share their
    operations: a builtin converter never refuses, so the operations cannot
    tell which type it converts from."""
    def refusing(cast, t, c):  # a registered cast's own refusal is the operand's NarrowError, as in its converter
        def rounded(value):
            try:
                return cast(value)
            except (OverflowError, ValueError):
                raise NarrowError(value, t, c) from None
        return rounded

    shared = {}
    for a, b in pairs:
        c = _common_of(a, b)
        key = (c, a.to[c], b.to[c])
        # an int up to the cast's lane is exact in the float ``c``; -1 admits no value, as for a float operand
        lanes = [getattr(c.cast, "lane", -1) if t.kind is not NumericKind.FLOAT else -1 for t in (a, b)]
        if key not in shared:
            shared[key] = [_make_operation(a, b, c, *lanes, *op) for op in _OPERATIONS]
        is_float = c.kind is NumericKind.FLOAT
        rounds = [c.cast if is_float and t.checks[c] is not None else None for t in (a, b)]
        if c.cast is not _cast_f64 and not hasattr(c.cast, "normal"):  # not a built-in cast, which stays itself
            rounds = [r and refusing(r, t, c) for r, t in zip(rounds, (a, b))]
        rounding = None if rounds == [None, None] else (rounds[0], lanes[0], rounds[1], lanes[1])
        a.plans[b] = (c, *shared[key], rounding)


def narrow_checker(source: TypeSpec, target: TypeSpec) -> Optional[Callable]:
    """Per-value narrowing test for the pair, or ``None`` if never needed.

    The ``None`` case is the zero-overhead path: once the pair is known,
    callers can drop the test from their hot loop entirely.  The test takes
    its argument to be a value of ``source`` and does not check that;
    ``convert_to`` does.
    """
    return numeric_type(source).checks[numeric_type(target)]


def will_narrow(value, source: TypeSpec, target: TypeSpec) -> bool:
    """Would converting ``value`` from ``source`` to ``target`` change it?

    Returns ``False`` without inspecting the value at all when the pair
    classification rules narrowing out.  Like ``narrow_checker``, it takes
    ``value`` to be a value of ``source`` and does not check that.
    """
    chk = numeric_type(source).checks[numeric_type(target)]
    return False if chk is None else chk(value)


def _exact(value):
    """The exact ``int`` or ``float`` that ``value`` holds, a subclass's own
    methods unused; ``bool`` and every non-number raise ``ConstraintError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConstraintError(f"{type(value).__name__} is outside the supported numeric set")
    return int.__int__(value) if isinstance(value, int) else float.__float__(value)


def convert_to(value, source: TypeSpec, target: TypeSpec):
    """Convert ``value`` between supported types without changing it.

    The result compares mathematically equal to the input; if no such result
    exists in the target type, ``NarrowError`` is raised instead.  ``value``
    must be a value of ``source`` (a subclass is read as the exact number it
    holds): an integer type holds the ``int`` values in its range, a float
    type the values its cast leaves unchanged, and NaN.  Any other number
    raises ``NarrowError``; ``bool`` and non-numbers ``ConstraintError``.
    """
    src = source if type(source) is NumType else numeric_type(source)
    dst = target if type(target) is NumType else numeric_type(target)
    if type(value) is not int and type(value) is not float:
        value = _exact(value)
    if src.min is None:  # a float type; NaN is a value of every float type
        try:
            held = value != value or src.cast(value) == value
        except (OverflowError, ValueError):  # a registered cast's own refusal
            held = False
    else:
        held = type(value) is int and src.min <= value <= src.max
    if not held:
        raise NarrowError(value, src, dst)
    return src.to[dst](value)


def convert(value, target):
    """Checked conversion when both sides are numeric, explicit otherwise.

    A ``NumType`` target, or its name or traits (one that no registered
    type has raises ``ConstraintError``), takes the pair's checked
    converter, which can raise ``NarrowError``; any other target is built
    with ``target(value)`` and fails with the constructor's own error.  Then the value's exact type
    decides: an int in an integer target's range is returned as it is, any
    other int takes the row of its ``deduced_type`` and a float the f64 row.
    A ``Number`` (its subclasses too) takes its own type's row; any other
    value is converted anew as the exact number it holds, and ``bool`` and
    non-numbers are refused.
    """
    if type(target) is not NumType:
        if isinstance(target, (str, NumericTraits)):
            target = numeric_type(target)
        elif not isinstance(target, NumType):
            return target(value)
    kind = type(value)
    if kind is int:
        lo = target.min
        if lo is not None and lo <= value <= target.max:
            return value
        return deduced_type(value).to[target](value)
    if kind is float:
        return F64.to[target](value)
    if isinstance(value, Number):
        return value._type.to[target](value._value)
    return convert(_exact(value), target)


def deduced_type(value) -> NumType:
    """Numeric type a bare Python value stands for.

    Integers follow the i32-then-i64 literal ladder, floats are f64.  A
    positive integer beyond the i64 range deduces to u64, the one built-in
    type that holds it exactly.  Past the ladder, an integer deduces to the
    narrowest registered integer type wider than u64 that holds it, the
    signed one first at equal width; with none, it is refused.  An int
    subclass counts as the int it holds; ``bool`` and every non-number are
    refused outright.
    """
    if type(value) is not int:
        if type(value) is not float:
            value = _exact(value)
        if type(value) is float:
            return F64
    if I32.min <= value <= I32.max:
        return I32
    if I64.min <= value <= I64.max:
        return I64
    if 0 <= value <= U64.max:
        return U64
    wider = [t for t in _TYPES.values()
             if t.byte_size > U64.byte_size and t.min is not None and t.min <= value <= t.max]
    if wider:
        return min(wider, key=lambda t: (t.byte_size, t.kind is NumericKind.UNSIGNED_INT))
    raise ConstraintError(
        f"integer {value} does not fit any supported type; "
        "register a wider one or pass an explicit type"
    )


def register_numeric_type(
    name: str,
    kind: NumericKind,
    digits: int,
    byte_size: int,
    *,
    cast: Optional[Callable] = None,
) -> NumType:
    """Add a fixed-width numeric type to the supported set.

    Integer kinds derive their range and wrap-around cast from the width,
    and refuse a ``cast`` (``ConstraintError``); float kinds must supply one
    that rounds an exact value into the type.  The classification and the
    rows (converter, checker, arithmetic plan) are filled for each pair
    involving the new type, so every row of every type has the new type's
    column before this returns.
    """
    if not isinstance(name, str) or not name.isidentifier():
        raise ConstraintError(f"type name {name!r} is not an identifier")
    if name in _TYPES:
        raise ConstraintError(f"numeric type {name!r} already registered")
    if not isinstance(kind, NumericKind):
        raise ConstraintError(f"{name}: kind {kind!r} is not a NumericKind")
    if type(digits) is not int or type(byte_size) is not int or byte_size < 1 or digits < 1:
        raise ConstraintError("digits and byte_size must be ints of at least 1")
    if cast is not None and kind is not NumericKind.FLOAT:
        raise ConstraintError(f"integer {name}: the cast is derived from the width; pass none")
    bits = 8 * byte_size
    if kind is NumericKind.SIGNED_INT:
        if digits != bits - 1:
            raise ConstraintError(f"signed {name}: digits must be {bits - 1}")
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        cast = _wrap_int_cast(bits, signed=True)
    elif kind is NumericKind.UNSIGNED_INT:
        if digits != bits:
            raise ConstraintError(f"unsigned {name}: digits must be {bits}")
        lo, hi = 0, (1 << bits) - 1
        cast = _wrap_int_cast(bits, signed=False)
    else:
        if digits >= bits:
            raise ConstraintError(f"float {name}: digits must be below {bits}")
        if not callable(cast):
            raise ConstraintError(f"float {name}: a rounding cast is required")
        lo = hi = None
    nt = NumType(name, kind, digits, byte_size, lo, hi, cast)
    _TYPES[name] = nt
    pairs = [(nt, other) for other in _TYPES.values()]
    pairs += [(other, nt) for other in _TYPES.values() if other is not nt]
    for a, b in pairs:
        narrows = can_narrow_to(a.traits, b.traits, a is b)
        _MATRIX[(a.name, b.name)] = narrows
        if narrows:
            a.to[b] = _make_converter(a, b)
            a.checks[b] = _make_checker(a.to[b])
        else:
            # For a value of ``a``, the builtin is the exact cast into ``b``.
            a.to[b] = float if b.kind is NumericKind.FLOAT else int
            a.checks[b] = None
    _make_plans(pairs)  # every converter the plans take is now in place
    return nt


I8 = register_numeric_type("i8", NumericKind.SIGNED_INT, 7, 1)
U8 = register_numeric_type("u8", NumericKind.UNSIGNED_INT, 8, 1)
I16 = register_numeric_type("i16", NumericKind.SIGNED_INT, 15, 2)
U16 = register_numeric_type("u16", NumericKind.UNSIGNED_INT, 16, 2)
I32 = register_numeric_type("i32", NumericKind.SIGNED_INT, 31, 4)
U32 = register_numeric_type("u32", NumericKind.UNSIGNED_INT, 32, 4)
I64 = register_numeric_type("i64", NumericKind.SIGNED_INT, 63, 8)
U64 = register_numeric_type("u64", NumericKind.UNSIGNED_INT, 64, 8)
F32 = register_numeric_type("f32", NumericKind.FLOAT, 24, 4, cast=_rounding_cast(24, -126, 127))
F64 = register_numeric_type("f64", NumericKind.FLOAT, 53, 8, cast=_cast_f64)
SF16 = register_numeric_type("sf16", NumericKind.FLOAT, 8, 2, cast=_rounding_cast(8, -126, 127))


# --- common-type lattice -----------------------------------------------------

def common_type(a: TypeSpec, b: TypeSpec) -> NumType:
    """The type mixed arithmetic on the two given types executes in.

    Deterministic, commutative, and frozen in each type's ``plans`` row when
    the types are registered.  Accepts types, names, or traits.
    """
    return numeric_type(a).plans[numeric_type(b)][0]


# --- the wrapper -------------------------------------------------------------

_new = object.__new__


def _as_number(value) -> Optional["Number"]:
    if isinstance(value, Number):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return Number(value)


def _arithmetic(index: int):
    """The forward and reflected operator for the plan's ``index``th op."""

    def forward(self, other):
        if type(other) is not Number:
            other = _as_number(other)
            if other is None:
                return NotImplemented
        plan = self._type.plans[other._type]
        result = _new(Number)
        result._value = plan[index](self._value, other._value)
        result._type = plan[0]
        return result

    def reflected(self, other):
        other = _as_number(other)
        return NotImplemented if other is None else forward(other, self)

    return forward, reflected


def _comparison(op):
    """The comparison operator ``op``.  Python compares integers exactly
    whatever their signs, so only an operand that a float common type
    rounds changes first, and only outside its exact-int lane."""

    def compare(self, other):
        if type(other) is not Number:
            other = _as_number(other)
            if other is None:
                return NotImplemented
        x, y = self._value, other._value
        rounding = self._type.plans[other._type][5]
        if rounding is not None:
            round_a, lane_a, round_b, lane_b = rounding
            if round_a is not None and not -lane_a <= x <= lane_a:
                x = round_a(x)
            if round_b is not None and not -lane_b <= y <= lane_b:
                y = round_b(y)
        return op(x, y)

    return compare


class Number:
    """A numeric value that refuses to be narrowed silently.

    ``Number(v)`` deduces the type from the bare value (integers follow the
    i32-then-i64 literal ladder, floats are f64); ``Number(v, "u32")``
    converts and raises ``NarrowError`` if the value would change.  There is
    no unchecked way in, for bare operands too.  Instances are immutable:
    ``assign`` checks a new value into the same type and returns a new Number.
    A Number is true exactly when its value is.

    Arithmetic with other Numbers or bare numerics promotes into the common
    type (see ``common_type``).  Division follows the common type: truncated
    toward zero for integers, ordinary float division otherwise.
    """

    __slots__ = ("_type", "_value")

    def __init__(self, value, of: Optional[TypeSpec] = None):
        if of is None:  # only picks the target: the value is checked as below
            of = value._type if isinstance(value, Number) else deduced_type(value)
        target = of if type(of) is NumType else numeric_type(of)
        if type(value) is int and target.min is not None and target.min <= value <= target.max:
            self._value = value
        elif type(value) is float:
            self._value = F64.to[target](value)
        else:
            self._value = convert(value, target)
        self._type = target

    # read-only, with no Python frame: the getter is a C callable
    value = property(operator.attrgetter("_value"), doc="The wrapped value, unchanged.")
    numtype = property(operator.attrgetter("_type"), doc="The value's interned ``NumType``.")

    def assign(self, value) -> "Number":
        """Check ``value`` into this Number's type; the original is untouched."""
        return Number(value, self._type)

    def __repr__(self) -> str:
        return f"Number({self._value!r}, {self._type.name})"

    def __str__(self) -> str:
        return str(self._value)

    def __hash__(self):
        return hash(self._value)

    def __bool__(self) -> bool:
        return bool(self._value)

    def __getstate__(self):  # a copy or an unpickled Number is checked in again
        return self._value, self._type

    def __setstate__(self, state) -> None:  # by convert_to's source rule: NaN is an f32 value
        value, of = state
        self._value, self._type = convert_to(value, of, of), numeric_type(of)

    __add__, __radd__ = _arithmetic(1)
    __sub__, __rsub__ = _arithmetic(2)
    __mul__, __rmul__ = _arithmetic(3)
    __truediv__, __rtruediv__ = _arithmetic(4)

    __lt__ = _comparison(operator.lt)
    __gt__ = _comparison(operator.gt)
    __le__ = _comparison(operator.le)
    __ge__ = _comparison(operator.ge)
    __eq__ = _comparison(operator.eq)


def compare_lt(x, y) -> bool:
    """Mathematically correct less-than across any integer signedness mix.

    Accepts Numbers or bare numeric values.  Integer operands are compared
    as exact values, never converted, so a negative signed operand is below
    any unsigned one, which is exactly where the host rules go wrong.
    """
    a = _as_number(x)
    b = _as_number(y)
    if a is None or b is None:
        raise ConstraintError("compare_lt needs numeric operands")
    return Number.__lt__(a, b)
